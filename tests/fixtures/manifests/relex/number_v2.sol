pragma solidity ^0.8.0;

contract Fees {
    event FeeSet(uint fee, uint scale);
    event RateSet(uint rate);

    uint fee;
    uint rate = 1.a;
    uint scale = 1e+x;

    function setFee(uint amount) public {
        fee = amount * rate;
        emit FeeSet(fee, x);
        emit RateSet(rate);
    }
}
