pragma solidity ^0.8.0;

contract Fees {
    event FeeSet(uint fee, uint scale);
    event RateSet(uint rate);

    uint fee;
    uint rate = 1.5;
    uint scale = 1e+5;

    function setFee(uint amount) public {
        fee = amount * rate;
        emit FeeSet(fee, scale);
        emit RateSet(rate);
    }
}
