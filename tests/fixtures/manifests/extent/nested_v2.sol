pragma solidity ^0.8.0;

contract Shop {
    event Sold(address from, uint amount);

    function sell(uint amount, uint value) public {
        emit Sold(address(0), value);
    }
}
