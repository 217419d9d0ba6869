pragma solidity ^0.8.0;

contract Pool {
    event Deposited(address from, uint amount);

    function deposit(uint amount) public {
        emit Deposited(msg.sender, amount * 2);
    }
}