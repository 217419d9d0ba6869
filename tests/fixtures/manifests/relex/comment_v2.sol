pragma solidity ^0.8.0;

contract Payout {
    event Paid(address to, uint amount);
    event Checked(address to);

    uint balance;

    function pay(address to, uint amount) public {
        balance = balance - amount;
        emit Paid(to, amount);
        emit Checked(msg.sender);
    }

    function refund(address to, uint amount) public {
        balance = balance + amount;
        emit Paid(to, amount);
    }
}
