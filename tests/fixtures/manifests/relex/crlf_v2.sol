pragma solidity ^0.8.0;

contract Vault {
    event Withdrawn(address to, uint amount);

    uint reserve;

    function withdraw(address to, uint amount) public {
        reserve = reserve - amount;
        emit Withdrawn(to, reserve);
    }
}
