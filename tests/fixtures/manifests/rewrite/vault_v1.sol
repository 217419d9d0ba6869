pragma solidity ^0.8.0;

contract Vault {
    mapping(address => uint) public balances;
    uint public total;
    address public owner;

    event Deposited(address who, uint amount);
    event Withdrawn(address who, uint amount);
    event OwnerSet(address owner);

    constructor() {
        owner = msg.sender;
        emit OwnerSet(owner);
    }

    function deposit() public payable {
        balances[msg.sender] += msg.value;
        total += msg.value;
        emit Deposited(msg.sender, msg.value);
    }

    function withdraw(uint amount) public {
        require(balances[msg.sender] >= amount);
        balances[msg.sender] -= amount;
        total -= amount;
        payable(msg.sender).transfer(amount);
        emit Withdrawn(msg.sender, amount);
    }

    function setOwner(address next) public {
        if (msg.sender == owner) {
            owner = next;
            emit OwnerSet(next);
        }
    }
}
