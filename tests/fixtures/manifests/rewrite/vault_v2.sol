// SPDX-License-Identifier: MIT
pragma solidity ^0.8.20;

contract Vault {
    mapping(address => uint256) private shares;
    uint256 public supply;
    address public admin;

    event Deposited(address indexed who, uint256 amount, uint256 supply);
    event Withdrawn(address indexed who, uint256 amount);
    event AdminChanged(address previous, address admin);

    constructor(address first) {
        admin = first;
        emit AdminChanged(address(0), first);
    }

    function deposit() external payable {
        uint256 minted = msg.value;
        shares[msg.sender] += minted;
        supply += minted;
        emit Deposited(msg.sender, minted, supply);
    }

    function withdraw(uint256 amount) external {
        require(shares[msg.sender] >= amount, "short");
        shares[msg.sender] -= amount;
        supply -= amount;
        emit Withdrawn(msg.sender, amount);
        payable(msg.sender).transfer(amount);
    }

    function changeAdmin(address next) external {
        if (msg.sender == admin) {
            emit AdminChanged(admin, next);
            admin = next;
        }

    }

}
