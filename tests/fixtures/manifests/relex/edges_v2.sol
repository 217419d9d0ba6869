pragma solidity ^0.8.20;

contract Gauge {
    event Voted(address voter, uint weight);

    uint total;

    function vote(uint weight) public {
        total = total + weight;
        emit Voted(msg.sender, total);
    }
} // Gauge, weighted