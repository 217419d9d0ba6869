pragma solidity ^0.8.0;

contract Ledger {
    uint public count;

    event Entry(uint id, bytes32 tag);

    function add(bytes32 tag) public {
        count++;
        emit Entry(count, tag);
    }

    function addTwo(bytes32 a, bytes32 b) public {
        add(a);
        add(b);
    }
}
