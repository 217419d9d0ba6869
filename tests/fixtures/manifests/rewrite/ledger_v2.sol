pragma solidity ^0.8.0;

contract Ledger {

    uint256 private next;

    event Entry(uint256 indexed id, bytes32 tag, address by);

    function add(bytes32 tag) public returns (uint256 id) {
        id = ++next;
        emit Entry(id, tag, msg.sender);
    }

    function count() public view returns (uint256) {
        return next;
    }

}
