pragma solidity ^0.8.0;

// negative: a constant or immutable state variable has no storage slot, so
// logging it costs no Sload even where a local holds the same value
contract FeeBase {
    uint256 public constant MAX_FEE = 500;
}

contract NegConstantImmutable is FeeBase {
    address public immutable owner;
    uint256 public immutable created;

    event Configured(uint256 maxFee, address owner);

    constructor() {
        owner = msg.sender;
        created = block.timestamp;
    }

    function configure() public {
        uint256 cap = MAX_FEE;
        address admin = owner;
        emit Configured(MAX_FEE, owner);
    }
}
