pragma solidity ^0.8.0;

// Blocks with zero, one, two and three emits among their own statements,
// emits that end their block, and emits nested in an `if`: where
// REDUNDANT_EVENT and EMIT_BEFORE_OP can fire and where they cannot.
contract Blocks {
    uint total;
    address owner;

    event Moved(address to, uint amount);
    event Paid(uint amount);
    event Total(uint value);

    // No emit.
    function none(uint amount) public {
        total = amount;
    }

    // One emit, ending its block: neither rule can fire.
    function oneLast(uint amount) public {
        total = amount;
        emit Paid(total);
    }

    // One emit before a write to its argument: EMIT_BEFORE_OP.
    function oneFirst(uint amount) public {
        emit Paid(total);
        total = amount;
    }

    // Two emits, the first included in the second: REDUNDANT_EVENT.
    function two(address to, uint amount) public {
        emit Paid(amount);
        emit Moved(to, amount);
    }

    // Three emits; a write between the second and the third keeps the
    // third apart from the first two, and the block ends in an emit.
    function three(address to, uint amount) public {
        emit Paid(amount);
        emit Moved(to, amount);
        amount = amount + 1;
        emit Paid(amount);
    }

    // Emits nested in an `if`: the block inside holds one emit, ending it,
    // and the pairs across blocks are never compared. The write after the
    // `if` is in the outer block, so the nested emit is not before it.
    function nested(address to, uint amount) public {
        if (amount > total) {
            emit Paid(amount);
        }
        emit Moved(to, amount);
        amount = 0;
        if (amount == 0) {
            emit Total(total);
            emit Total(total);
        } else emit Paid(amount);
        total = amount;
    }

    // An emit whose argument calls is paired with none; the transfer uses
    // an emitted value after the emit.
    function pay(address payable to, uint amount) public {
        emit Paid(amount);
        emit Paid(address(this).balance);
        to.transfer(amount);
        emit Moved(to, amount);
    }
}
