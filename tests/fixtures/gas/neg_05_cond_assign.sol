pragma solidity ^0.8.0;

contract NegCondAssign {
    uint public delay;

    event Set(uint delay);

    // negative: the branch condition overwrites the equal memory variable
    function assignInCondition(uint x) public {
        uint m = delay;
        if ((m = x) > 0) {
            emit Set(delay);
        }
    }

    // negative: the branch condition compound-assigns it
    function compoundAssignInCondition(uint x) public {
        uint m = delay;
        if ((m += x) > 0) {
            emit Set(delay);
        }
    }

    // negative (control): the branch condition increments it
    function incrementInCondition(uint x) public {
        uint m = delay;
        if (m++ > x) {
            emit Set(delay);
        }
    }
}
