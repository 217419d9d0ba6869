contract Nested {
    event A(uint a, uint b);
    function f(uint x, uint y) public {
        /* the next emit
           is nested */ emit A(g(x),
            y);
        y = x;
    }
}
