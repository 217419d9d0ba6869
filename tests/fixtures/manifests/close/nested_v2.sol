contract Nested {
    event A(uint a, uint b);
    function f(uint x, uint y) public {
        /* the next emit
           is nested */ emit A(g(x),
            x + y);
        y = x;
    }
}
