contract Stops {
    event A(uint a, uint b);
    function f(uint x, uint y) public {
        emit A(g(x), y // ; not the stop
        ;
        emit A(g(x), y /* ; { } */ ;
        emit A(g(x), y @
        ;
        emit A(g(x), "open ; { }
        ;
        emit A(g(x), "a;{}b");
        emit A(h(x), "};{" ;
        x = y;
    }
}
