contract Stops {
    event A(uint a, uint b);
    function f(uint x, uint y) public {
        emit A(g(y), x // ; not the stop
        ;
        emit A(g(y), x /* ; { } */ ;
        emit A(g(y), x @
        ;
        emit A(g(y), "open ; { }
        ;
        emit A(g(y), "a;{}c");
        emit A(h(y), "};{" ;
        y = x;
    }
}
