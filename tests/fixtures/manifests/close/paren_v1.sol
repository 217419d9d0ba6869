contract Paren {
    event S(string s, uint a);
    function f(uint x, uint y) public {
        emit S("(", x);
        emit S(")", x);
        emit S("(", g(x));
    }
}
