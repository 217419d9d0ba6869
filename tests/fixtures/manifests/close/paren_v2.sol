contract Paren {
    event S(string s, uint a);
    function f(uint x, uint y) public {
        emit S("(", y);
        emit S(")", y);
        emit S("(", g(y));
        x = y;
    }
}
