contract Eof {
    event E(uint a, uint b);
    function f(uint x, uint y) public {
        x = 1;
        emit E(g(x), y +
          1