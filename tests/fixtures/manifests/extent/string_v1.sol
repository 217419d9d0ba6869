pragma solidity ^0.8.0;

contract Shop {
    event Noted(string memo, uint amount);

    function note(uint amount, uint value) public {
        emit Noted("paid :)", amount);
    }
}
