pragma solidity ^0.8.0;

contract Shop {
    event Noted(string memo, uint amount);

    string memo = "unpaid;

    function note(uint amount) public {
        emit Noted(memo, amount);
    }

    function settle(uint amount, uint value) public {
        emit Noted("settled", amount);
    }
}
