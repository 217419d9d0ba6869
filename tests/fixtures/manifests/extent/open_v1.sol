pragma solidity ^0.8.0;

contract Shop {
    uint stock;

    event Priced(uint price);

    function price(uint amount) public {
        emit Priced(amount);
        stock = 1;
    }
}
