pragma solidity ^0.8.0;

contract Shop {
    event Sold(address from, uint amount);

    function wrap(uint v) internal pure returns (uint) {
        return v;
    }

    function sell(uint amount, uint value) public {
        emit Sold(address(0),
            wrap(amount));
    }
}
