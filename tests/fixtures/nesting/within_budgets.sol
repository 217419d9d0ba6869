// 119 nested ifs around an emit whose argument nests 79 parentheses
// around 99 '!' links: within the statement (120), expression (80)
// and chain (100) budgets.
contract Nested {
    event E(bool v);

    function f(bool c) public {
        if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) if (c) emit E((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!c))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))));
    }
}
