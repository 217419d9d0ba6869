import random

import pytest

from emitlint.dataflow import equalities_at, kill_names

from helpers import (
    UnsupportedConstruct, brute_force_equalities, distinct_inputs, emits_of,
    gen_branching_contract, gen_straight_line_contract, parsed,
    reached_equalities,
)


def _facts(text, emit_index=0, fn_index=0):
    _, unit, tree = parsed(text)
    fn = unit.contracts[0].functions[fn_index]
    emit = emits_of(fn)[emit_index]
    return [(f.storage_sym.name, f.memory_sym.name)
            for f in equalities_at(emit, fn, tree)]


TPL = """contract C {{
    uint public delay;
    uint public other;
    event DelaySet(uint d);
    function setDelay(uint delay_) public {{
{body}
    }}
}}
"""


def body(*lines):
    return TPL.format(body="\n".join("        " + l for l in lines))


def test_fig5d_establishes_fact():
    assert _facts(body("delay = delay_;",
                       "emit DelaySet(delay);")) == [("delay", "delay_")]


def test_reverse_assignment_direction_also_counts():
    assert _facts(body("uint copy = delay;",
                       "emit DelaySet(delay);")) == [("delay", "copy")]


def test_reassignment_kills():
    assert _facts(body("delay = delay_;",
                       "delay_ = 0;",
                       "emit DelaySet(delay);")) == []


def test_call_kills_everything():
    assert _facts(body("delay = delay_;",
                       "poke(delay_);",
                       "emit DelaySet(delay);")) == []


def test_call_with_unrelated_argument_still_kills():
    # Any call may write storage, so even f(unrelated) drops the fact.
    assert _facts(body("delay = delay_;",
                       "poke(1);",
                       "emit DelaySet(delay);")) == []


def test_compound_assignment_kills():
    assert _facts(body("delay = delay_;",
                       "delay += 1;",
                       "emit DelaySet(delay);")) == []


def test_increment_kills():
    assert _facts(body("delay = delay_;",
                       "delay_++;",
                       "emit DelaySet(delay);")) == []


def test_unrelated_literal_assignment_preserves_fact():
    assert _facts(body("delay = delay_;",
                       "other = 3;",
                       "emit DelaySet(delay);")) == [("delay", "delay_")]


def test_branch_join_drops_facts():
    assert _facts(body("if (delay_ > 0) {",
                       "    delay = delay_;",
                       "}",
                       "emit DelaySet(delay);")) == []


def test_fact_survives_into_branch():
    assert _facts(body("delay = delay_;",
                       "if (delay_ > 0) {",
                       "    emit DelaySet(delay);",
                       "}")) == [("delay", "delay_")]


def test_loop_header_drops_facts():
    assert _facts(body("delay = delay_;",
                       "for (uint i = 0; i < 2; i++) {",
                       "    emit DelaySet(delay);",
                       "}")) == []


def test_fact_established_inside_loop_body_survives():
    assert _facts(body("for (uint i = 0; i < 2; i++) {",
                       "    delay = delay_;",
                       "    emit DelaySet(delay);",
                       "}")) == [("delay", "delay_")]


def test_while_header_drops_facts():
    assert _facts(body("delay = delay_;",
                       "while (delay_ > 0) {",
                       "    emit DelaySet(delay);",
                       "}")) == []


def test_unparsed_statement_drops_facts():
    assert _facts(body("delay = delay_;",
                       "assembly { pop(0) }",
                       "emit DelaySet(delay);")) == []


def test_storage_to_storage_assignment_no_fact():
    assert _facts(body("delay = other;",
                       "emit DelaySet(delay);")) == []


def test_memory_to_memory_assignment_no_fact():
    assert _facts(body("uint a = delay_;",
                       "emit DelaySet(delay);")) == []


def test_unanalyzable_function_yields_empty():
    text = """contract C {
    event E(uint v);
    function f(uint a) public {
        emit E(a);
    }
}
"""
    assert _facts(text) == []


def test_kill_names_per_write_form():
    """A plain assignment, a compound assignment, an increment and a call
    argument each write their variable."""
    text = """contract C {
    uint public s;
    function f(uint a, uint b) public {
        a = 1;
        b += 2;
        a++;
        g(b);
    }
}
"""
    _, unit, _ = parsed(text)
    stmts = unit.contracts[0].functions[0].body.stmts
    assert [kill_names(stmt) for stmt in stmts] == [{"a"}, {"b"}, {"a"}, {"b"}]


def test_kill_completeness():
    """After a statement that invalidates a variable, no surviving fact
    mentions it."""
    killers = ["delay_ = 9;", "delay_ += 1;", "delay_--;", "poke(delay_);",
               "delay = 5;", "delay -= 2;"]
    for killer in killers:
        facts = _facts(body("delay = delay_;", killer,
                            "emit DelaySet(delay);"))
        assert facts == [], killer


# ----------------------------------------------------------------- oracle

ORACLE_TPL = """contract C {{
    function f(uint a, uint b) public {{
{body}
    }}
}}
"""


def _oracle(body_lines, inputs):
    text = ORACLE_TPL.format(
        body="\n".join("        " + l for l in body_lines))
    _, unit, _ = parsed(text)
    return brute_force_equalities(unit.contracts[0].functions[0], inputs)


def test_oracle_copy_equality():
    tables = _oracle(["a = 1;", "b = a;"], {"a": 5, "b": 9})
    assert tables[2] == {("a", "b")}


def test_oracle_equality_destroyed():
    tables = _oracle(["a = 1;", "b = a;", "a = 2;"], {"a": 5, "b": 9})
    assert tables[3] == set()


def test_oracle_local_declarations_default_to_zero():
    tables = _oracle(["uint c;", "uint d;"], {"a": 5, "b": 9})
    assert ("c", "d") in tables[2]


def test_oracle_rejects_calls():
    with pytest.raises(UnsupportedConstruct):
        _oracle(["a = g(b);"], {"a": 1, "b": 2})


def test_oracle_rejects_loops_and_calls():
    for loop in (["while (a > 0) { a = 0; }"],
                 ["for (a = 0; a < 1; a = 1) { b = a; }"],
                 ["if (a > 0) { while (b > 0) { b = 0; } }"]):
        with pytest.raises(UnsupportedConstruct):
            _oracle(loop, {"a": 1, "b": 2})
    for call in (["if (a > 0) { b = g(a); }"], ["if (g(a) > 0) { b = 1; }"]):
        with pytest.raises(UnsupportedConstruct):
            _oracle(call, {"a": 1, "b": 2})


def test_oracle_runs_the_taken_branch():
    lines = ["if (a > b) { uint c = a; b = c; } else { a = b; }"]
    assert _oracle(lines, {"a": 5, "b": 9})[1] == {("a", "b")}
    # The branch-local c is out of scope after the if.
    assert _oracle(lines, {"a": 9, "b": 5})[1] == {("a", "b")}
    assert _oracle(["if ((a = b) == b) { a = 1; }"], {"a": 5, "b": 9})[1] \
        == set()
    assert _oracle(["if ((a = b) != b) { a = 1; }"], {"a": 5, "b": 9})[1] \
        == {("a", "b")}
    assert _oracle(["if (a == 3) { a = 1; }"], {"a": 5, "b": 9})[1] == set()


def test_analysis_sound_vs_oracle_on_random_functions():
    """100 random straight-line functions and 200 random functions with
    nested if/else: at every emit a run reaches, every analysis fact is an
    equality the interpreter confirms, under several distinct input
    valuations. Facts must reach emits inside branches, so the branch
    entries in the analysis are exercised."""
    rng = random.Random(20240901)
    checked = in_branch = 0
    cases = [gen_straight_line_contract(rng, index) for index in range(100)]
    cases += [gen_branching_contract(rng, index) for index in range(200)]
    for index, (text, input_names) in enumerate(cases):
        _, unit, tree = parsed(text, f"gen{index}.sol")
        assert unit.parse_errors == [], text
        fn = unit.contracts[0].functions[0]
        top_level = {id(stmt) for stmt in fn.body.stmts}
        claimed = {}
        for emit in emits_of(fn):
            claimed[id(emit)] = {
                tuple(sorted((f.storage_sym.name, f.memory_sym.name)))
                for f in equalities_at(emit, fn, tree)}
            if claimed[id(emit)] and id(emit) not in top_level:
                in_branch += 1
        for salt in range(3):
            inputs = distinct_inputs(input_names, salt)
            for key, truth in reached_equalities(fn, inputs).items():
                assert claimed[key] <= truth, (text, claimed[key], truth)
                checked += 1
    assert checked > 0
    assert in_branch > 0
