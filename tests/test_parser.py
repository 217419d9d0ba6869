import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import emitlint.parser as parser_module
from emitlint.checks import run_checks
from emitlint.lexer import lex
from emitlint.metrics import FileAnalysis, count_file_emits
from emitlint.nodes import (
    Assignment, Binary, Call, Conditional, ContractKind, DataLocation,
    EmitStmt, ExprStmt, Identifier, If, Literal, LiteralKind, LocalVarDecl,
    MemberAccess, ParseError, Unary, Unparsed, While, walk_expr,
    walk_statements,
)
from emitlint.parser import Parser, has_fatal_errors, parse, parse_file
from emitlint.source import SourceFile

from helpers import (
    FIXTURES, ReferenceExprParser, ReferenceSkipParser, emits_of,
    fixture_file, front_end_inputs, nodes_in, parsed, snippet_corpus,
    span_contains, span_text, spans_in, src, structural_eq,
)

RECEIPT_TEXT = fixture_file("client_receipt.sol").text
GOLDEN = Path(__file__).parent / "golden"


def test_client_receipt_shape():
    _, unit, _ = parsed(RECEIPT_TEXT)
    assert unit.parse_errors == []
    assert len(unit.contracts) == 1
    contract = unit.contracts[0]
    assert contract.name == "ClientReceipt"
    assert contract.kind == ContractKind.CONTRACT
    assert len(contract.events) == 1
    event = contract.events[0]
    assert event.name == "Deposit"
    assert [(p.name, p.indexed) for p in event.params] == [
        ("_from", True), ("_id", True), ("_value", False)]
    assert [p.type_name for p in event.params] == ["address", "bytes32", "uint"]
    assert len(contract.functions) == 1
    fn = contract.functions[0]
    assert fn.name == "deposit"
    assert fn.visibility == "public"
    assert fn.mutability == "payable"
    emits = emits_of(fn)
    assert len(emits) == 1
    assert emits[0].event_name == "Deposit"
    assert len(emits[0].args) == 3
    assert isinstance(emits[0].args[0], MemberAccess)
    assert isinstance(emits[0].args[1], Identifier)


def test_empty_contract():
    _, unit, _ = parsed("contract C {}")
    assert len(unit.contracts) == 1
    assert unit.contracts[0].name == "C"
    assert unit.parse_errors == []
    assert unit.contracts[0].functions == []


def test_assembly_block_becomes_unparsed_without_fatal_errors():
    text = """contract C {
    event E(uint v);
    function f(uint a) public {
        assembly { let x := mload(0x40) }
        emit E(a);
    }
}
"""
    _, unit, _ = parsed(text)
    assert not has_fatal_errors(unit)
    fn = unit.contracts[0].functions[0]
    assert [type(s).__name__ for s in fn.body.stmts] == ["Unparsed", "EmitStmt"]
    unparsed = fn.body.stmts[0]
    assert "assembly" in unparsed.raw_text


def test_pure_garbage_yields_errors_and_no_contracts():
    _, unit, _ = parsed("??? definitely not solidity ;;; {{{")
    assert unit.contracts == []
    assert unit.parse_errors


def test_contract_kinds_and_inheritance():
    text = """interface IThing { function f() external; }
library Lib { function g(uint x) internal pure returns (uint) { return x; } }
abstract contract Base { uint public stored; }
contract Impl is Base, IThing {
    function f() external {}
}
"""
    _, unit, _ = parsed(text)
    kinds = {c.name: c.kind for c in unit.contracts}
    assert kinds == {
        "IThing": ContractKind.INTERFACE,
        "Lib": ContractKind.LIBRARY,
        "Base": ContractKind.ABSTRACT,
        "Impl": ContractKind.CONTRACT,
    }
    assert unit.contracts[3].bases == ["Base", "IThing"]
    # interface function has no body
    assert unit.contracts[0].functions[0].body is None


def test_more_than_three_indexed_params_is_warning_not_failure():
    """A log holds 4 topics. An event takes one for its signature, so more
    than 3 indexed parameters draw a warning; an anonymous event takes
    none, so only more than 4 do."""
    text = """contract C {
    event Busy(uint indexed a, uint indexed b, uint indexed c, uint indexed d);
}
"""
    _, unit, _ = parsed(text)
    assert len(unit.contracts[0].events) == 1
    assert len(unit.contracts[0].events[0].params) == 4
    warnings = [e for e in unit.parse_errors if e.severity == "warning"]
    assert any("indexed" in w.message for w in warnings)
    assert not has_fatal_errors(unit)

    for count, messages in ((4, []), (5, [
            "event Anon declares 5 indexed parameters; the log format "
            "supports at most 4 topics"])):
        params = ", ".join(f"uint indexed p{i}" for i in range(count))
        _, unit, _ = parsed(f"contract C {{ event Anon({params}) anonymous; }}")
        assert [p.indexed for p in unit.contracts[0].events[0].params] == \
            [True] * count
        assert [e.message for e in unit.parse_errors] == messages, count


def test_state_var_declarations():
    text = """contract C {
    uint public total = 10;
    mapping(address => uint) balances;
    address payable owner;
    uint[] public history;
    bytes32 constant KEY = 0x00;
    MyStruct internal thing;
}
"""
    _, unit, _ = parsed(text)
    names = [v.name for v in unit.contracts[0].state_vars]
    assert names == ["total", "balances", "owner", "history", "KEY", "thing"]
    types = {v.name: v.type_name for v in unit.contracts[0].state_vars}
    assert types["balances"] == "mapping(address => uint)"
    assert types["owner"] == "address payable"
    assert types["history"] == "uint[]"
    assert [v.is_constant for v in unit.contracts[0].state_vars].count(True) == 1


def test_local_decl_vs_assignment_disambiguation():
    text = """contract C {
    uint public delay;
    function f(uint delay_) public {
        delay = delay_;
        uint copy = delay;
        copy += 1;
    }
}
"""
    _, unit, _ = parsed(text)
    stmts = unit.contracts[0].functions[0].body.stmts
    assert isinstance(stmts[0], ExprStmt)
    assert isinstance(stmts[0].expr, Assignment)
    assert isinstance(stmts[1], LocalVarDecl)
    assert stmts[1].name == "copy"
    assert isinstance(stmts[2], ExprStmt)
    assert stmts[2].expr.op == "+="


def test_data_locations_parsed():
    text = """contract C {
    function f(uint[] storage a, bytes memory b, string calldata c) internal {}
}
"""
    _, unit, _ = parsed(text)
    params = unit.contracts[0].functions[0].params
    assert [p.data_location for p in params] == [
        DataLocation.STORAGE, DataLocation.MEMORY, DataLocation.CALLDATA]


def test_modifier_body_parsed_as_function_like():
    text = """contract C {
    event Guarded(address who);
    modifier onlySelf() {
        emit Guarded(msg.sender);
        _;
    }
}
"""
    _, unit, _ = parsed(text)
    fn = unit.contracts[0].functions[0]
    assert fn.kind == "modifier"
    assert len(emits_of(fn)) == 1


def test_expression_forms_in_emit_args():
    text = """contract C {
    event E(uint a, uint b, uint c, uint d);
    function f(uint x, uint y, bool ok) public {
        emit E(x + y * 2, ok ? x : y, uint(x), balances[msg.sender]);
    }
}
"""
    _, unit, _ = parsed(text)
    assert not has_fatal_errors(unit)
    emit = emits_of(unit.contracts[0].functions[0])[0]
    assert len(emit.args) == 4


def test_call_options_folded_into_args():
    text = """contract C {
    function f(address to, uint amount) public {
        to.call{value: amount}("");
    }
}
"""
    _, unit, _ = parsed(text)
    assert not has_fatal_errors(unit)
    stmt = unit.contracts[0].functions[0].body.stmts[0]
    call = stmt.expr
    assert isinstance(call, Call)
    assert isinstance(call.callee, MemberAccess)
    assert call.callee.member == "call"
    assert any(isinstance(a, Identifier) and a.name == "amount"
               for a in call.args)


_DAMAGED_OPTIONS_TEXT = """contract C {{
    function f() public {{
        x.call{}(""); emit Paid(1);
    }}
    function g() public {{ emit Other(2); }}
}}
"""


@pytest.mark.parametrize("options", ["{value: 1, }", "{value: 1 2}",
                                     "{value: }"])
def test_damaged_call_options_are_skipped_with_a_warning(options):
    """Damaged options after `{ name :` are skipped through their '}', so
    that brace no longer ends the function: both emits stay in the tree,
    the call keeps its arguments but no options, one warning spans the
    group, and the emit count comes from the tree."""
    file = src(_DAMAGED_OPTIONS_TEXT.format(options))
    unit = parse_file(file)
    f, g = unit.contracts[0].functions
    assert [e.event_name for e in emits_of(f) + emits_of(g)] == \
        ["Paid", "Other"]
    call = f.body.stmts[0].expr
    assert isinstance(call, Call)
    assert [a.text for a in call.args] == ['""']
    [warning] = unit.parse_errors
    assert (warning.message, warning.severity) == \
        ("damaged call options skipped", "warning")
    assert span_text(file, warning.span) == options
    assert count_file_emits(file) == (2, "ast")


def _messages(unit) -> list[tuple[str, str]]:
    return [(e.message, e.severity) for e in unit.parse_errors]


def test_unclosed_damaged_call_options_still_lose_the_emits():
    """The limit of the skip: options with no '}' of their own run on to
    the function's '}', where no '(' follows, so the skip is abandoned and
    records nothing; the call fails as before, the statement and the emits
    after it are lost, and the count falls back to the regex."""
    file = src(_DAMAGED_OPTIONS_TEXT.format('{value: 1 2(""'))
    unit = parse_file(file)
    assert not any(emits_of(fn) for fn in unit.contracts[0].functions)
    assert _messages(unit) == [("unsupported or malformed statement",
                                "error")]
    assert has_fatal_errors(unit)
    assert count_file_emits(file) == (2, "regex")


def test_a_damaged_struct_literal_argument_is_not_skipped_as_options():
    """In `g(S{a: 1 2})` no '(' follows the group, so it is not call
    options: the argument is kept as opaque text with its one warning."""
    unit = parse_file(src("contract C { function f() public "
                          "{ g(S{a: 1 2}); } }"))
    [stmt] = unit.contracts[0].functions[0].body.stmts
    assert [a.name for a in stmt.expr.args] == ["<S{a: 1 2}>"]
    assert _messages(unit) == [
        ("unsupported call argument kept as opaque text", "warning")]


def test_a_damaged_statement_drops_the_warnings_made_inside_it():
    """`x = f(S{a: 1}) y;` keeps its argument as opaque text, then misses
    its ';': the statement becomes Unparsed, so the argument's warning goes
    with it and only the damage's error is left. A warning made before the
    statement, and an error-severity damage record, stay."""
    unit = parse_file(src("contract C { function f() public "
                          "{ g(S{a: 1}); x = f(S{a: 1}) y; emit E(1); } }"))
    stmts = unit.contracts[0].functions[0].body.stmts
    assert [type(s) for s in stmts] == [ExprStmt, Unparsed, EmitStmt]
    assert stmts[1].raw_text == "x = f(S{a: 1}) y;"
    assert _messages(unit) == [
        ("unsupported call argument kept as opaque text", "warning"),
        ("expected ';' after expression statement", "error")]


def test_a_damage_warning_is_kept_when_its_statement_is_unparsed():
    """A damage record may itself be a warning, as for an emit argument that
    does not parse. It is the last record, so it stays, while the opaque
    argument's warning before it goes."""
    unit = parse_file(src("contract C { function f() public "
                          "{ emit E(g(S{a: 1}), ]); } }"))
    assert _messages(unit) == [
        ("unsupported expression in emit arguments", "warning")]


def test_a_dotted_base_with_no_name_after_the_dot_keeps_its_prefix():
    """`is A.` then `{`: the dotted name stops at the missing part, and
    the base is `A`, with no error."""
    unit = parse_file(src("contract C is A. { }"))
    assert unit.contracts[0].bases == ["A"]
    assert unit.parse_errors == []


def test_an_empty_call_argument_damages_only_its_statement():
    """In `x = f(, 1);` the first argument is empty, so the skip over it as
    opaque text makes no progress and the call fails: the statement is
    kept as Unparsed with one error, and the emit after it parses."""
    unit = parse_file(src("contract C { function f() public "
                          "{ x = f(, 1); emit E(1); } }"))
    stmts = unit.contracts[0].functions[0].body.stmts
    assert isinstance(stmts[0], Unparsed)
    assert stmts[0].raw_text == "x = f(, 1);"
    assert isinstance(stmts[1], EmitStmt)
    assert [(e.message, e.severity) for e in unit.parse_errors] == \
        [("unsupported or malformed statement", "error")]


def test_struct_enum_using_skipped_silently():
    text = """contract C {
    struct Point { uint x; uint y; }
    enum Phase { Open, Closed }
    using SafeMath for uint;
    error NotAllowed(address who);
    event E(uint v);
    function f() public { emit E(1); }
}
"""
    _, unit, _ = parsed(text)
    assert unit.parse_errors == []
    assert len(unit.contracts[0].events) == 1
    assert len(emits_of(unit.contracts[0].functions[0])) == 1


def test_missing_semicolon_is_fatal():
    text = """contract C {
    function f(uint a) public {
        uint b = a
        b = 2;
    }
}
"""
    _, unit, _ = parsed(text)
    assert has_fatal_errors(unit)


def test_directive_without_semicolon_ends_before_the_next_keyword():
    """A pragma or import with no ';' is an error and ends before the next
    keyword (no directive holds one) instead of swallowing the file."""
    body = "contract C { event E(); function f() public { emit E(); } }"
    for directive in ("pragma solidity ^0.8.0", 'import "./a.sol"',
                      "pragma solidity (^0.8.0"):
        _, unit, _ = parsed(f"{directive}\n{body}\n")
        kind = directive.split()[0]
        assert [d.text for d in unit.pragmas] == [directive]
        assert [(e.message, e.severity) for e in unit.parse_errors] == \
            [(f"expected ';' after {kind} directive", "error")]
        assert [c.name for c in unit.contracts] == ["C"]
        assert len(emits_of(unit.contracts[0].functions[0])) == 1
    _, unit, _ = parsed(f"pragma solidity (^0.8.0;\n{body}\n")
    assert unit.pragmas[0].text == "pragma solidity (^0.8.0;"
    assert unit.parse_errors == [] and len(unit.contracts) == 1
    _, unit, _ = parsed('import {A, B as C} from "./x.sol";\n'
                        f"pragma solidity ^0.8.0;\n{body}\n")
    assert [d.kind for d in unit.pragmas] == ["import", "pragma"]
    assert unit.parse_errors == [] and len(unit.contracts) == 1
    _, unit, _ = parsed("pragma solidity ^0.8.0")
    assert [e.message for e in unit.parse_errors] == \
        ["expected ';' after pragma directive"]


def test_tuple_statement_skipped_as_warning():
    text = """contract C {
    function f() public {
        (uint a, uint b) = pair();
        a = b;
    }
}
"""
    _, unit, _ = parsed(text)
    assert not has_fatal_errors(unit)
    kinds = [type(s).__name__ for s in unit.contracts[0].functions[0].body.stmts]
    assert kinds[0] == "Unparsed"


def test_unparsed_records_raw_text():
    text = """contract C {
    function f() public {
        assembly { stop() }
    }
}
"""
    file, unit, _ = parsed(text)
    unparsed = unit.contracts[0].functions[0].body.stmts[0]
    assert isinstance(unparsed, Unparsed)
    assert unparsed.raw_text == "assembly { stop() }"


def test_break_continue_and_delete_are_unparsed_without_errors():
    text = """contract C {
    mapping(uint => uint) m;
    function f(uint k, bool c) public {
        while (c) {
            if (k > 1) break;
            continue;
        }
        delete m[k];
    }
}
"""
    _, unit, _ = parsed(text)
    assert unit.parse_errors == []
    loop, delete = unit.contracts[0].functions[0].body.stmts
    assert isinstance(loop, While)
    if_break, cont = loop.body.stmts
    assert [(type(s), s.raw_text) for s in (if_break.then, cont, delete)] \
        == [(Unparsed, "break;"), (Unparsed, "continue;"),
            (Unparsed, "delete m[k];")]


def test_new_expression_is_a_call_of_a_synthetic_callee():
    _, unit, _ = parsed("contract C { function f(uint k) public { "
                        "Token t = new Token(k); } }")
    assert unit.parse_errors == []
    call = unit.contracts[0].functions[0].body.stmts[0].init
    assert isinstance(call, Call)
    assert call.callee.name == "new Token"
    assert [a.name for a in call.args] == ["k"]


def test_forty_hex_digits_are_an_address_literal():
    address = "0x" + "0" * 36 + "dEaD"
    text = ("contract C { event E(address a); function f() public { "
            f"emit E({address}); emit E({address[:-1]}); }} }}")
    _, unit, _ = parsed(text)
    args = [e.args[0] for e in emits_of(unit.contracts[0].functions[0])]
    assert all(isinstance(a, Literal) for a in args)
    assert [(a.kind, len(a.text)) for a in args] == [
        (LiteralKind.HEX_ADDRESS, 42), (LiteralKind.NUMBER, 41)]


def test_if_at_end_of_input_is_fatal_damage_inside_the_text():
    text = "contract C { function f(uint x) public { if (x)"
    file, unit, _ = parsed(text)
    assert has_fatal_errors(unit)
    stmt = unit.contracts[0].functions[0].body.stmts[0]
    assert isinstance(stmt, If) and isinstance(stmt.then, Unparsed)
    assert text[stmt.start:stmt.end] == "if (x)"
    assert 0 <= stmt.then.start <= stmt.then.end <= len(text)


def test_damage_before_a_brace_skips_only_the_braced_group():
    """Recovery skips a braced group whole, so the statement after it
    survives."""
    text = ("contract C { event E(uint v); function f() public { "
            "if { x = 1; } emit E(1); } }")
    _, unit, _ = parsed(text)
    assert has_fatal_errors(unit)
    damaged, emit = unit.contracts[0].functions[0].body.stmts
    assert isinstance(damaged, Unparsed)
    assert damaged.raw_text == "if { x = 1; }"
    assert isinstance(emit, EmitStmt) and emit.event_name == "E"


def test_stray_brace_in_damage_stops_at_the_first_closer():
    """Damage at a '{' skips through the first closer of any kind, so a
    stray '{' in a condition does not run the skip through the function's
    '}': the next function and both emits survive."""
    text = ('contract C { event Noted(string s, uint a);\n'
            'function f0(uint a, uint b) public { if ( { a > b) '
            '{ emit Noted("x", a); } }\n'
            'function f1(uint a) public { emit Noted("y", a); } }\n')
    analysis = FileAnalysis.build(src(text))
    assert [(w.fn.name, len(w.emits)) for w in analysis.functions] == [
        ("f0", 1), ("f1", 1)]
    damaged = analysis.unit.contracts[0].functions[0].body.stmts[0]
    assert isinstance(damaged, Unparsed)
    assert damaged.raw_text == "if ( { a > b)"


def test_parenthesized_statement_head_is_an_expression_statement():
    _, unit, _ = parsed("contract C { function f(uint a, uint b) public { "
                        "(a) = b; } }")
    assert unit.parse_errors == []
    stmt = unit.contracts[0].functions[0].body.stmts[0]
    assert isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assignment)
    assert (stmt.expr.lhs.name, stmt.expr.rhs.name) == ("a", "b")


def test_unchecked_without_a_brace_is_damage():
    text = ("contract C { event E(uint v); function f(uint x) public { "
            "unchecked x = 1; emit E(x); } }")
    _, unit, _ = parsed(text)
    assert [e.message for e in unit.parse_errors] == [
        "expected '{' after unchecked"]
    damaged, emit = unit.contracts[0].functions[0].body.stmts
    assert isinstance(damaged, Unparsed)
    assert damaged.raw_text == "unchecked x = 1;"
    assert isinstance(emit, EmitStmt)


def test_override_lists_and_dotted_bases_are_read():
    _, unit, _ = parsed("contract C is Lib.Base { uint public override(A) x;"
                        " function f() public override(A, B) {} }")
    assert unit.parse_errors == []
    contract = unit.contracts[0]
    assert contract.bases == ["Lib.Base"]
    var, = contract.state_vars
    assert (var.name, var.visibility) == ("x", "public")
    fn, = contract.functions
    assert (fn.name, fn.visibility, fn.body.stmts) == ("f", "public", [])


def test_spans_nest_within_parents():
    _, unit, _ = parsed(RECEIPT_TEXT)
    contract = unit.contracts[0]
    assert span_contains(unit.span, contract.span)
    for fn in contract.functions:
        assert span_contains(contract.span, fn.span)
        if fn.body:
            assert span_contains(fn.span, fn.body.span)
            for stmt in walk_statements(fn.body):
                assert span_contains(fn.body.span, stmt.span)


def test_emit_span_reparses_to_equal_node():
    """Span soundness on self-contained statements."""
    for file in snippet_corpus(20):
        unit = parse_file(file)
        assert unit.parse_errors == [], (file.path, unit.parse_errors)
        for contract in unit.contracts:
            for fn in contract.functions:
                for emit in emits_of(fn):
                    text = span_text(file, emit.span)
                    wrapper = ("contract W { event Moved(uint a, uint b);"
                               " function w(address a, uint b) public { "
                               + text + " } }")
                    reunit = parse_file(src(wrapper, "re.sol"))
                    re_emits = emits_of(reunit.contracts[0].functions[0])
                    assert len(re_emits) == 1
                    assert structural_eq(emit, re_emits[0]), text


def _mutated(bases: list[str], count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    chars = list("{}();,=+-*/ \n\"'abcxyz0123456789_emit")
    texts = []
    for _ in range(count):
        text = list(rng.choice(bases))
        for _ in range(rng.randint(1, 12)):
            pos = rng.randrange(len(text) + 1)
            op = rng.random()
            if op < 0.4 and pos < len(text):
                text[pos] = rng.choice(chars)
            elif op < 0.7:
                text.insert(pos, rng.choice(chars))
            else:
                del text[pos:pos + rng.randint(1, 40)]
        texts.append("".join(text))
    return texts


def test_node_spans_start_and_end_on_token_boundaries():
    """Every node and parse-error span lies inside the file, starts at some
    token's start and ends at some token's end. The only other span is the
    whole-file span: the unit's own, and the fallback when there is no
    token at all."""
    files = [SourceFile.load(p) for p in sorted(FIXTURES.rglob("*.sol"))]
    files += snippet_corpus()
    files += [src(text, f"mut{i}.sol") for i, text in enumerate(
        _mutated([f.text for f in files] + [""], 600, seed=20261018))]
    for file in files:
        tokens = lex(file).tokens
        starts = {tok.start for tok in tokens}
        ends = {tok.end for tok in tokens}
        unit = parse(tokens, file)
        whole = file.span_from_offsets(0, len(file.text))
        assert unit.span == whole
        for span in spans_in([unit.pragmas, unit.contracts,
                              unit.parse_errors]):
            a = file.linecol_to_offset(span.start_line, span.start_col)
            b = file.linecol_to_offset(span.end_line, span.end_col)
            assert 0 <= a <= b <= len(file.text), (file.path, span)
            assert file.span_from_offsets(a, b) == span, (file.path, span)
            assert (a in starts and b in ends) or (
                not tokens and span == whole), (file.path, span)


def test_spans_in_reads_every_node():
    """spans_in yields each node's span and each parse error's, so the span
    tests above see the whole tree."""
    unit = parse_file(fixture_file("realistic_token.sol"))
    nodes = nodes_in(unit)
    assert len(nodes) > 150
    assert len(spans_in(unit)) == len(nodes) + len(unit.parse_errors)


def test_parse_determinism():
    for file in snippet_corpus(8):
        first = parse_file(file)
        second = parse_file(file)
        assert first == second


def test_realistic_token_contract_parses_without_fatal_errors():
    file = fixture_file("realistic_token.sol")
    unit = parse_file(file)
    assert not has_fatal_errors(unit)
    assert [c.name for c in unit.contracts] == [
        "IMinter", "Math", "Context", "Token"]
    token = unit.contracts[3]
    assert token.bases == ["Context", "IMinter"]
    assert [e.name for e in token.events] == [
        "Transfer", "Approval", "PhaseChanged"]
    assert [fn.kind for fn in token.functions] == [
        "modifier", "constructor", "function", "function", "function"]
    warnings = {e.message for e in unit.parse_errors}
    assert any("assembly" in w for w in warnings)
    assert any("try/catch" in w for w in warnings)
    total_emits = sum(len(emits_of(fn)) for c in unit.contracts
                      for fn in c.functions)
    assert total_emits == 4


def test_legacy_unnamed_fallback_function():
    text = """contract C {
    function() external payable {}
}
"""
    _, unit, _ = parsed(text)
    fn = unit.contracts[0].functions[0]
    assert fn.name == ""
    assert fn.body is not None


def test_qualified_emit_event_name():
    text = """contract C {
    function f(uint v) public {
        emit Lib.Moved(v);
    }
}
"""
    _, unit, _ = parsed(text)
    emit = emits_of(unit.contracts[0].functions[0])[0]
    assert emit.event_name == "Lib.Moved"


def test_tuple_return_is_warning_not_fatal():
    text = """contract C {
    event Done(uint a);
    function f(uint a, uint b) public returns (uint, uint) {
        return (a, b);
    }
    function g(uint a) public {
        emit Done(a);
    }
}
"""
    _, unit, _ = parsed(text)
    assert not has_fatal_errors(unit)
    assert [fn.name for fn in unit.contracts[0].functions] == ["f", "g"]
    assert len(emits_of(unit.contracts[0].functions[1])) == 1


def test_struct_literal_call_argument_kept_opaque():
    text = """contract C {
    event Swapped(uint amount);
    function f(address pool, uint amount) public {
        ISwap(pool).swap({amountIn: amount, to: msg.sender});
        emit Swapped(amount);
    }
}
"""
    _, unit, _ = parsed(text)
    assert not has_fatal_errors(unit)
    fn = unit.contracts[0].functions[0]
    assert len(emits_of(fn)) == 1
    assert isinstance(fn.body.stmts[0], ExprStmt)


def test_pipeline_never_raises_on_mutated_input():
    """Panic-mode recovery holds under random damage: the parser and checks
    accept any byte soup without raising."""
    from emitlint.scan import count_loc, extract_emits_regex

    base = fixture_file("realistic_token.sol").text
    rng = random.Random(20240915)
    chars = list("{}();,=+-*/ \n\"'abcxyz0123456789_emit")
    for i in range(150):
        text = list(base)
        for _ in range(rng.randint(1, 12)):
            op = rng.random()
            pos = rng.randrange(len(text))
            if op < 0.4:
                text[pos] = rng.choice(chars)
            elif op < 0.7:
                text.insert(pos, rng.choice(chars))
            else:
                del text[pos]
        file = src("".join(text), f"fuzz{i}.sol")
        parse_file(file)
        count_loc(file)
        extract_emits_regex(file)
        run_checks(file)


def test_pathological_nesting_is_bounded_not_fatal_to_the_process():
    deep_blocks = ("contract C { function f() public { "
                   + "{" * 5000 + "}" * 5000 + " } }")
    unit = parse_file(src(deep_blocks, "deep.sol"))
    assert any("nesting too deep" in e.message for e in unit.parse_errors)

    deep_expr = ("contract C { function f() public { uint x = "
                 + "(" * 5000 + "1" + ")" * 5000 + "; } }")
    unit = parse_file(src(deep_expr, "deepexpr.sol"))
    assert unit.parse_errors

    # Right-recursive chains: 80 links parse in full, 2000 are damage.
    chains = {
        "unary minus": ("- ", "x", Unary, 0),
        "unary not": ("!", "c", Unary, 0),
        "assignment": ("x = ", "x", Assignment, 1),
        "conditional": ("c ? x : ", "x", Conditional, 0),
        "power": ("x ** ", "x", Binary, 0),
    }
    for name, (link, end, node_type, extra) in chains.items():
        for links in (80, 2000):
            file = src("contract C { function f(uint x, bool c) public { "
                       f"x = {link * links}{end}; }} }}", "chain.sol")
            unit = parse_file(file)
            run_checks(file)
            if links == 2000:
                assert unit.parse_errors, name
                continue
            assert unit.parse_errors == [], name
            stmt = unit.contracts[0].functions[0].body.stmts[0]
            nodes = [e for e in walk_expr(stmt.expr)
                     if isinstance(e, node_type)]
            assert len(nodes) == links + extra, name

    # A precedence ladder nests one chain link per operator: 8 levels of
    # 10 operators parse in full, 60 levels (deeper than the interpreter
    # stack allows) are damage.
    for levels in (8, 60):
        expr = "x"
        for _ in range(levels):
            expr = f"(x || x && x == x < x | x ^ x & x << x + x * {expr})"
        file = src("contract C { function f(uint x) public { "
                   f"x = {expr}; }} }}", "ladder.sol")
        unit = parse_file(file)
        run_checks(file)
        if levels == 60:
            assert unit.parse_errors
            continue
        assert unit.parse_errors == []
        stmt = unit.contracts[0].functions[0].body.stmts[0]
        assert sum(isinstance(e, Binary) for e in walk_expr(stmt.expr)) == 80

    # Nested mapping types: one link per level.
    for levels in (80, 2000):
        type_name = "mapping(uint => " * levels + "uint" + ")" * levels
        file = src(f"contract C {{ {type_name} m; }}", "mapping.sol")
        unit = parse_file(file)
        run_checks(file)
        if levels == 2000:
            assert unit.parse_errors
            continue
        assert unit.parse_errors == []
        assert unit.contracts[0].state_vars[0].type_name == type_name


# Recovery the seeded inputs may miss: stray closers before a ';', parameter
# types whose brackets hold ',' or ')', groups left open at end of input, and
# a directive inside the braces of a nameless contract.
RECOVERY_CASES = (
    "contract C { function f() public { x = a ) b; emit E(1); y ] = 2;"
    " emit E(2); } }",
    "contract C { function f(1[a, b] x, uint y) public { emit E(y); }"
    " event E(1{a) b} x, uint y); }",
    "contract C { function f(1(a, b) x) public {} }",
    "contract C { function f() public { assembly { x := 1",
    "contract C { struct S { uint a;",
    "contract C { function f() public { g(1, S{a: 1, b: (2",
    "contract { import \"a\"; } contract B {}",
    # The first token is a closer or an opener, so recovery starts at index
    # 0; the input ends inside an emit's arguments or a mapping type, so
    # lookahead runs into the end of the tokens.
    "{ emit E(1); } contract C { function f() public { emit E(2); } }",
    ") contract C { function f() public { emit E(1); } }",
    "} contract C { event E(uint a); }",
    "{", ")", "}", "contract", "pragma", "emit E(", "mapping(",
    "contract C { function f() public { emit E(",
    "contract C { function f(uint a) public { emit E(a, ",
    "contract C { function f() public { emit E(a[",
    "contract C { mapping(",
    "contract C { mapping(uint => ",
    "contract C { function f() public { mapping(",
    "contract C { function f(mapping(",
    "contract C { event E(mapping(",
)


def test_skip_rule_matches_the_five_recovery_loops():
    """`Parser._skip_to` with each caller's stops and brackets parses every
    front-end input and recovery case to the same tree and errors as the
    five hand-written loops it replaced."""
    _assert_same_parse(front_end_inputs() + [src(t) for t in RECOVERY_CASES],
                       ReferenceSkipParser)


def _assert_same_parse(files: list[SourceFile], reference) -> None:
    """`Parser` and reference parse each file to the same tree, offsets
    and errors. A reference may take more interpreter frames per nesting
    level, so the stack is raised for both: a file within the budgets then
    parses in full on each side, not only where the stack holds it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        for file in files:
            lexed = lex(file)
            units = [repr(cls(lexed, file).parse_unit())
                     for cls in (Parser, reference)]
            assert units[0] == units[1], repr(file.text[:200])
    finally:
        sys.setrecursionlimit(limit)


def test_recovery_cases_match_their_snapshots():
    """Each recovery case parses to the tree and errors recorded in
    tests/golden/recovery_parse.json, the `repr` of `parse_file` taken when
    the parser still read Token objects. The cases that start at a closer or
    end inside an emit or a mapping reach the first and the last tokens,
    where an index of 0 is false and lookahead reads the end entries."""
    snapshots = json.loads((GOLDEN / "recovery_parse.json").read_text())
    assert sorted(snapshots) == sorted(RECOVERY_CASES)
    for text in RECOVERY_CASES:
        assert repr(parse_file(src(text))) == snapshots[text], text


def test_both_parse_entry_points_agree():
    """`parse(tokens, file)`, the token-list entry point, and `parse_file`,
    which parses from the lexer's columns, give the same tree and errors
    once the lex errors that `parse_file` folds in are put first."""
    files = [SourceFile.load(p) for p in sorted(FIXTURES.rglob("*.sol"))]
    files += front_end_inputs() + [src(text) for text in RECOVERY_CASES]
    for file in files:
        lexed = lex(file)
        unit = parse(lexed.tokens, file)
        unit.parse_errors[:0] = [ParseError(err.kind, err.span, "error")
                                 for err in lexed.errors]
        assert repr(unit) == repr(parse_file(file)), repr(file.text[:200])


def _nesting_cases() -> list[str]:
    """Chains of each kind of link, parenthesized expressions and blocks,
    each at 79/80/81 and 99/100/101 levels: around the expression budget
    (80) and the chain budget (100)."""
    cases = []
    for n in (79, 80, 81, 99, 100, 101):
        for link, end in (("- ", "x"), ("!", "c"), ("x = ", "x"),
                          ("c ? x : ", "x"), ("x ** ", "x"), ("x + ", "x")):
            cases.append("contract C { function f(uint x, bool c) public { "
                         f"x = {link * n}{end}; }} }}")
        mapping = "mapping(uint => " * n + "uint" + ")" * n
        cases.append(f"contract C {{ {mapping} m; function f() public {{ "
                     f"{mapping} storage r = m; }} }}")
        cases.append("contract C { function f(uint x) public { x = "
                     + "(" * n + "x" + ")" * n + "; } }")
        cases.append("contract C { function f() public { " + "{" * n
                     + "emit E(x);" + "}" * n + " } }")
    return cases


# Leaves before each lexeme that ends the leaf fast path, numbers either
# side of an address's length, declarations each token after the first
# identifier allows, and elementary type names as casts and types.
FAST_PATH_CASES = (
    "contract C { function f() public { x = y; x = y.z; x = y[1]; x = y(1);"
    " x = y{value: 1}(2); x = y++; x = y--; x = 1.5e3; x = 0x" + "ab" * 20
    + "; x = 0X" + "AB" * 20 + "; x = " + "1" * 42 + "; x = " + "1" * 41
    + "; x = " + "1" * 43 + "; } }",
    "contract C { function f() public { x = y.; x = y{; } }",
    "contract C { function f() public { T t; T.U u = v; T[] memory a;"
    " T storage s = t; T calldata c; T memory; T = 1; T ++; T; f(g); } }",
    "contract C { function f() public { uint x = uint(y); address payable"
    " a = payable(b); bytes32 h = bytes32(0); uint[] memory l = new"
    " uint[](3); string memory s = string(b); for (i = 0; i < n; i++) {"
    " emit E(uint256(i) ** 2 ** 3, -i, !c ? a : b); } } }",
    "contract C { function f() public { x = y",
    "contract C { function f() public { x",
    "contract C { uint constant K = 10 ** 18; mapping(address => uint)"
    " public m; function f() public { return a + b * c; } }",
)


def test_expression_fast_paths_match_the_reference_parser():
    """The leaf fast path, the declaration pre-check, the inline chain
    budget and the elementary-type test from the token kind parse every
    input to the same tree, offsets and errors as the expression path they
    replaced (`ReferenceExprParser`). front_end_inputs() holds the
    robustness sweep and both perfbench trees and history sides at seeds
    1-5."""
    files = front_end_inputs() + snippet_corpus(300)
    files += [src(text) for text in (RECOVERY_CASES + FAST_PATH_CASES
                                     + tuple(_nesting_cases()))]
    _assert_same_parse(files, ReferenceExprParser)


def test_leaf_operands_take_the_fast_paths(monkeypatch):
    """One function of n `x = y + 1;` statements: no statement parses a
    type name, no leaf operand goes through `_parse_primary`, and no node
    has a `__dict__`."""
    calls = Counter()
    for name in ("_parse_type_name", "_parse_primary"):
        def counting(self, *args, _name=name, _real=getattr(Parser, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(Parser, name, counting)
    for n in (10, 100, 1000):
        calls.clear()
        unit = parse_file(src("contract C { function f() public {"
                              + " x = y + 1;" * n + " } }"))
        assert unit.parse_errors == []
        stmts = unit.contracts[0].functions[0].body.stmts
        assert len(stmts) == n
        assert all(isinstance(s.expr.rhs, Binary) for s in stmts)
        assert calls == Counter(), n
        assert not any(hasattr(node, "__dict__") for node in nodes_in(unit))
    # The counters see the general path: a parenthesized operand, a string
    # operand and a declaration. A member access reads its leaf in place.
    calls.clear()
    parse_file(src('contract C { function f() public { x = (y); x = "s";'
                   " x = y.z; T t; } }"))
    assert calls == Counter(_parse_type_name=1, _parse_primary=2)


def _peak_parser_frames(text: str) -> int:
    """The most frames of parser.py on the stack at once while text parses.
    A profile hook counts them from the parse's own entry, so the caller's
    stack does not count."""
    file = src(text)
    lexed = lex(file)
    depth = peak = 0

    def hook(frame, event, arg):
        nonlocal depth, peak
        if frame.f_code.co_filename == parser_module.__file__:
            if event == "call":
                depth += 1
                peak = max(peak, depth)
            elif event == "return":
                depth -= 1

    sys.setprofile(hook)
    try:
        parse_file(file, lexed)
    finally:
        sys.setprofile(None)
    return peak


def test_nesting_levels_cost_fixed_parser_frames():
    """Each parenthesis or call level adds 2 parser frames
    (`_parse_expression`, and `_parse_primary` or `_parse_call_args`), an
    index level and each chain link of every kind 1, and a
    left-associative operator none. Each statement level adds 2
    (`_parse_stmt`, and `_parse_block`, `_parse_if`, `_parse_while` or
    `_parse_for`)."""
    levels = {
        "parenthesis": (lambda n: "(" * n + "x" + ")" * n, 2),
        "call": (lambda n: "f(" * n + "x" + ")" * n, 2),
        "member call": (lambda n: "a.f(" * n + "x" + ")" * n, 2),
        "index": (lambda n: "a[" * n + "x" + "]" * n, 1),
        "unary minus": (lambda n: "- " * n + "x", 1),
        "unary not": (lambda n: "!" * n + "c", 1),
        "assignment": (lambda n: "x = " * n + "x", 1),
        "conditional": (lambda n: "c ? x : " * n + "x", 1),
        "power": (lambda n: "x ** " * n + "x", 1),
        "sum": (lambda n: "x + " * n + "x", 0),
    }
    statements = {
        "block": (lambda n: "{" * n + "x = 1;" + "}" * n, 2),
        "if": (lambda n: "if (c) " * n + "x = 1;", 2),
        "while": (lambda n: "while (c) " * n + "x = 1;", 2),
        "for": (lambda n: "for (;;) " * n + "x = 1;", 2),
        "unchecked": (lambda n: "unchecked { " * n + "x = 1;" + "}" * n,
                      2),
    }
    rows = [(name, lambda n, expr=expr: f"x = {expr(n)};", frames)
            for name, (expr, frames) in levels.items()]
    rows += [(name, stmt, frames)
             for name, (stmt, frames) in statements.items()]
    for name, stmt, frames in rows:
        peaks = [_peak_parser_frames(
            "contract C { function f(uint x, bool c) public { "
            f"{stmt(n)} }} }}") for n in (10, 11, 30)]
        assert peaks[1] - peaks[0] == frames, (name, peaks)
        assert peaks[2] - peaks[0] == 20 * frames, (name, peaks)
    peaks = [_peak_parser_frames("contract C { " + "mapping(uint => " * n
                                 + "uint" + ")" * n + " m; }")
             for n in (10, 11)]
    assert peaks[1] - peaks[0] == 1


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _parse_under_limit(path: Path, headroom: int) -> list[str]:
    """The messages of parsing path with the recursion limit set to the
    caller's stack depth plus headroom."""
    file = SourceFile.load(path)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + headroom)
    try:
        unit = parse_file(file)
    finally:
        sys.setrecursionlimit(limit)
    return [e.message for e in unit.parse_errors]


def test_file_within_every_budget_parses_in_560_frames_of_headroom():
    """The file at all three budgets peaks at about 505 parser frames, so
    560 frames above the caller hold it in full."""
    assert _parse_under_limit(FIXTURES / "nesting" / "within_budgets.sol",
                              560) == []


def test_stack_exhaustion_falls_back_to_one_fatal_error():
    """With 300 frames above the caller the file at the budgets exhausts the
    stack; the whole file is then one fatal error, not a traceback."""
    messages = _parse_under_limit(
        FIXTURES / "nesting" / "within_budgets.sol", 300)
    assert messages == ["nesting too deep to parse; file skipped"]


def test_file_within_every_budget_parses_without_the_stack_fallback():
    """119 nested `if`s around an emit whose argument nests 79
    parentheses around 99 `!` links: each budget (120 statements, 80
    expressions, 100 chain links) holds it, and so does the interpreter
    stack. The file parses with no error, and its emit is counted from
    the tree."""
    file = SourceFile.load(FIXTURES / "nesting" / "within_budgets.sol")
    unit = parse_file(file)
    assert unit.parse_errors == []
    assert len(emits_of(unit.contracts[0].functions[0])) == 1
    assert count_file_emits(file) == (1, "ast")
