import random

from emitlint.checks import run_checks
from emitlint.lexer import lex
from emitlint.nodes import (
    Assignment, Binary, Call, Conditional, ContractKind, DataLocation,
    EmitStmt, ExprStmt, Identifier, If, Literal, LiteralKind, LocalVarDecl,
    MemberAccess, Unary, Unparsed, While, walk_expr, walk_statements,
)
from emitlint.parser import has_fatal_errors, parse, parse_file
from emitlint.source import SourceFile

from helpers import (
    FIXTURES, emits_of, fixture_file, nodes_in, parsed,
    snippet_corpus, span_contains, span_text, spans_in, src, structural_eq,
)

RECEIPT_TEXT = fixture_file("client_receipt.sol").text


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
