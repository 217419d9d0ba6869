import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

import emitlint
from emitlint import checks, dataflow
from emitlint.checks import (
    CheckConfig, CheckId, Severity, check_debug_event, check_emit_before_op,
    check_gas_storage_param, check_overuse, check_redundant_event, run_checks,
)
from emitlint.nodes import iter_functions
from emitlint.scan import LocStats

from helpers import (
    SpanCounts, bench_tree, fixture_file, front_end_inputs, parsed,
    reference_redundancies, reference_run_checks, snippet_corpus, span_text,
    src,
)


SETDELAY_TEXT = fixture_file("gas", "pos_01_setdelay.sol").text


def _gas(text):
    _, unit, tree = parsed(text)
    return check_gas_storage_param(unit, tree, "test.sol")


def _placement(text, fn_index=0):
    _, unit, tree = parsed(text)
    return check_emit_before_op(unit.contracts[0].functions[fn_index], tree,
                                "test.sol")


def _redundant(text, fn_index=0):
    file, unit, tree = parsed(text)
    return check_redundant_event(unit.contracts[0].functions[fn_index], tree,
                                 "test.sol", file)


def _debug(text, cfg=None):
    _, unit, tree = parsed(text)
    return check_debug_event(unit, tree, cfg or CheckConfig(), "test.sol")


# ------------------------------------------------------------- gas check

def test_gas_setdelay_single_warning_suggesting_param():
    diags = _gas(SETDELAY_TEXT)
    assert len(diags) == 1
    diag = diags[0]
    assert diag.check_id == CheckId.GAS_STORAGE_PARAM
    assert diag.severity == Severity.WARNING
    assert "800 gas" in diag.message
    assert diag.suggestion.replacement_text == "delay_"


def test_gas_suggestion_replace_span_covers_argument():
    file, unit, tree = parsed(SETDELAY_TEXT)
    diag = check_gas_storage_param(unit, tree, file.path)[0]
    assert span_text(file, diag.suggestion.replace_span) == "delay"


def test_gas_no_storage_args_no_diags():
    text = """contract C {
    event E(uint a, address b);
    function f(uint x) public {
        emit E(3, msg.sender);
    }
}
"""
    assert _gas(text) == []


@pytest.mark.parametrize("declaration", [
    "uint256 constant X = 5;", "uint256 immutable X = 5;"])
@pytest.mark.parametrize("inherited", [False, True])
def test_gas_constant_and_immutable_args_cost_no_sload(declaration,
                                                       inherited):
    """Neither kind is read with an Sload, so logging one where a local
    holds the same value is no finding; a plain state variable is one."""
    body = ("event E(uint256 v); function f() public { "
            "uint256 m = X; emit E(X); }")
    for decl, found in ((declaration, 0), ("uint256 X;", 1)):
        text = (f"contract B {{ {decl} }} contract C is B {{ {body} }}"
                if inherited else f"contract C {{ {decl} {body} }}")
        assert len(_gas(text)) == found, text


def test_gas_two_storage_args_two_diagnostics_on_one_emit():
    text = """contract C {
    uint public first;
    uint public second;
    event Pair(uint a, uint b);
    function f(uint a_, uint b_) public {
        first = a_;
        second = b_;
        emit Pair(first, second);
    }
}
"""
    diags = _gas(text)
    assert len(diags) == 2
    assert {d.suggestion.replacement_text for d in diags} == {"a_", "b_"}
    assert len({d.span for d in diags}) == 1  # same emit statement


def test_gas_suggestion_is_memory_class_and_backed_by_fact():
    """Suggestion safety: the named replacement is an in-scope memory-class
    variable equal to the storage variable at the emit."""
    from emitlint.dataflow import equalities_at
    from emitlint.symbols import LocationClass, resolve
    from helpers import in_scope_memory_symbols

    file, unit, tree = parsed(SETDELAY_TEXT)
    fn = unit.contracts[0].functions[0]
    from helpers import emits_of
    emit = emits_of(fn)[0]
    diag = check_gas_storage_param(unit, tree, file.path)[0]
    replacement = diag.suggestion.replacement_text
    in_scope = {s.name for s in in_scope_memory_symbols(emit.start, tree)}
    assert replacement in in_scope
    facts = equalities_at(emit, fn, tree)
    assert any(f.memory_sym.name == replacement for f in facts)
    assert resolve(replacement, emit.span,
                   tree).location_class == LocationClass.MEMORY


@pytest.mark.parametrize("params, body, suggestions", [
    ("", "uint[] storage ptr = data; uint[] memory copy = ptr; emit E(ptr);",
     ["copy"]),
    ("uint[] storage arr", "uint[] memory copy = arr; emit E(arr);",
     ["copy"]),
    ("", "uint[] storage ptr = data; emit E(ptr);", []),
])
def test_gas_storage_pointers_of_reference_type(params, body, suggestions):
    """A storage-located array, local or parameter, is read with an Sload
    like a state variable; a memory copy of it is the suggested argument,
    and with no copy there is no finding."""
    text = (f"contract C {{ uint[] data; event E(uint[] v); "
            f"function f({params}) internal {{ {body} }} }}")
    diags = [d for d in run_checks(src(text)).diagnostics
             if d.check_id == CheckId.GAS_STORAGE_PARAM]
    assert [d.suggestion.replacement_text for d in diags] == suggestions


# ---------------------------------------------------------- overuse check

def _loc(code):
    return LocStats(total_lines=code, code_lines=code, comment_lines=0,
                    blank_lines=0)


def test_overuse_flagged_above_threshold():
    diags = check_overuse(_loc(100), 11, CheckConfig(), "f.sol")
    assert len(diags) == 1
    assert diags[0].check_id == CheckId.EVENT_OVERUSE
    assert diags[0].severity == Severity.INFO
    assert "0.110" in diags[0].message


def test_overuse_not_flagged_at_or_below_threshold():
    assert check_overuse(_loc(100), 9, CheckConfig(), "f.sol") == []
    assert check_overuse(_loc(100), 10, CheckConfig(), "f.sol") == []


def test_overuse_zero_code_lines_not_flagged():
    assert check_overuse(_loc(0), 5, CheckConfig(), "f.sol") == []


def test_overuse_threshold_monotonicity():
    counts = [0, 3, 9, 10, 11, 25, 40]
    flagged_per_threshold = []
    for threshold in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        cfg = CheckConfig(overuse_threshold=threshold)
        flagged = sum(
            1 for c in counts if check_overuse(_loc(100), c, cfg, "f.sol"))
        flagged_per_threshold.append(flagged)
    assert flagged_per_threshold == sorted(flagged_per_threshold, reverse=True)


def test_config_validates_threshold():
    with pytest.raises(ValueError):
        CheckConfig(overuse_threshold=0)
    with pytest.raises(ValueError):
        CheckConfig(overuse_threshold=Fraction(3, 2))


@pytest.mark.parametrize("value", ["abc", 0, 2, True])
def test_a_bad_threshold_is_named_in_the_error(value):
    """A library caller gets the message the CLI gives, with the value;
    True is no number here, as in a config file."""
    with pytest.raises(ValueError) as info:
        CheckConfig(overuse_threshold=value)
    assert str(info.value) == \
        f"overuse threshold must be in (0, 1], not {value!r}"


def test_a_float_threshold_is_read_as_its_decimal_fraction():
    """0.25 becomes Fraction(1, 4) through its decimal text, not the
    binary value of the float."""
    assert CheckConfig(overuse_threshold=0.25).overuse_threshold == \
        Fraction(1, 4)
    assert CheckConfig(overuse_threshold=0.1).overuse_threshold == \
        Fraction(1, 10)


# -------------------------------------------------------- placement check

def test_emit_before_assignment_of_emitted_symbol():
    text = """contract C {
    event T(uint x);
    function f(uint x, uint y) public {
        emit T(x);
        x = y;
    }
}
"""
    diags = _placement(text)
    assert len(diags) == 1
    assert diags[0].check_id == CheckId.EMIT_BEFORE_OP
    assert "assignment to 'x'" in diags[0].message


def test_emit_after_assignment_is_fine():
    text = """contract C {
    event T(uint x);
    function f(uint x, uint y) public {
        x = y;
        emit T(x);
    }
}
"""
    assert _placement(text) == []


def test_disjoint_symbols_not_flagged():
    text = """contract C {
    event T(uint a);
    function f(uint a, uint b, uint c) public {
        emit T(a);
        b = c;
    }
}
"""
    assert _placement(text) == []


def test_emit_before_transfer_sharing_symbol():
    text = """contract C {
    event Paid(address to, uint amount);
    function f(address to, uint amount) public {
        emit Paid(to, amount);
        payable(to).transfer(amount);
    }
}
"""
    diags = _placement(text)
    assert len(diags) == 1
    assert "transfer" in diags[0].message


def test_transfer_receiver_is_not_an_operation_on_it():
    text = """contract C {
    event Paid(address to, uint amount);
    function f(address payable to, uint amount) public {
        emit Paid(to, 1);
        to.transfer(amount);
    }
}
"""
    assert _placement(text) == []


def test_one_warning_per_emit_even_with_two_later_ops():
    text = """contract C {
    event T(uint x);
    function f(uint x, uint y) public {
        emit T(x);
        x = y;
        x = y + 1;
    }
}
"""
    assert len(_placement(text)) == 1


def test_nested_block_ops_not_treated_as_same_block():
    text = """contract C {
    event T(uint x);
    function f(uint x, uint y, bool c) public {
        emit T(x);
        if (c) {
            x = y;
        }
    }
}
"""
    assert _placement(text) == []


# -------------------------------------------------------- redundancy check

def test_burn_included_in_transfer_flagged():
    text = """contract C {
    event Burn(address from, uint amount);
    event Transfer(address from, address to, uint amount);
    function f(address from, address to, uint amount) public {
        emit Burn(from, amount);
        emit Transfer(from, to, amount);
    }
}
"""
    diags = _redundant(text)
    assert len(diags) == 1
    assert diags[0].check_id == CheckId.REDUNDANT_EVENT
    assert diags[0].severity == Severity.INFO
    assert "Burn" in diags[0].message and "Transfer" in diags[0].message
    assert diags[0].span.start_line == 5  # the Burn emit


def test_single_emit_no_redundancy():
    text = """contract C {
    event E(uint v);
    function f(uint v) public {
        emit E(v);
    }
}
"""
    assert _redundant(text) == []


def test_kill_between_suppresses_redundancy():
    text = """contract C {
    event A(uint x);
    event B(uint x);
    function f(uint x) public {
        emit A(x);
        x = 1;
        emit B(x);
    }
}
"""
    assert _redundant(text) == []


def test_superset_later_subset_earlier_direction():
    text = """contract C {
    event Transfer(address from, address to, uint amount);
    event Burn(address from, uint amount);
    function f(address from, address to, uint amount) public {
        emit Transfer(from, to, amount);
        emit Burn(from, amount);
    }
}
"""
    diags = _redundant(text)
    assert len(diags) == 1
    assert diags[0].span.start_line == 6  # the subset emit (Burn)


def test_identical_emits_single_report():
    text = """contract C {
    event E(uint v);
    function f(uint v) public {
        emit E(v);
        emit E(v);
    }
}
"""
    diags = _redundant(text)
    assert len(diags) == 1


def test_empty_emit_not_reported_redundant():
    text = """contract C {
    event Ping();
    event E(uint v);
    function f(uint v) public {
        emit Ping();
        emit E(v);
    }
}
"""
    assert _redundant(text) == []


def test_literals_compared_textually():
    text = """contract C {
    event A(uint x, uint y);
    event B(uint x, uint y, uint z);
    function f(uint x) public {
        emit A(x, 7);
        emit B(x, 7, 9);
    }
}
"""
    assert len(_redundant(text)) == 1


_NONCE = """contract C {
    uint nonce;
    event A(uint x);
    event B(uint x, uint y);
    function next() internal returns (uint256) {
        nonce += 1;
        return nonce;
    }
    function f(uint v) public {
        %s
        %s
    }
}
"""


@pytest.mark.parametrize("first, second", [
    ("emit A(next());", "emit B(next(), v);"),
    ("emit A(v++);", "emit B(v++, v);"),
    ("emit A(v);", "emit B(v = 2, v);"),
    ("emit A(v);", "emit B(v, next());"),
])
def test_arguments_with_a_call_or_a_write_are_not_redundant(first, second):
    """Each `next()` returns a new value, and `v++` logs a different v each
    time, so neither emit repeats the other."""
    assert _redundant(_NONCE % (first, second), fn_index=1) == []


_SHARED = """contract C {
    uint[] a;
    event A(uint x);
    event B(uint x, uint y);
    function f(Pair memory s, uint i, uint z) public {
        %s
    }
}
"""


@pytest.mark.parametrize("body", [
    "emit A(s.y); s.y = 2; emit B(s.y, z);",
    "emit A(a[i]); a[i] = 5; emit B(a[i], z);",
    "emit A(z + 1); z = 3; emit B(z + 1, z);",
    "emit A(z); z = 3; emit B(z, 1);",
    "emit A(a.length); a.push(1); emit B(a.length, z);",
])
def test_a_write_to_any_shared_argument_name_between_suppresses(body):
    """Every identifier of a shared member, index or compound argument is
    guarded, not only bare-identifier arguments, and a member call writes
    its receiver."""
    assert _redundant(_SHARED % body) == []


def test_pure_emits_beside_an_effectful_one_still_pair():
    text = _NONCE % ("emit A(v); emit B(next(), 1);", "emit B(v, 1);")
    diags = _redundant(text, fn_index=1)
    assert [d.message.split()[1] for d in diags] == ["A"]


# ------------------------------------------------------------ debug check

def test_empty_event_hint():
    text = """contract C {
    event OrderStart();
    function f() public {
        emit OrderStart();
    }
}
"""
    diags = _debug(text)
    assert len(diags) == 1
    assert diags[0].severity == Severity.HINT
    assert "OrderStart" in diags[0].message


def test_single_string_literal_hint():
    text = """contract C {
    event Log(string note);
    function f() public {
        emit Log("got here");
    }
}
"""
    assert len(_debug(text)) == 1


def test_normal_emit_no_debug_hint():
    text = """contract C {
    event Transfer(address from, address to, uint amount);
    function f(address from, address to, uint amount) public {
        emit Transfer(from, to, amount);
    }
}
"""
    assert _debug(text) == []


def test_variable_plus_string_only_with_form_b():
    text = """contract C {
    event Trace(string tag, uint value);
    function f(uint value) public {
        emit Trace("value is", value);
    }
}
"""
    assert _debug(text) == []
    diags = _debug(text, CheckConfig(debug_event_form_b=True))
    assert len(diags) == 1


def test_repeated_event_in_one_function_hint():
    text = """contract C {
    event Probe(uint v);
    function f(uint v) public {
        emit Probe(v);
        v = v + 1;
        emit Probe(v);
    }
}
"""
    diags = _debug(text)
    assert len(diags) == 1
    assert "2 times" in diags[0].message
    assert "4:9" in diags[0].message and "6:9" in diags[0].message


def test_repeated_event_across_functions_not_flagged():
    text = """contract C {
    event Probe(uint v);
    function f(uint v) public {
        emit Probe(v);
    }
    function g(uint v) public {
        emit Probe(v);
    }
}
"""
    assert _debug(text) == []


# ----------------------------------------------------------- orchestration

def test_disabled_checks_emit_nothing():
    file = src(SETDELAY_TEXT, "setdelay.sol")
    cfg = CheckConfig(enabled=frozenset({CheckId.EVENT_OVERUSE}))
    result = run_checks(file, cfg)
    assert all(d.check_id == CheckId.EVENT_OVERUSE
               for d in result.diagnostics)
    cfg_none = CheckConfig(enabled=frozenset())
    assert run_checks(file, cfg_none).diagnostics == []


def test_diagnostics_sorted_and_deterministic():
    file = fixture_file("lint_tree", "a.sol")
    first = run_checks(file).diagnostics
    second = run_checks(file).diagnostics
    assert first == second
    keys = [(d.file, d.span.start_line, d.span.start_col, d.check_id.value)
            for d in first]
    assert keys == sorted(keys)


def test_run_checks_on_malformed_file_does_not_crash():
    file = fixture_file("robust", "broken.sol")
    result = run_checks(file)
    assert result.analysis.unit.parse_errors
    assert isinstance(result.diagnostics, list)


# ------------------------------------------------------------- work counts

def _work_inputs():
    files = [fixture_file("lint_tree", name) for name in ("a.sol", "b.sol")]
    files.append(fixture_file("realistic_token.sol"))
    for workload in ("project", "monolith"):
        files += bench_tree(workload, 1)
    return files


_QUOTED_POSITION = re.compile(r"\bline \d+|\b\d+:\d+\b")


def _reported_positions(result) -> int:
    """Positions the output can show: each diagnostic, suggestion and line
    number quoted in a message, and each parse or lex error."""
    count = len(result.analysis.unit.parse_errors)
    for diag in result.diagnostics:
        count += 1 + (diag.suggestion is not None)
        count += len(_QUOTED_POSITION.findall(diag.message))
    return count


def test_checks_convert_no_more_positions_than_they_report(monkeypatch):
    """Scopes, symbols, facts and lookups work on offsets, so `run_checks`
    converts an offset to a Span only for what reaches the output."""
    files = _work_inputs()
    assert len(files) > 20
    conversions = reported = diagnostics = 0
    for file in files:
        counts = SpanCounts(monkeypatch)
        result = run_checks(file)
        monkeypatch.undo()
        bound = _reported_positions(result)
        assert counts.conversions <= bound, (file.path, counts.conversions,
                                             bound)
        conversions += counts.conversions
        reported += bound
        diagnostics += len(result.diagnostics)
    assert diagnostics > 400
    assert conversions > 0.9 * reported, (conversions, reported)


def test_each_function_body_is_walked_once_per_run_checks(monkeypatch):
    """One statement walk per function feeds the emit count and every
    check; checks that look further (the redundancy kill scan, the
    dataflow pass) start below the function body."""
    walks = Counter()
    modules = [m for name, m in sys.modules.items()
               if name.startswith("emitlint.")
               and hasattr(m, "walk_statements")]
    real = emitlint.nodes.walk_statements

    def recording(root):
        walks[id(root)] += 1
        return real(root)

    for module in modules:
        monkeypatch.setattr(module, "walk_statements", recording)
    for file in _work_inputs():
        walks.clear()
        result = run_checks(file)
        bodies = [fn.body for fn in iter_functions(result.analysis.unit)
                  if fn.body is not None]
        assert bodies, file.path
        assert [walks[id(b)] for b in bodies] == [1] * len(bodies), file.path


def test_forward_passes_match_the_reference_rules():
    """`run_checks` diagnostics, with the default config and with debug
    form B, equal those of the rules that re-walked per emit or per pair
    (`reference_run_checks`). Inputs: the front-end inputs, which hold the
    robustness sweep and both perfbench lint trees and history sides at
    seeds 1-5, and 300 snippets."""
    files = front_end_inputs() + snippet_corpus(300)
    total = 0
    for cfg in (CheckConfig(), CheckConfig(debug_event_form_b=True)):
        for file in files:
            diags = run_checks(file, cfg).diagnostics
            assert diags == reference_run_checks(file, cfg), \
                repr(file.text[:200])
            total += len(diags)
    assert total > 5000, total


def _storage_copy_pairs(n: int):
    body = "".join("        m = total;\n        emit E(total);\n"
                   for _ in range(n))
    return src("contract C {\n    uint total;\n    event E(uint v);\n"
               "    function f() public {\n        uint m;\n" + body +
               "    }\n}\n")


def test_rule_work_grows_linearly_with_the_emits(monkeypatch):
    """One function of n `m = total; emit E(total);` pairs: the write walks
    the rules and the equality flow make grow with n, not with the pairs
    of emits or the statements between them. Every emit pairs with every
    other, so the findings still grow with n squared."""
    calls = 0
    real = dataflow.writes

    def counting(stmt):
        nonlocal calls
        calls += 1
        return real(stmt)

    monkeypatch.setattr(dataflow, "writes", counting)
    monkeypatch.setattr(checks, "writes", counting)
    counts, findings = [], []
    for n in (40, 80, 160):
        calls = 0
        findings.append(len(run_checks(_storage_copy_pairs(n)).diagnostics))
        counts.append(calls)
    assert findings == [822, 3242, 12882]
    assert all(later <= 2.2 * earlier
               for earlier, later in zip(counts, counts[1:])), counts


def _counting(monkeypatch, module, name):
    """Wrap module.name so each call adds one to the returned counter's
    "calls"."""
    counter = Counter()
    real = getattr(module, name)

    def counting(*args):
        counter["calls"] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return counter


def test_a_block_with_one_emit_keys_no_arguments(monkeypatch):
    """REDUNDANT_EVENT skips a block with fewer than two emits among its own
    statements, since no pair can form there: no argument is keyed. The
    block with two emits is keyed and reported."""
    one = ("contract C {\n    uint total;\n    event E(uint v);\n"
           "    function f(uint a) public {\n        total = a;\n"
           "        if (a > 1) {\n            emit E(a);\n        }\n"
           "        emit E(total);\n    }\n}\n")
    two = one.replace("emit E(total);", "emit E(total);\n        emit E(total);")
    keyed = _counting(monkeypatch, checks, "_arg_key")
    assert _redundant(one) == []
    assert keyed["calls"] == 0
    assert len(_redundant(two)) == 1
    assert keyed["calls"] == 2


def test_a_block_final_emit_resolves_no_names_for_placement(monkeypatch):
    """EMIT_BEFORE_OP resolves no argument of an emit that ends its block:
    no later operation can report it. The same emit before the write is
    resolved and reported."""
    text = ("contract C {\n    uint total;\n    event E(uint v);\n"
            "    function f(uint a) public {\n%s    }\n}\n")
    resolved = _counting(monkeypatch, checks, "resolve_variable")
    assert _placement(text % "        total = a;\n        emit E(total);\n") \
        == []
    assert resolved["calls"] == 0
    diags = _placement(text % "        emit E(total);\n        total = a;\n")
    assert [d.check_id for d in diags] == [CheckId.EMIT_BEFORE_OP]
    assert resolved["calls"] > 0


def _emit_run(n: int, args: str):
    """One function of n emits in one block; args is formatted with i."""
    body = "".join(f"        emit E({args.format(i=i)});\n" for i in range(n))
    return src("contract C {\n    uint total;\n    event E(uint v);\n"
               "    function f() public {\n" + body + "    }\n}\n")


@pytest.mark.parametrize("args", ["{i}", "total, {i}"])
def test_redundancy_subset_tests_grow_linearly_with_the_emits(monkeypatch,
                                                              args):
    """One block of n distinct emits, `emit E(i);` or `emit E(total, i);`:
    no emit includes another, and the argument-key index finds each emit's
    candidates without testing every earlier emit, so the subset tests grow
    with n, not with n squared."""
    tested = _counting(monkeypatch, checks, "_included")
    counts = []
    for n in (500, 1_000, 2_000):
        tested.clear()
        assert not any(d.check_id == CheckId.REDUNDANT_EVENT
                       for d in run_checks(_emit_run(n, args)).diagnostics)
        counts.append(tested["calls"])
    assert all(count <= 2 * n
               for count, n in zip(counts, (500, 1_000, 2_000))), counts


_MIXED_ARGS = ("a", "b", "total", "1", "a + 1", "s.y", "a")
_MIXED_OTHER = ("a = 2;", "g(b);", "s.y = a;", "uint c = a;", "total++;",
                "if (a > b) { emit E(a); emit E(a, b); }")


def _mixed_blocks(rng: random.Random):
    """A function whose long block mixes emits of repeated argument keys
    with kills, calls and nested blocks."""
    stmts = []
    for _ in range(rng.randint(5, 40)):
        if rng.random() < 0.7:
            args = ", ".join(rng.choice(_MIXED_ARGS)
                             for _ in range(rng.randint(0, 3)))
            stmts.append(f"emit {rng.choice('EF')}({args});")
        else:
            stmts.append(rng.choice(_MIXED_OTHER))
    body = "".join(f"        {stmt}\n" for stmt in stmts)
    return src("contract C {\n    struct S { uint y; }\n    S s;\n"
               "    uint total;\n    event E(uint v);\n"
               "    function g(uint v) internal {}\n"
               "    function f(uint a, uint b) public {\n" + body +
               "    }\n}\n")


def test_redundancy_findings_come_in_the_pairwise_order():
    """check_redundant_event lists its findings unsorted, in the order a
    test of each emit against every earlier one gives (the later emit
    first, then the earlier), on the inputs of the test above and on 300
    generated blocks of repeated argument keys."""
    rng = random.Random(25)
    files = front_end_inputs() + snippet_corpus(300) + \
        [_mixed_blocks(rng) for _ in range(300)]
    total = 0
    for file in files:
        result = run_checks(file)
        for walk in result.analysis.functions:
            got = check_redundant_event(walk.fn, result.tree, file.path, file)
            assert got == reference_redundancies(walk.blocks, result.tree,
                                                 file.path, file), \
                repr(file.text[:200])
            total += len(got)
    assert total > 2_000, total
