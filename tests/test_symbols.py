import bisect
import math
import random
import sys

import pytest

from emitlint import symbols
from emitlint.checks import run_checks
from emitlint.nodes import DataLocation, EmitStmt, Identifier
from emitlint.parser import has_fatal_errors, parse_file
from emitlint.source import SourceFile, Span
from emitlint.symbols import (
    BUILTINS, LocationClass, Scope, ScopeTree, SymbolKind, build_symbols,
    is_reference_type, location_class_for, resolve, resolve_at,
)

from helpers import (
    FIXTURES, bench_tree, emits_of, in_scope_memory_symbols, nodes_in, parsed,
    reference_resolve_at, reference_run_checks, reference_scope_at,
    snippet_corpus, span_contains, src, sweep_inputs,
)


SETDELAY_TEXT = """contract Timelock {
    uint public delay;

    event DelaySet(uint delay);

    function setDelay(uint delay_) public {
        delay = delay_;
        emit DelaySet(delay);
    }
}
"""


def _first_emit(unit):
    return emits_of(unit.contracts[0].functions[0])[0]


def test_state_var_is_storage_param_is_memory():
    _, unit, tree = parsed(SETDELAY_TEXT)
    emit = _first_emit(unit)
    state = resolve("delay", emit.span, tree)
    assert state.kind == SymbolKind.STATE_VAR
    assert state.location_class == LocationClass.STORAGE
    param = resolve("delay_", emit.span, tree)
    assert param.kind == SymbolKind.PARAM
    assert param.location_class == LocationClass.MEMORY


def test_inner_declaration_shadows_param():
    text = """contract C {
    function f(uint x) public {
        x = 1;
        {
            uint x = 2;
            x = 3;
        }
    }
}
"""
    _, unit, tree = parsed(text)
    fn = unit.contracts[0].functions[0]
    outer_use = fn.body.stmts[0].expr.lhs
    inner_block = fn.body.stmts[1]
    inner_use = inner_block.stmts[1].expr.lhs
    outer_sym = resolve("x", outer_use.span, tree)
    inner_sym = resolve("x", inner_use.span, tree)
    assert outer_sym.kind == SymbolKind.PARAM
    assert inner_sym.kind == SymbolKind.LOCAL_VAR
    assert inner_sym != outer_sym


def test_storage_pointer_param_is_storage_class():
    text = """contract C {
    function g(uint[] storage a) internal {
        a[0] = 1;
    }
}
"""
    _, unit, tree = parsed(text)
    fn = unit.contracts[0].functions[0]
    use = fn.body.stmts[0]
    sym = resolve("a", use.span, tree)
    assert sym.kind == SymbolKind.PARAM
    assert sym.location_class == LocationClass.STORAGE


def test_memory_reference_param_is_memory_class():
    text = """contract C {
    function g(uint[] memory a, bytes calldata b) external {
        a[0] = 1;
    }
}
"""
    _, unit, tree = parsed(text)
    use = unit.contracts[0].functions[0].body.stmts[0]
    assert resolve("a", use.span, tree).location_class == LocationClass.MEMORY
    assert resolve("b", use.span, tree).location_class == LocationClass.MEMORY


def test_builtins_resolve_not_applicable():
    _, unit, tree = parsed(SETDELAY_TEXT)
    emit = _first_emit(unit)
    for name in ("msg", "block", "tx", "this", "address"):
        sym = resolve(name, emit.span, tree)
        assert sym is BUILTINS[name]
        assert sym.location_class == LocationClass.NOT_APPLICABLE


def test_a_builtin_declaration_span_is_empty():
    """A builtin has no file, so its declaration span is all zeros."""
    assert BUILTINS["msg"].file is None
    assert BUILTINS["msg"].decl_span == Span(0, 0, 0, 0)


def test_use_before_declaration_is_unresolved():
    text = """contract C {
    function f() public {
        y = later;
        uint later = 1;
    }
}
"""
    _, unit, tree = parsed(text)
    use = unit.contracts[0].functions[0].body.stmts[0].expr.rhs
    assert resolve("later", use.span, tree) is None


def test_event_and_function_names_not_applicable():
    _, unit, tree = parsed(SETDELAY_TEXT)
    emit = _first_emit(unit)
    event_sym = resolve("DelaySet", emit.span, tree)
    assert event_sym.kind == SymbolKind.EVENT_NAME
    assert event_sym.location_class == LocationClass.NOT_APPLICABLE
    fn_sym = resolve("setDelay", emit.span, tree)
    assert fn_sym.kind == SymbolKind.FUNCTION_NAME


def test_inherited_state_vars_visible_in_child():
    text = """contract Base {
    uint public shared;
}
contract Child is Base {
    event E(uint v);
    function f(uint v) public {
        shared = v;
        emit E(shared);
    }
}
"""
    _, unit, tree = parsed(text)
    emit = emits_of(unit.contracts[1].functions[0])[0]
    sym = resolve("shared", emit.span, tree)
    assert sym is not None
    assert sym.kind == SymbolKind.STATE_VAR
    assert sym.location_class == LocationClass.STORAGE


def test_constant_and_immutable_state_vars_are_not_storage():
    """A constant or immutable is no storage slot, in its own contract and
    where a derived contract inherits it; a plain state variable is."""
    text = """contract Base {
    uint constant LIMIT = 5;
    uint plain;
}
contract Child is Base {
    address immutable owner;
    event E(uint v, address a);
    function f() public {
        emit E(LIMIT + plain, owner);
    }
}
"""
    _, unit, tree = parsed(text)
    emit = emits_of(unit.contracts[1].functions[0])[0]
    classes = {name: resolve(name, emit.span, tree).location_class
               for name in ("LIMIT", "plain", "owner")}
    assert classes == {"LIMIT": LocationClass.NOT_APPLICABLE,
                       "plain": LocationClass.STORAGE,
                       "owner": LocationClass.NOT_APPLICABLE}


def test_derived_state_var_shadows_the_base_one():
    text = """contract Base {
    uint public shared;
}
contract Child is Base {
    uint shared;
    event E(uint v);
    function f() public {
        emit E(shared);
    }
}
"""
    _, unit, tree = parsed(text)
    emit = emits_of(unit.contracts[1].functions[0])[0]
    sym = resolve("shared", emit.span, tree)
    assert sym.decl_span.start_line == 5  # Child's declaration
    assert tree.warnings == []
    scope = tree.scopes[sym.scope_id]
    assert sum(1 for s in scope.symbols if s.name == "shared") == 1


def test_duplicate_state_var_warns_first_wins():
    text = """contract C {
    uint public twice;
    uint public twice;
}
"""
    _, unit, tree = parsed(text)
    assert len(tree.warnings) == 1
    assert tree.warnings[0].symbol.name == "twice"
    scope = tree.scopes[1]
    assert sum(1 for s in scope.symbols if s.name == "twice") == 1


def test_one_duplicate_rule_for_every_kind_but_function_names():
    """A second declaration of a name and kind in one scope is skipped with
    a warning. Overloads share a function name, and names of other kinds
    may repeat it; a base's variable is imported only when the derived
    contract declares no such name, so no base raises a warning."""
    text = """contract A {
    uint shared;
    uint onlyA;
}
contract B {
    uint shared;
    uint onlyB;
}
contract C is A, B {
    uint shared;
    uint twice;
    uint twice;
    event Touch(uint v);
    function Touch() public {}
    function Touch(uint v) public {}
}
"""
    _, _, tree = parsed(text)
    scope = tree.scopes[3]
    assert [(s.name, s.kind) for s in scope.symbols] == [
        ("shared", SymbolKind.STATE_VAR), ("twice", SymbolKind.STATE_VAR),
        ("onlyA", SymbolKind.STATE_VAR), ("onlyB", SymbolKind.STATE_VAR),
        ("Touch", SymbolKind.EVENT_NAME), ("Touch", SymbolKind.FUNCTION_NAME),
        ("Touch", SymbolKind.FUNCTION_NAME),
    ]
    lines = [s.decl_span.start_line for s in scope.symbols]
    assert lines == [10, 11, 3, 7, 13, 14, 15]
    [warning] = tree.warnings
    assert (warning.symbol.name, warning.symbol.kind) == \
        ("twice", SymbolKind.STATE_VAR)
    assert (warning.symbol.decl_span.start_line,
            warning.original.decl_span.start_line) == (12, 11)
    assert warning.original is scope.symbols[1]
    for scope in tree.scopes:
        assert {name: [s for s in scope.symbols if s.name == name]
                for name in {s.name for s in scope.symbols}} == scope.named


def test_scope_symbols_list_each_name_in_one_run():
    """`Scope.symbols` is a view of `Scope.named`: names in the order each
    was first declared, each name's declarations in declaration order, so
    declarations of one name that are not next to each other come out
    together. `named` takes part in `==`."""
    text = """contract C {
    function f(uint a) public {}
    function g() public {}
    function f(bytes memory b) public {}
}
"""
    _, _, tree = parsed(text)
    scope = tree.scopes[1]
    assert [(s.name, s.decl_span.start_line) for s in scope.symbols] == [
        ("f", 2), ("f", 4), ("g", 3)]
    other = parsed(text)[2].scopes[1]
    assert other == scope
    other.named.pop("g")
    assert other != scope
    assert "named=" in repr(scope)


def test_in_scope_memory_symbols_setdelay():
    _, unit, tree = parsed(SETDELAY_TEXT)
    emit = _first_emit(unit)
    names = [s.name for s in in_scope_memory_symbols(emit.start, tree)]
    assert names == ["delay_"]


def test_in_scope_memory_symbols_empty_function():
    text = """contract C {
    event E();
    function f() public {
        emit E();
    }
}
"""
    _, unit, tree = parsed(text)
    emit = _first_emit(unit)
    assert in_scope_memory_symbols(emit.start, tree) == []


def test_in_scope_memory_symbols_nested_inner_first():
    text = """contract C {
    event E(uint v);
    function f(uint outer) public {
        uint middle = outer;
        {
            uint inner = middle;
            emit E(inner);
        }
    }
}
"""
    _, unit, tree = parsed(text)
    emit = emits_of(unit.contracts[0].functions[0])[0]
    names = [s.name for s in in_scope_memory_symbols(emit.start, tree)]
    assert names == ["inner", "middle", "outer"]


def test_in_scope_excludes_locals_declared_after_point():
    text = """contract C {
    event E(uint v);
    function f(uint a) public {
        uint before = a;
        emit E(a);
        uint after_ = a;
    }
}
"""
    _, unit, tree = parsed(text)
    emit = emits_of(unit.contracts[0].functions[0])[0]
    names = [s.name for s in in_scope_memory_symbols(emit.start, tree)]
    assert names == ["before", "a"]


def test_location_class_totality_on_corpus():
    """Every symbol has exactly one location class; state vars are always
    storage; params and locals without an explicit storage location are
    memory-class."""
    for file in snippet_corpus(15):
        _, unit, tree = parsed(file.text, file.path)
        for scope in tree.scopes:
            for sym in scope.symbols:
                assert sym.location_class in LocationClass
                if sym.kind == SymbolKind.STATE_VAR:
                    assert sym.location_class == LocationClass.STORAGE
                if sym.kind in (SymbolKind.PARAM, SymbolKind.LOCAL_VAR):
                    assert sym.location_class in (LocationClass.STORAGE,
                                                  LocationClass.MEMORY)
                if sym.kind in (SymbolKind.EVENT_NAME,
                                SymbolKind.FUNCTION_NAME,
                                SymbolKind.CONTRACT_NAME):
                    assert sym.location_class == LocationClass.NOT_APPLICABLE


def test_in_scope_subset_of_containing_scopes():
    for file in snippet_corpus(10):
        _, unit, tree = parsed(file.text, file.path)
        for contract in unit.contracts:
            for fn in contract.functions:
                for emit in emits_of(fn):
                    for sym in in_scope_memory_symbols(emit.start, tree):
                        scope = tree.scopes[sym.scope_id]
                        assert scope.start <= emit.start < scope.end


def test_is_reference_type():
    assert is_reference_type("uint[]")
    assert is_reference_type("mapping(address => uint)")
    assert is_reference_type("string")
    assert is_reference_type("bytes")
    assert not is_reference_type("uint256")
    assert not is_reference_type("bytes32")
    assert not is_reference_type("address payable")
    assert not is_reference_type("MyEnum")


def test_location_class_for_table():
    """Parameters and locals; state variables are classed by the builder
    (test_constant_and_immutable_state_vars_are_not_storage)."""
    assert location_class_for("uint[]",
                              DataLocation.STORAGE) == LocationClass.STORAGE
    assert location_class_for("uint[]",
                              DataLocation.MEMORY) == LocationClass.MEMORY
    assert location_class_for("uint",
                              DataLocation.DEFAULT) == LocationClass.MEMORY
    assert location_class_for("bytes",
                              DataLocation.CALLDATA) == LocationClass.MEMORY


def _record_lookups(monkeypatch, files):
    """Run every check on each file; returns the check results and
    (tree, offset) for every scope lookup the checks made. The reference
    rules run too, since they resolve every emit's arguments, where the
    forward passes skip the emits that cannot be reported."""
    lookup = ScopeTree.scope_at
    calls = []

    def recording(tree, offset):
        calls.append((tree, offset))
        return lookup(tree, offset)

    with monkeypatch.context() as patch:
        patch.setattr(ScopeTree, "scope_at", recording)
        results = [run_checks(file) for file in files]
        for file in files:
            reference_run_checks(file)
    return results, calls


# Line-level damage: block and branch headers with and without braces,
# stray braces, and deleted or repeated lines.
_HEADERS = (
    "for (uint i = 0; i < a; i++)", "for (uint i = 0; i < a; i++) {",
    "for (;;) {", "if (a > b)", "if (a > b) {", "} else {", "else", "else {",
    "while (a > 0) {", "unchecked {",
)
_MUTATIONS = ("delete", "repeat", "open_brace", "close_brace", "header")


def _mutated_sources(bases: list[str], count: int, seed: int):
    rng = random.Random(seed)
    used = set()
    texts = []
    for _ in range(count):
        lines = rng.choice(bases).splitlines()
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(_MUTATIONS)
            used.add(kind)
            i = rng.randrange(len(lines) + 1)
            if kind == "delete" and i < len(lines):
                del lines[i]
            elif kind == "repeat" and i < len(lines):
                lines.insert(i, lines[i])
            elif kind == "header":
                lines.insert(i, rng.choice(_HEADERS))
            elif kind != "delete":
                brace = "{" if kind == "open_brace" else "}"
                if i < len(lines) and rng.random() < 0.5:
                    line = lines[i]
                    j = rng.randrange(len(line) + 1)
                    lines[i] = line[:j] + brace + line[j:]
                else:
                    lines.insert(i, brace)
        texts.append("\n".join(lines) + "\n")
    assert used == set(_MUTATIONS)
    return texts


def test_descent_finds_the_scope_the_linear_scan_finds(monkeypatch):
    """At every offset the checks look up, on clean and damaged files, the
    edge-table lookup returns the very scope that the linear scan over line
    and column spans does."""
    files = [SourceFile.load(p) for p in sorted(FIXTURES.rglob("*.sol"))]
    files += snippet_corpus()
    mutated = _mutated_sources([f.text for f in files], 2_400, seed=5)
    files += [src(text) for text in mutated]
    results, calls = _record_lookups(monkeypatch, files)
    depths = set()
    for tree, offset in calls:
        line, col = tree.scopes[0].file.offset_to_linecol(offset)
        found = tree.scope_at(offset)
        assert found is reference_scope_at(tree, line, col), (line, col)
        depths.add(found.depth)
    assert len(calls) > 5_000
    assert max(depths) >= 6
    for result in results:
        tree = result.tree
        for scope in tree.scopes:
            # Scope boundaries too: a start is inside, an end is not.
            for offset, point in ((scope.start, scope.span.start),
                                  (scope.end, scope.span.end)):
                assert tree.scope_at(offset) is \
                    reference_scope_at(tree, *point), point
        # What the edge table relies on: each scope lies inside its parent,
        # siblings are disjoint and in source order, and so the edges never
        # decrease.
        last_child = {}
        for scope in tree.scopes[1:]:
            parent = tree.scopes[scope.parent_id]
            assert span_contains(parent.span, scope.span)
            previous = last_child.get(parent.scope_id)
            assert previous is None or previous.end <= scope.start
            last_child[parent.scope_id] = scope
        assert tree.edges == sorted(tree.edges)
    assert sum(has_fatal_errors(result.analysis.unit)
               for result in results[-len(mutated):]) > 500


def _wide_contract(n_functions: int) -> SourceFile:
    lines = ["contract Wide {", "    uint total;", "    event E(uint a, uint b);"]
    for i in range(n_functions):
        lines += [
            f"    function f{i}(uint a, uint b) public {{",
            "        uint c = a;",
            "        if (a > b) {",
            "            for (uint i = 0; i < a; i++) {",
            "                { emit E(a, c); }",
            "            }",
            "        } else {",
            "            total = b;",
            "            emit E(b, total);",
            "        }",
            "    }",
        ]
    lines.append("}")
    return src("\n".join(lines) + "\n", f"wide_{n_functions}.sol")


def _deep_contract(depth: int) -> SourceFile:
    """One function whose emits sit inside depth nested blocks, and after
    the blocks close."""
    return src("contract Deep {\n    uint total;\n    event E(uint a, uint b);\n"
               "    function f(uint a) public {\n        "
               + "{ " * depth + "emit E(a, total); total = a; " + "} " * depth
               + "\n        emit E(a, total);\n    }\n}\n",
               f"deep_{depth}.sol")


def test_lookup_reads_log_many_offsets_at_any_depth(monkeypatch):
    """Offsets read per lookup (the entries its bisection reads plus every
    read of a scope's start or end) stay within 2 x log2(2 x scopes) + 2,
    however deep the offset lies: in wide contracts of 100 and 1,000
    functions, and inside and after 100 nested blocks."""
    compared = 0

    class CountedReads:
        def __init__(self, items):
            self.items = items

        def __len__(self):
            return len(self.items)

        def __getitem__(self, index):
            nonlocal compared
            compared += 1
            return self.items[index]

    def counting_attribute(scope, name):
        nonlocal compared
        if name in ("start", "end"):
            compared += 1
        return object.__getattribute__(scope, name)

    def counting_bisect(items, point):
        return bisect.bisect_right(CountedReads(items), point)

    scopes, depths = {}, {}
    for file in (_wide_contract(100), _wide_contract(1_000),
                 _deep_contract(100)):
        _, calls = _record_lookups(monkeypatch, [file])
        tree = calls[0][0]
        offsets = [offset for _, offset in calls]
        offsets += [scope.start for scope in tree.scopes]
        offsets += [scope.end for scope in tree.scopes]
        scopes[file.path] = len(tree.scopes)
        depths[file.path] = {tree.scope_at(offset).depth
                             for _, offset in calls}
        bound = 2 * math.ceil(math.log2(2 * len(tree.scopes))) + 2
        counts = []
        with monkeypatch.context() as patch:
            patch.setattr(Scope, "__getattribute__", counting_attribute)
            patch.setattr(symbols, "bisect_right", counting_bisect)
            for offset in offsets:
                compared = 0
                tree.scope_at(offset)
                counts.append(compared)
        assert max(counts) <= bound, (file.path, max(counts), bound)
    assert scopes["wide_1000.sol"] > 5_000
    # The checks look up offsets inside all 100 blocks (the function's body
    # is at depth 3) and after they close.
    assert depths["deep_100.sol"] == {3, 103}


def _locals_shape(n: int) -> SourceFile:
    """One function of n locals, each then emitted and reassigned."""
    body = "".join(f"        uint v{i} = {i};\n        emit E(v{i});\n"
                   f"        v{i} = 0;\n" for i in range(n))
    return src("contract C {\n    event E(uint v);\n"
               "    function f() public {\n" + body + "    }\n}\n",
               f"locals_{n}.sol")


def _state_vars_shape(n: int) -> SourceFile:
    """A contract of n state variables deriving from a base of n, with
    every derived variable emitted in one function."""
    base = "".join(f"    uint b{i};\n" for i in range(n))
    derived = "".join(f"    uint d{i};\n" for i in range(n))
    emits = "".join(f"        emit E(d{i});\n" for i in range(n))
    return src("contract Base {\n" + base + "}\ncontract Derived is Base {\n"
               + derived + "    event E(uint v);\n    function f() public {\n"
               + emits + "    }\n}\n", f"state_vars_{n}.sol")


def _symbol_line_events(file: SourceFile) -> int:
    """Lines run in symbols.py while every check runs on the file."""
    events = 0

    def count_lines(frame, event, arg):
        nonlocal events
        events += event == "line"
        return count_lines

    def in_symbols(frame, event, arg):
        if frame.f_code.co_filename == symbols.__file__:
            return count_lines
        return None

    previous = sys.gettrace()
    sys.settrace(in_symbols)
    try:
        run_checks(file)
    finally:
        sys.settrace(previous)
    return events


@pytest.mark.parametrize("shape", [_locals_shape, _state_vars_shape],
                         ids=["locals", "state_vars"])
def test_symbol_work_grows_linearly_with_declarations(shape):
    """Building the table and every lookup the checks make read only the
    looked-up name's declarations, so the lines run in symbols.py at most
    about double when the declarations double. A scan of each scope's
    whole symbol list nearly quadruples them."""
    counts = [_symbol_line_events(shape(250))]
    for n in (500, 1_000):
        counts.append(_symbol_line_events(shape(n)))
        assert counts[-1] <= 2.2 * counts[-2], counts


def _declared_names(tree: ScopeTree) -> list[set[str]]:
    """By scope id, the names declared in each scope and in every scope it
    holds. Scopes are in preorder, so walking them backwards adds each
    scope's names to its parent after all of its own descendants'."""
    names = [set(scope.named) for scope in tree.scopes]
    for scope in reversed(tree.scopes[1:]):
        names[scope.parent_id] |= names[scope.scope_id]
    return names


def test_resolution_finds_what_the_scan_of_each_enclosing_scope_finds():
    """`resolve_at` returns the very symbol that the scan over each enclosing
    scope's whole symbol list returns: at every identifier, and at every
    emit's start for its event name, each identifier in its arguments and
    each name declared anywhere in its function, so locals declared later
    or in other blocks are asked for too. The inputs are the robustness
    sweep (every fixture, the snippets, token soup and mutated files) and
    the seed-1 perfbench lint trees."""
    files = [src(text) for text in sweep_inputs()]
    files += bench_tree("project", 1) + bench_tree("monolith", 1)
    lookups = resolved = passed_over = 0
    for file in files:
        unit = parse_file(file)
        tree = build_symbols(unit)
        declared = _declared_names(tree)
        for node in nodes_in(unit):
            if isinstance(node, Identifier):
                names = {node.name}
            elif isinstance(node, EmitStmt):
                function = tree.scope_at(node.start)
                while function.depth > 2:
                    function = tree.scopes[function.parent_id]
                names = declared[function.scope_id] | {node.event_name} | {
                    ident.name for ident in nodes_in(node.args)
                    if isinstance(ident, Identifier)}
            else:
                continue
            for name in sorted(names):
                found = resolve_at(name, node.start, tree)
                assert found is reference_resolve_at(name, node.start, tree), \
                    (file.path, name, node.start)
                lookups += 1
                resolved += found is not None
                passed_over += any(
                    s.kind == SymbolKind.LOCAL_VAR and s.decl_start > node.start
                    for s in tree.scope_at(node.start).named.get(name, ()))
    assert lookups > 20_000
    assert resolved > lookups // 2
    assert passed_over > 0
