import bisect
import math
import random

from emitlint import symbols
from emitlint.checks import run_checks
from emitlint.nodes import DataLocation
from emitlint.parser import has_fatal_errors
from emitlint.source import SourceFile
from emitlint.symbols import (
    BUILTINS, LocationClass, Scope, ScopeTree, SymbolKind, is_reference_type,
    location_class_for, resolve,
)

from helpers import (
    FIXTURES, emits_of, in_scope_memory_symbols, parsed, reference_run_checks,
    reference_scope_at, snippet_corpus, span_contains, src,
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
    assert location_class_for(SymbolKind.STATE_VAR, "uint",
                              DataLocation.DEFAULT) == LocationClass.STORAGE
    assert location_class_for(SymbolKind.PARAM, "uint[]",
                              DataLocation.STORAGE) == LocationClass.STORAGE
    assert location_class_for(SymbolKind.PARAM, "uint[]",
                              DataLocation.MEMORY) == LocationClass.MEMORY
    assert location_class_for(SymbolKind.PARAM, "uint",
                              DataLocation.DEFAULT) == LocationClass.MEMORY
    assert location_class_for(SymbolKind.LOCAL_VAR, "bytes",
                              DataLocation.CALLDATA) == LocationClass.MEMORY
    assert location_class_for(SymbolKind.EVENT_NAME, "",
                              DataLocation.DEFAULT) == LocationClass.NOT_APPLICABLE


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
    offset descent returns the very scope that the linear scan over line
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
            # What the descent relies on: children lie inside their parent
            # and siblings are disjoint, in source order.
            assert all(span_contains(scope.span, child.span)
                       for child in scope.children)
            assert all(a.end <= b.start for a, b in
                       zip(scope.children, scope.children[1:]))
            assert scope.child_starts == [c.start for c in scope.children]
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


def test_lookup_work_grows_with_depth_not_scope_count(monkeypatch):
    """Offsets compared per lookup (bisection reads plus every read of a
    scope's start or end) stay within depth x log2(children), however many
    scopes the file has."""
    compared = 0

    class CountedReads(list):
        def __getitem__(self, index):
            nonlocal compared
            compared += 1
            return list.__getitem__(self, index)

    def counting_attribute(scope, name):
        nonlocal compared
        if name in ("start", "end"):
            compared += 1
        return object.__getattribute__(scope, name)

    def counting_bisect(starts, point):
        return bisect.bisect_right(CountedReads(starts), point)

    per_lookup = {}
    for n_functions in (100, 1_000):
        _, calls = _record_lookups(monkeypatch, [_wide_contract(n_functions)])
        tree = calls[0][0]
        assert len(tree.scopes) > 5 * n_functions
        levels = 1 + max(scope.depth for scope in tree.scopes)
        widest = max(len(scope.children) for scope in tree.scopes)
        assert widest == n_functions
        counts = []
        with monkeypatch.context() as patch:
            patch.setattr(Scope, "__getattribute__", counting_attribute)
            patch.setattr(symbols, "bisect_right", counting_bisect)
            for _, offset in calls:
                compared = 0
                tree.scope_at(offset)
                counts.append(compared)
        assert max(counts) <= 2 * levels * math.log2(widest)
        per_lookup[n_functions] = sum(counts) / len(counts)
    assert per_lookup[1_000] < 2 * per_lookup[100]
