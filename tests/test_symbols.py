from emitlint.nodes import DataLocation
from emitlint.symbols import (
    BUILTINS, LocationClass, SymbolKind, is_reference_type,
    location_class_for, resolve,
)

from helpers import emits_of, in_scope_memory_symbols, parsed, snippet_corpus


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


def test_duplicate_state_var_warns_first_wins():
    text = """contract C {
    uint public twice;
    uint public twice;
}
"""
    _, unit, tree = parsed(text)
    assert len(tree.warnings) == 1
    assert tree.warnings[0].name == "twice"
    scope = tree.scopes[1]
    assert sum(1 for s in scope.symbols if s.name == "twice") == 1


def test_in_scope_memory_symbols_setdelay():
    _, unit, tree = parsed(SETDELAY_TEXT)
    emit = _first_emit(unit)
    names = [s.name for s in in_scope_memory_symbols(emit.span, tree)]
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
    assert in_scope_memory_symbols(emit.span, tree) == []


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
    names = [s.name for s in in_scope_memory_symbols(emit.span, tree)]
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
    names = [s.name for s in in_scope_memory_symbols(emit.span, tree)]
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
                    for sym in in_scope_memory_symbols(emit.span, tree):
                        scope = tree.scopes[sym.scope_id]
                        assert scope.span.contains_point(
                            emit.span.start_line, emit.span.start_col)


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
