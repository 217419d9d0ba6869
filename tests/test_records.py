"""The records lint builds per declaration and per finding are plain slots
dataclasses: no frozen set-up in `__init__`, no per-instance `__dict__`,
and the `==`, `hash` and `repr` they had as frozen records."""

import pytest

from emitlint.checks import (
    CheckId, Diagnostic, Severity, Suggestion, run_checks,
)
from emitlint.dataflow import EqualityFact
from emitlint.source import SourceFile, Span
from emitlint.symbols import LocationClass, Symbol, SymbolKind

from helpers import fixture_file

_TEXT = "contract C { uint x; }\n"
_SPAN_REPR = "Span(start_line=1, start_col=2, end_line=3, end_col=4)"
_SYMBOL_REPR = (
    "Symbol(name='x', kind=<SymbolKind.STATE_VAR: 'StateVar'>, "
    "location_class=<LocationClass.STORAGE: 'StorageClass'>, "
    "decl_start=13, decl_end=20, scope_id=1)")
_MEMORY_REPR = (
    "Symbol(name='y', kind=<SymbolKind.LOCAL_VAR: 'LocalVar'>, "
    "location_class=<LocationClass.MEMORY: 'MemoryClass'>, "
    "decl_start=30, decl_end=36, scope_id=2)")
_SUGGESTION_REPR = (
    f"Suggestion(replace_span={_SPAN_REPR}, replacement_text='y')")


def _records(file: SourceFile) -> dict:
    """One record of each type, the symbols and facts declared in file."""
    span = Span(1, 2, 3, 4)
    storage = Symbol("x", SymbolKind.STATE_VAR, LocationClass.STORAGE,
                     13, 20, 1, file)
    memory = Symbol("y", SymbolKind.LOCAL_VAR, LocationClass.MEMORY,
                    30, 36, 2, file)
    suggestion = Suggestion(span, "y")
    return {
        "span": span,
        "symbol": storage,
        "suggestion": suggestion,
        "diagnostic": Diagnostic(CheckId.GAS_STORAGE_PARAM, Severity.WARNING,
                                 "a.sol", span, "m", suggestion),
        "fact": EqualityFact(storage, memory, 40, 46, file),
    }


_REPRS = {
    "span": _SPAN_REPR,
    "symbol": _SYMBOL_REPR,
    "suggestion": _SUGGESTION_REPR,
    "diagnostic": (
        "Diagnostic(check_id=<CheckId.GAS_STORAGE_PARAM: "
        "'GAS_STORAGE_PARAM'>, severity=<Severity.WARNING: 'warning'>, "
        f"file='a.sol', span={_SPAN_REPR}, message='m', "
        f"suggestion={_SUGGESTION_REPR})"),
    "fact": (f"EqualityFact(storage_sym={_SYMBOL_REPR}, "
             f"memory_sym={_MEMORY_REPR}, start=40, end=46)"),
}


@pytest.mark.parametrize("kind", sorted(_REPRS))
def test_record_repr_is_pinned(kind):
    record = _records(SourceFile.from_text("a.sol", _TEXT))[kind]
    assert repr(record) == _REPRS[kind]


@pytest.mark.parametrize("kind", sorted(_REPRS))
def test_equal_records_hash_equally_and_collapse_in_a_set(kind):
    """Two records built from equal values, each declared in its own
    `SourceFile` object, are `==`, hash alike and make one set element;
    `file` (a `SourceFile`) takes no part in `==`, `hash` or `repr`."""
    one = _records(SourceFile.from_text("a.sol", _TEXT))[kind]
    other = _records(SourceFile.from_text("b.sol", "// other\n"))[kind]
    assert one is not other
    assert one == other and hash(one) == hash(other)
    assert len({one, other}) == 1
    assert repr(one) == repr(other)


def test_lint_records_hold_no_instance_dict():
    """Symbols, scopes, spans, diagnostics and function walks keep their
    fields in slots: the records lint builds by the thousand carry no
    per-instance `__dict__`."""
    result = run_checks(fixture_file("gas", "pos_01_setdelay.sol"))
    scopes = result.tree.scopes
    symbols = [sym for scope in scopes for sym in scope.symbols]
    diagnostics = result.diagnostics
    walks = result.analysis.functions
    assert scopes and symbols and diagnostics and walks
    records = [*scopes, *symbols, *diagnostics, *walks]
    records += [diag.span for diag in diagnostics]
    assert not any(hasattr(record, "__dict__") for record in records)
