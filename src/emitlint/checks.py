"""Lint rules for event-logging defect patterns.

Severity encodes confidence: the storage-read gas finding and stale-value
placement finding are warnings, density and redundancy findings are
informational, and the leftover-debug patterns are hints.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

from .dataflow import equalities_at, kill_names
from .metrics import FileAnalysis
from .nodes import (
    Assignment, Block, Call, EmitStmt, Expr, FunctionDef, Identifier,
    IndexAccess, Literal, LiteralKind, MemberAccess, SourceUnit, Stmt,
    identifier_names, iter_emits, iter_functions, root_identifier,
    walk_statements, walk_stmt_expressions,
)
from .scan import LocStats
from .source import SourceFile, Span
from .symbols import (
    LocationClass, ScopeTree, Symbol, SymbolKind, build_symbols, resolve,
)

SLOAD_GAS = 800

TRANSFER_LIKE_CALLEES = frozenset({"transfer", "send", "call", "delegatecall"})

_FILE_SPAN = Span(1, 1, 1, 1)


class CheckId(Enum):
    GAS_STORAGE_PARAM = "GAS_STORAGE_PARAM"
    EVENT_OVERUSE = "EVENT_OVERUSE"
    EMIT_BEFORE_OP = "EMIT_BEFORE_OP"
    REDUNDANT_EVENT = "REDUNDANT_EVENT"
    DEBUG_EVENT = "DEBUG_EVENT"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"
    HINT = "hint"


@dataclass(frozen=True)
class Suggestion:
    replace_span: Span
    replacement_text: str


@dataclass(frozen=True)
class Diagnostic:
    check_id: CheckId
    severity: Severity
    file: str
    span: Span
    message: str
    suggestion: Optional[Suggestion] = None


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass
class CheckConfig:
    overuse_threshold: Fraction = Fraction(1, 10)
    enabled: frozenset[CheckId] = frozenset(CheckId)
    debug_event_form_b: bool = False

    def __post_init__(self):
        self.overuse_threshold = _as_fraction(self.overuse_threshold)
        if not 0 < self.overuse_threshold <= 1:
            raise ValueError("overuse threshold must be in (0, 1]")
        self.enabled = frozenset(self.enabled)


def _sort_key(diag: Diagnostic):
    return (diag.file, diag.span.start_line, diag.span.start_col,
            diag.check_id.value, diag.message)


def iter_blocks(fn: FunctionDef) -> Iterator[Block]:
    if fn.body is None:
        return
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, Block):
            yield stmt


# ------------------------------------------------------- storage-read check

def check_gas_storage_param(unit: SourceUnit, tree: ScopeTree,
                            path: str) -> list[Diagnostic]:
    """Emit arguments that read a storage-backed variable while an in-scope
    memory-class variable provably holds the same value."""
    diags: list[Diagnostic] = []
    for fn in iter_functions(unit):
        for emit in iter_emits(fn):
            facts = None
            for arg in emit.args:
                if not isinstance(arg, Identifier):
                    continue
                sym = resolve(arg.name, arg.span, tree)
                if sym is None or sym.location_class != LocationClass.STORAGE:
                    continue
                if facts is None:
                    facts = equalities_at(emit, fn, tree)
                candidates = [f for f in facts if f.storage_sym == sym]
                if not candidates:
                    continue
                best = min(candidates,
                           key=lambda f: f.memory_sym.decl_span.start)
                mem = best.memory_sym.name
                message = (
                    f"emit {emit.event_name} logs storage variable "
                    f"'{sym.name}', which costs an extra Sload "
                    f"(~{SLOAD_GAS} gas); in-scope memory variable '{mem}' "
                    f"holds the same value here"
                )
                diags.append(Diagnostic(
                    CheckId.GAS_STORAGE_PARAM, Severity.WARNING, path,
                    emit.span, message, Suggestion(arg.span, mem)))
    return diags


# ------------------------------------------------------------ overuse check

def check_overuse(loc_stats: LocStats, emit_count: int, cfg: CheckConfig,
                  path: str) -> list[Diagnostic]:
    """File-level density finding: emits per code line above the threshold."""
    if loc_stats.code_lines <= 0:
        return []
    ratio = Fraction(emit_count, loc_stats.code_lines)
    if ratio <= cfg.overuse_threshold:
        return []
    threshold = cfg.overuse_threshold
    message = (
        f"{emit_count} emit statements across {loc_stats.code_lines} code "
        f"lines ({float(ratio):.3f} per line) exceeds the "
        f"{float(threshold):g} emits-per-line threshold; consider folding "
        f"related events into one with more parameters"
    )
    return [Diagnostic(CheckId.EVENT_OVERUSE, Severity.INFO, path,
                       _FILE_SPAN, message)]


# ---------------------------------------------------------- placement check

def _emit_arg_symbols(emit: EmitStmt, tree: ScopeTree) -> set[Symbol]:
    syms: set[Symbol] = set()
    for arg in emit.args:
        for name in identifier_names(arg):
            sym = resolve(name, emit.span, tree)
            if sym is not None and sym.kind in (
                    SymbolKind.STATE_VAR, SymbolKind.PARAM,
                    SymbolKind.LOCAL_VAR):
                syms.add(sym)
    return syms


def _operation_touching(stmt: Stmt, emit_syms: set[Symbol],
                        tree: ScopeTree) -> str | None:
    """Description of the first operation in stmt that rewrites or transfers
    with one of the emitted symbols, if any."""
    for expr in walk_stmt_expressions(stmt):
        if isinstance(expr, Assignment):
            root = root_identifier(expr.lhs)
            if root is None:
                continue
            sym = resolve(root.name, root.span, tree)
            if sym in emit_syms:
                return f"assignment to '{root.name}'"
        elif isinstance(expr, Call) and isinstance(expr.callee, MemberAccess) \
                and expr.callee.member in TRANSFER_LIKE_CALLEES:
            for arg in expr.args:
                for name in identifier_names(arg):
                    sym = resolve(name, expr.span, tree)
                    if sym in emit_syms:
                        return f"{expr.callee.member} call using '{name}'"
    return None


def check_emit_before_op(fn: FunctionDef, tree: ScopeTree,
                         path: str) -> list[Diagnostic]:
    """Emits placed before a later statement in the same block that rewrites
    an emitted variable or transfers with it: the log records a value the
    operation is about to change."""
    diags: list[Diagnostic] = []
    for block in iter_blocks(fn):
        for idx, stmt in enumerate(block.stmts):
            if not isinstance(stmt, EmitStmt):
                continue
            emit_syms = _emit_arg_symbols(stmt, tree)
            if not emit_syms:
                continue
            for later in block.stmts[idx + 1:]:
                hit = _operation_touching(later, emit_syms, tree)
                if hit is None:
                    continue
                message = (
                    f"emit {stmt.event_name} comes before a later {hit} at "
                    f"line {later.span.start_line}; move the emit after the "
                    f"operation so the log records the final value"
                )
                diags.append(Diagnostic(CheckId.EMIT_BEFORE_OP,
                                        Severity.WARNING, path, stmt.span,
                                        message))
                break
    return diags


# ---------------------------------------------------------- redundancy check

def _arg_key(arg: Expr, emit: EmitStmt, tree: ScopeTree,
             file: SourceFile):
    if isinstance(arg, Identifier):
        sym = resolve(arg.name, emit.span, tree)
        if sym is not None:
            return ("sym", id(sym))
        return ("name", arg.name)
    if isinstance(arg, Literal):
        return ("lit", arg.text)
    return ("expr", "".join(file.span_text(arg.span).split()))


def _arg_multiset(emit: EmitStmt, tree: ScopeTree,
                  file: SourceFile) -> Counter:
    return Counter(_arg_key(arg, emit, tree, file) for arg in emit.args)


def _arg_names(emit: EmitStmt) -> set[str]:
    names: set[str] = set()
    for arg in emit.args:
        if isinstance(arg, Identifier):
            names.add(arg.name)
    return names


def check_redundant_event(fn: FunctionDef, tree: ScopeTree, path: str,
                          file: SourceFile) -> list[Diagnostic]:
    """Emit pairs in one block where one emit's arguments are wholly included
    in the other's, with no statement between them invalidating a shared
    argument. The included emit is reported."""
    diags: list[Diagnostic] = []
    for block in iter_blocks(fn):
        emits = [(i, s) for i, s in enumerate(block.stmts)
                 if isinstance(s, EmitStmt)]
        for (i, first), (j, second) in combinations(emits, 2):
            first_args = _arg_multiset(first, tree, file)
            second_args = _arg_multiset(second, tree, file)
            if first.args and not (first_args - second_args):
                subset, superset = first, second
            elif second.args and not (second_args - first_args):
                subset, superset = second, first
            else:
                continue
            shared = _arg_names(first) & _arg_names(second)
            killed: set[str] = set()
            for between in block.stmts[i + 1:j]:
                for nested in walk_statements(between):
                    killed |= kill_names(nested)
            if shared & killed:
                continue
            message = (
                f"emit {subset.event_name} logs values that emit "
                f"{superset.event_name} at line {superset.span.start_line} "
                f"already records; the duplicate log costs gas"
            )
            diags.append(Diagnostic(CheckId.REDUNDANT_EVENT, Severity.INFO,
                                    path, subset.span, message))
    return diags


# --------------------------------------------------------- debug-form check

def _is_string_literal(arg: Expr) -> bool:
    return isinstance(arg, Literal) and arg.kind == LiteralKind.STRING


def _is_variable_arg(arg: Expr) -> bool:
    return isinstance(arg, (Identifier, MemberAccess, IndexAccess))


def check_debug_event(unit: SourceUnit, tree: ScopeTree, cfg: CheckConfig,
                      path: str) -> list[Diagnostic]:
    """Shapes typical of leftover debug logging: empty or string-only emits,
    optionally variable+string emits, and one event emitted repeatedly within
    a function."""
    diags: list[Diagnostic] = []
    for fn in iter_functions(unit):
        by_name: dict[str, list[EmitStmt]] = defaultdict(list)
        for emit in iter_emits(fn):
            by_name[emit.event_name].append(emit)
            if not emit.args:
                diags.append(Diagnostic(
                    CheckId.DEBUG_EVENT, Severity.HINT, path, emit.span,
                    f"emit {emit.event_name} logs no values; empty events "
                    f"are a typical debug leftover; delete it once "
                    f"debugging is done"))
            elif len(emit.args) == 1 and _is_string_literal(emit.args[0]):
                diags.append(Diagnostic(
                    CheckId.DEBUG_EVENT, Severity.HINT, path, emit.span,
                    f"emit {emit.event_name} logs a single string literal, "
                    f"a typical debug leftover; delete it once debugging "
                    f"is done"))
            elif cfg.debug_event_form_b and \
                    any(_is_string_literal(a) for a in emit.args) and \
                    any(_is_variable_arg(a) for a in emit.args):
                diags.append(Diagnostic(
                    CheckId.DEBUG_EVENT, Severity.HINT, path, emit.span,
                    f"emit {emit.event_name} mixes variables with a string "
                    f"literal, a shape often used for debug tracing"))
        for name, emits in by_name.items():
            spans = sorted({e.span for e in emits},
                           key=lambda s: (s.start_line, s.start_col))
            if len(spans) < 2:
                continue
            places = ", ".join(f"{s.start_line}:{s.start_col}" for s in spans)
            diags.append(Diagnostic(
                CheckId.DEBUG_EVENT, Severity.HINT, path, spans[0],
                f"event {name} is emitted {len(spans)} times in one function "
                f"(lines {places}), a pattern used to trace value changes "
                f"while debugging"))
    return diags


# -------------------------------------------------------------- orchestrator

@dataclass
class FileCheckResult:
    analysis: FileAnalysis
    tree: ScopeTree
    diagnostics: list[Diagnostic]


def run_checks(file: SourceFile,
               cfg: CheckConfig | None = None) -> FileCheckResult:
    """Analyze one file and run every enabled check, diagnostics sorted by
    position then check id."""
    cfg = cfg or CheckConfig()
    analysis = FileAnalysis.build(file)
    unit = analysis.unit
    tree = build_symbols(unit)

    diags: list[Diagnostic] = []
    if CheckId.GAS_STORAGE_PARAM in cfg.enabled:
        diags += check_gas_storage_param(unit, tree, file.path)
    if CheckId.EVENT_OVERUSE in cfg.enabled:
        diags += check_overuse(analysis.loc, analysis.emit_count, cfg,
                               file.path)
    for fn in iter_functions(unit):
        if CheckId.EMIT_BEFORE_OP in cfg.enabled:
            diags += check_emit_before_op(fn, tree, file.path)
        if CheckId.REDUNDANT_EVENT in cfg.enabled:
            diags += check_redundant_event(fn, tree, file.path, file)
    if CheckId.DEBUG_EVENT in cfg.enabled:
        diags += check_debug_event(unit, tree, cfg, file.path)
    diags.sort(key=_sort_key)
    return FileCheckResult(analysis, tree, diags)
