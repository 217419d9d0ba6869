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
from typing import Iterable, Iterator, Optional

from .dataflow import _flow, has_call, kill_names, resolve_variable, writes
from .metrics import FileAnalysis
from .nodes import (
    Assignment, Block, Call, EmitStmt, Expr, FunctionDef, Identifier,
    IndexAccess, Literal, LiteralKind, MemberAccess, SourceUnit, Stmt,
    identifier_names, iter_emits, iter_functions, root_identifier,
    walk_function, walk_statements,
)
from .scan import LocStats
from .source import SourceFile, Span
from .symbols import LocationClass, ScopeTree, Symbol, build_symbols, resolve_at

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


def _threshold(value, what: str) -> Fraction:
    """value, a number or its decimal or ratio text, as a Fraction in
    (0, 1]; otherwise ValueError "<what> must be in (0, 1], not <value>"."""
    try:
        ratio = Fraction(str(value))
    except (ValueError, ZeroDivisionError):  # NaN and infinities included
        ratio = None
    if ratio is None or not 0 < ratio <= 1:
        raise ValueError(f"{what} must be in (0, 1], not {value!r}")
    return ratio


@dataclass
class CheckConfig:
    overuse_threshold: Fraction = Fraction(1, 10)
    enabled: frozenset[CheckId] = frozenset(CheckId)
    debug_event_form_b: bool = False

    def __post_init__(self):
        self.overuse_threshold = _threshold(self.overuse_threshold,
                                            "overuse threshold")
        self.enabled = frozenset(self.enabled)


def _sort_key(diag: Diagnostic):
    return (diag.file, diag.span.start_line, diag.span.start_col,
            diag.check_id.value, diag.message)


# ------------------------------------------------------- storage-read check

def _storage_reads(fn: FunctionDef, emits: Iterable[EmitStmt],
                   tree: ScopeTree, path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    flow = None  # started at the first storage read; most functions have none
    for emit in emits:
        facts = None
        for arg in emit.args:
            if not isinstance(arg, Identifier):
                continue
            sym = resolve_at(arg.name, arg.start, tree)
            if sym is None or sym.location_class != LocationClass.STORAGE:
                continue
            if facts is None:
                flow = flow or _flow(fn.body.stmts, {}, tree)
                facts = next((f for seen, f in flow if seen is emit), {})
            candidates = [f for f in facts.values() if f.storage_sym == sym]
            if not candidates:
                continue
            best = min(candidates, key=lambda f: f.memory_sym.decl_start)
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


def check_gas_storage_param(unit: SourceUnit, tree: ScopeTree,
                            path: str) -> list[Diagnostic]:
    """Emit arguments that read a storage-backed variable while an in-scope
    memory-class variable provably holds the same value."""
    return [diag for fn in iter_functions(unit)
            for diag in _storage_reads(fn, iter_emits(fn), tree, path)]


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

def _arg_names(emit: EmitStmt) -> set[str]:
    return {name for arg in emit.args for name in identifier_names(arg)}


def _operations(stmt: Stmt,
                tree: ScopeTree) -> Iterator[tuple[str, Symbol | None]]:
    """Each operation in stmt that rewrites or transfers with a variable,
    described, with the symbol it touches: an assignment to the variable,
    or its use as an argument (not the receiver) of a transfer-like member
    call."""
    for write, root in writes(stmt):
        if isinstance(write, Assignment):
            what = f"assignment to '{root.name}'"
        elif isinstance(write, Call) and \
                isinstance(write.callee, MemberAccess) and \
                write.callee.member in TRANSFER_LIKE_CALLEES and \
                root is not root_identifier(write.callee.base):
            what = f"{write.callee.member} call using '{root.name}'"
        else:
            continue
        yield what, resolve_at(root.name, root.start, tree)


def _placements(blocks: list[Block], tree: ScopeTree,
                path: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for block in blocks:
        # The emits still waiting for an operation on one of their
        # arguments' symbols, by symbol; each is reported at the first. The
        # block's last statement has no later one, so it never waits.
        waiting: dict[Symbol, list[EmitStmt]] = {}
        reported: set[int] = set()
        final = block.stmts[-1] if block.stmts else None
        for later in block.stmts:
            for hit, sym in _operations(later, tree) if waiting else ():
                for emit in waiting.pop(sym, ()):
                    if emit.start in reported:
                        continue
                    reported.add(emit.start)
                    message = (
                        f"emit {emit.event_name} comes before a later {hit} "
                        f"at line {later.span.start_line}; move the emit "
                        f"after the operation so the log records the final "
                        f"value"
                    )
                    diags.append(Diagnostic(CheckId.EMIT_BEFORE_OP,
                                            Severity.WARNING, path,
                                            emit.span, message))
            if isinstance(later, EmitStmt) and later is not final:
                for name in _arg_names(later):
                    sym = resolve_variable(name, later.start, tree)
                    if sym is not None:
                        waiting.setdefault(sym, []).append(later)
    return diags


def check_emit_before_op(fn: FunctionDef, tree: ScopeTree,
                         path: str) -> list[Diagnostic]:
    """Emits placed before a later statement in the same block that rewrites
    an emitted variable or transfers with it: the log records a value the
    operation is about to change."""
    return _placements(walk_function(fn).blocks, tree, path)


# ---------------------------------------------------------- redundancy check

def _arg_key(arg: Expr, emit: EmitStmt, tree: ScopeTree,
             file: SourceFile):
    if isinstance(arg, Identifier):
        sym = resolve_at(arg.name, emit.start, tree)
        if sym is not None:
            return ("sym", id(sym))
        return ("name", arg.name)
    if isinstance(arg, Literal):
        return ("lit", arg.text)
    return ("expr", "".join(file.text[arg.start:arg.end].split()))


def _included(subset: Counter, superset: Counter) -> bool:
    """Whether every argument key of subset is in superset, as many times."""
    return not subset - superset


def _redundancies(blocks: list[Block], tree: ScopeTree, path: str,
                  file: SourceFile) -> list[Diagnostic]:
    """REDUNDANT_EVENT over each block that holds two emits or more among its
    own statements; a pair can form in no other. One emit can include
    another only if both have arguments and share an argument key, so each
    pairable emit looks its partners up by key among the earlier ones: a
    superset in the intersection of its keys' posting lists, shortest
    first, and a subset under one of its keys, since each earlier emit is
    filed under one signature key, the one with the shortest posting list
    when it was filed. The candidates are tested in statement order, so the
    findings come in the order a test of every earlier emit would give."""
    diags: list[Diagnostic] = []
    for block in blocks:
        if sum(isinstance(stmt, EmitStmt) for stmt in block.stmts) < 2:
            continue
        # The pairable emits so far, and for each name the index of the last
        # statement since the first of them that may invalidate it.
        earlier = []
        last_kill: dict[str, int] = {}
        # By argument key, the positions in earlier of the emits holding
        # it, and of the emits filed under it.
        holding: dict[tuple, set[int]] = {}
        filed: dict[tuple, list[int]] = {}
        for j, second in enumerate(block.stmts):
            # An emit without arguments includes no other and is included in
            # none; one whose own arguments call or write may log a value no
            # other emit can repeat. Neither pairs.
            if not isinstance(second, EmitStmt) or not second.args or \
                    has_call(second) or kill_names(second):
                for nested in walk_statements(second) if earlier else ():
                    for name in kill_names(nested):
                        last_kill[name] = j
                continue
            second_args = Counter(_arg_key(arg, second, tree, file)
                                  for arg in second.args)
            second_names = _arg_names(second)
            keys = sorted(second_args,
                          key=lambda key: len(holding.get(key, ())))
            found = set.intersection(*(holding.get(key, set())
                                       for key in keys))
            found.update(*(filed.get(key, ()) for key in keys))
            for n in sorted(found):
                i, first, first_args, first_names = earlier[n]
                if _included(first_args, second_args):
                    subset, superset = first, second
                elif _included(second_args, first_args):
                    subset, superset = second, first
                else:
                    continue
                if any(last_kill.get(name, -1) > i
                       for name in first_names & second_names):
                    continue
                message = (
                    f"emit {subset.event_name} logs values that emit "
                    f"{superset.event_name} at line "
                    f"{superset.span.start_line} already records; the "
                    f"duplicate log costs gas"
                )
                diags.append(Diagnostic(CheckId.REDUNDANT_EVENT,
                                        Severity.INFO, path, subset.span,
                                        message))
            filed.setdefault(keys[0], []).append(len(earlier))
            for key in keys:
                holding.setdefault(key, set()).add(len(earlier))
            earlier.append((j, second, second_args, second_names))
    return diags


def check_redundant_event(fn: FunctionDef, tree: ScopeTree, path: str,
                          file: SourceFile) -> list[Diagnostic]:
    """Emit pairs in one block where one emit's arguments are wholly included
    in the other's, with no statement between them invalidating a shared
    argument and no call or write in either emit's own arguments. The
    included emit is reported."""
    return _redundancies(walk_function(fn).blocks, tree, path, file)


# --------------------------------------------------------- debug-form check

def _is_string_literal(arg: Expr) -> bool:
    return isinstance(arg, Literal) and arg.kind == LiteralKind.STRING


def _is_variable_arg(arg: Expr) -> bool:
    return isinstance(arg, (Identifier, MemberAccess, IndexAccess))


def _debug_forms(emits: Iterable[EmitStmt], cfg: CheckConfig,
                 path: str) -> list[Diagnostic]:
    """DEBUG_EVENT over one function's emits, given in source order."""
    diags: list[Diagnostic] = []
    by_name: dict[str, list[EmitStmt]] = defaultdict(list)
    for emit in emits:
        by_name[emit.event_name].append(emit)
        if not emit.args:
            shape = ("logs no values; empty events are a typical debug "
                     "leftover; delete it once debugging is done")
        elif len(emit.args) == 1 and _is_string_literal(emit.args[0]):
            shape = ("logs a single string literal, a typical debug "
                     "leftover; delete it once debugging is done")
        elif cfg.debug_event_form_b and \
                any(_is_string_literal(a) for a in emit.args) and \
                any(_is_variable_arg(a) for a in emit.args):
            shape = ("mixes variables with a string literal, a shape often "
                     "used for debug tracing")
        else:
            continue
        diags.append(Diagnostic(CheckId.DEBUG_EVENT, Severity.HINT, path,
                                emit.span, f"emit {emit.event_name} {shape}"))
    for name, same in by_name.items():
        if len(same) < 2:
            continue
        spans = [emit.span for emit in same]
        places = ", ".join(f"{s.start_line}:{s.start_col}" for s in spans)
        diags.append(Diagnostic(
            CheckId.DEBUG_EVENT, Severity.HINT, path, spans[0],
            f"event {name} is emitted {len(spans)} times in one function "
            f"(lines {places}), a pattern used to trace value changes "
            f"while debugging"))
    return diags


def check_debug_event(unit: SourceUnit, tree: ScopeTree, cfg: CheckConfig,
                      path: str) -> list[Diagnostic]:
    """Shapes typical of leftover debug logging: empty or string-only emits,
    optionally variable+string emits, and one event emitted repeatedly within
    a function."""
    return [diag for fn in iter_functions(unit)
            for diag in _debug_forms(iter_emits(fn), cfg, path)]


# -------------------------------------------------------------- orchestrator

@dataclass
class FileCheckResult:
    analysis: FileAnalysis
    tree: ScopeTree
    diagnostics: list[Diagnostic]


def run_checks(file: SourceFile,
               cfg: CheckConfig | None = None) -> FileCheckResult:
    """Analyze one file and run every enabled check, diagnostics sorted by
    position then check id. Each function's statements are walked once, and
    each check reads that walk's blocks or emits. The placement and
    redundancy checks work only where a finding can fire: no emit that ends
    its block is resolved for placement, and no block with fewer than two
    emits of its own is keyed for redundancy."""
    cfg = cfg or CheckConfig()
    enabled = cfg.enabled
    analysis = FileAnalysis.build(file)
    tree = build_symbols(analysis.unit)

    diags: list[Diagnostic] = []
    if CheckId.EVENT_OVERUSE in enabled:
        diags += check_overuse(analysis.loc, analysis.emit_count, cfg,
                               file.path)
    for walk in analysis.functions:
        if CheckId.GAS_STORAGE_PARAM in enabled:
            diags += _storage_reads(walk.fn, walk.emits, tree, file.path)
        if CheckId.EMIT_BEFORE_OP in enabled:
            diags += _placements(walk.blocks, tree, file.path)
        if CheckId.REDUNDANT_EVENT in enabled:
            diags += _redundancies(walk.blocks, tree, file.path, file)
        if CheckId.DEBUG_EVENT in enabled:
            diags += _debug_forms(walk.emits, cfg, file.path)
    diags.sort(key=_sort_key)
    return FileCheckResult(analysis, tree, diags)
