"""Traced replay: spans around the benchmark's calls into each layer.

Nothing inside emitlint is instrumented. The traced run calls ``cli.main``
once per command, then replays each command's pipeline stage by stage
through the modules' public functions, timing each call. Spans are kept in
memory and written out once at the end.

Span kinds:
  main   one ``cli.main`` call;
  stage  a call the command itself makes, in the same order; the stage spans
         of a replay add up to the command's work, so
         ``1 - sum(stage) / sum(main)`` is the time no layer accounts for;
  probe  an extra call that isolates a step a stage does internally (the
         line diff, the lexing and regex scans inside churn, the dataflow
         query inside the storage-read check); probes repeat work and are
         left out of the attribution sum.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from emitlint import checks, cli, dataflow, evolution, lexer, metrics, \
    parser, scan, symbols
from emitlint.nodes import Identifier, ParseError, Unparsed, walk_statements
from emitlint.source import SourceFile

CHECK_STAGES = (
    ("GAS_STORAGE_PARAM", "checks.gas_storage_param"),
    ("EVENT_OVERUSE", "checks.event_overuse"),
    ("EMIT_BEFORE_OP", "checks.emit_before_op"),
    ("REDUNDANT_EVENT", "checks.redundant_event"),
    ("DEBUG_EVENT", "checks.debug_event"),
)

# Spans whose summed seconds are reported as "<name>_s".
TIMED = (
    "lexer.lex", "scan.count_loc", "parser.parse", "symbols.build",
    *(name for _, name in CHECK_STAGES), "dataflow.equalities",
    "metrics.count_file_emits", "scan.extract_emits_regex",
    "evolution.churn", "evolution.pair_emit_changes",
    "evolution.classify_independence", "evolution.diff_lines",
    "source.load", "cli.collect", "cli.load_manifest", "cli.main",
)
COUNTS = (
    "lexer.tokens", "scan.code_lines", "parser.stmts", "parser.parse_errors",
    "parser.unparsed_stmts", "parser.fallback_files", "symbols.scopes",
    "symbols.symbols", *(f"checks.findings.{cid}" for cid, _ in CHECK_STAGES),
    "dataflow.facts", "metrics.emits", "scan.regex_matches",
    "evolution.changes", "evolution.classify_independence_calls",
    "evolution.diff_ops",
)


class Tracer:
    """In-memory spans (id, name, start, end, parent, run, kind) and
    counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, kind: str = "stage"):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               self.run_id, kind))

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def kind_total(self, kind: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[6] == kind)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "run", "kind")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _parse(tr: Tracer, file: SourceFile):
    """parser.parse_file, split into its lexer and parser stages."""
    with tr.span("lexer.lex"):
        lexed = lexer.lex(file)
    tr.counts["lexer.tokens"] += len(lexed.tokens)
    with tr.span("parser.parse"):
        unit = parser.parse(lexed.tokens, file)
        unit.parse_errors[:0] = [ParseError(e.kind, e.span, "error")
                                 for e in lexed.errors]
    return unit


def _count_loc(tr: Tracer, file: SourceFile):
    with tr.span("scan.count_loc"):
        loc = scan.count_loc(file)
    tr.counts["scan.code_lines"] += loc.code_lines
    return loc


def replay_lint(tr: Tracer, tree: str) -> Counter:
    """run_lint's work: collect, then run_checks per file, stage by stage.
    Returns the findings per check id."""
    cfg = checks.CheckConfig()
    findings: Counter = Counter()
    with tr.span("replay.lint", "replay"):
        with tr.span("cli.collect"):
            files = cli.collect_source_files([tree], [])
        for file in files:
            unit = _parse(tr, file)
            with tr.span("symbols.build"):
                tree_ = symbols.build_symbols(unit)
            loc = _count_loc(tr, file)
            with tr.span("metrics.count_file_emits"):
                emit_count, _ = metrics.count_file_emits(file, unit)
            fns = list(checks.iter_functions(unit))
            with tr.span("checks.gas_storage_param"):
                diags = checks.check_gas_storage_param(unit, tree_, file.path)
            with tr.span("checks.event_overuse"):
                diags += checks.check_overuse(loc, emit_count, cfg, file.path)
            with tr.span("checks.emit_before_op"):
                for fn in fns:
                    diags += checks.check_emit_before_op(fn, tree_, file.path)
            with tr.span("checks.redundant_event"):
                for fn in fns:
                    diags += checks.check_redundant_event(fn, tree_,
                                                          file.path, file)
            with tr.span("checks.debug_event"):
                diags += checks.check_debug_event(unit, tree_, cfg, file.path)
            findings.update(d.check_id.value for d in diags)
            _count_unit(tr, unit, tree_)
            _probe_dataflow(tr, fns, tree_)
        for file in files:
            with tr.span("source.load", "probe"):
                SourceFile.load(file.path)
    for cid, _ in CHECK_STAGES:
        tr.counts[f"checks.findings.{cid}"] += findings[cid]
    return findings


def _count_unit(tr: Tracer, unit, tree_) -> None:
    stmts = [s for fn in checks.iter_functions(unit) if fn.body is not None
             for s in walk_statements(fn.body)]
    tr.counts["parser.stmts"] += len(stmts)
    tr.counts["parser.unparsed_stmts"] += sum(
        1 for s in stmts if isinstance(s, Unparsed))
    errors = sum(1 for e in unit.parse_errors if e.severity == "error")
    tr.counts["parser.parse_errors"] += errors
    tr.counts["parser.fallback_files"] += 1 if parser.has_fatal_errors(unit) \
        else 0
    tr.counts["symbols.scopes"] += len(tree_.scopes)
    tr.counts["symbols.symbols"] += sum(len(s.symbols) for s in tree_.scopes)


def _probe_dataflow(tr: Tracer, fns, tree_) -> None:
    """The equality queries check_gas_storage_param makes: one per emit
    with a storage-backed identifier argument."""
    for fn in fns:
        for emit in checks.iter_emits(fn):
            if not any(
                    isinstance(arg, Identifier) and
                    (sym := symbols.resolve(arg.name, arg.span, tree_))
                    is not None and
                    sym.location_class == symbols.LocationClass.STORAGE
                    for arg in emit.args):
                continue
            with tr.span("dataflow.equalities", "probe"):
                facts = dataflow.equalities_at(emit, fn, tree_)
            tr.counts["dataflow.facts"] += len(facts)


def replay_metrics(tr: Tracer, tree: str) -> tuple[int, int]:
    """compute_metrics' work per file. Returns (emits, code lines)."""
    emits = code_lines = 0
    with tr.span("replay.metrics", "replay"):
        with tr.span("cli.collect"):
            files = cli.collect_source_files([tree], [])
        for file in files:
            loc = _count_loc(tr, file)
            unit = _parse(tr, file)
            with tr.span("metrics.count_file_emits"):
                count, _ = metrics.count_file_emits(file, unit)
            emits += count
            code_lines += loc.code_lines
    tr.counts["metrics.emits"] += emits
    return emits, code_lines


def replay_diff(tr: Tracer, manifest: str) -> list[tuple]:
    """run_diff's work per revision, then probes of the line diff and of
    the per-file scans that churn and independence repeat. Returns
    (revision id, churn, change count) per revision."""
    result = []
    with tr.span("replay.diff", "replay"):
        with tr.span("cli.load_manifest"):
            revisions, _ = cli.load_manifest(manifest)
        for rev in revisions:
            with tr.span("evolution.pair_emit_changes"):
                changes = evolution.pair_emit_changes(rev)
            tr.counts["evolution.changes"] += len(changes)
            for change in changes:
                with tr.span("evolution.classify_independence"):
                    change.independence = evolution.classify_independence(
                        rev, change)
                tr.counts["evolution.classify_independence_calls"] += 1
            with tr.span("evolution.churn"):
                c = evolution.churn(rev)
            result.append((rev.id, [c.churned_loc, c.total_loc,
                                    c.churned_emits, c.total_emits],
                           len(changes)))
        peak = 0
        for rev in revisions:
            for pair in rev.file_pairs:
                with tr.span("evolution.diff_lines", "probe"):
                    diff = evolution.diff_lines(pair.before, pair.after)
                tr.counts["evolution.diff_ops"] += len(diff.ops)
                tracemalloc.start()
                try:
                    evolution.diff_lines(pair.before, pair.after)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                for file in (pair.before, pair.after):
                    if file is None:
                        continue
                    with tr.span("lexer.lex", "probe"):
                        tokens = lexer.lex(file).tokens
                    tr.counts["lexer.tokens"] += len(tokens)
                    with tr.span("scan.count_loc", "probe"):
                        loc = scan.count_loc(file)
                    tr.counts["scan.code_lines"] += loc.code_lines
                    with tr.span("scan.extract_emits_regex", "probe"):
                        matches = scan.extract_emits_regex(file)
                    tr.counts["scan.regex_matches"] += len(matches)
    tr.counts["evolution.diff_peak_bytes"] = peak
    return result


def layer_metrics(tr: Tracer, untraced_main_s: float,
                  stage_scale: float = 1.0) -> dict:
    """Every per-layer metric of the traced run, with its unit. stage_scale
    brings the stage spans to the host speed of the cli.main spans."""
    out = {}
    for name in TIMED:
        out[f"{name}_s"] = (tr.total(name), "s")
    for name in COUNTS:
        out[name] = (tr.counts[name], "count")
    out["evolution.diff_peak_mb"] = (
        tr.counts["evolution.diff_peak_bytes"] / 2 ** 20, "MB")
    main_s = tr.total("cli.main")
    stage_s = tr.kind_total("stage") * stage_scale
    out["trace.unattributed_frac"] = (
        1 - stage_s / main_s if main_s else 0.0, "ratio")
    out["trace.overhead_s"] = (main_s - untraced_main_s, "s")
    return out
