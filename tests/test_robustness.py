"""Seeded robustness sweep over token soup, mutated fixtures and mutated
snippets: every analysis runs on every input without raising, reports spans
inside the file, keeps each AST node inside its parent, gives the same output
twice, and on a parse with no errors
counts as many emits from the AST as the textual matcher finds outside
comments and strings."""

import gc

from emitlint.checks import run_checks
from emitlint.cli import load_manifest
from emitlint.evolution import FilePair, Revision, analyze_revision
from emitlint.metrics import compute_metrics
from emitlint.scan import extract_emits_regex
from emitlint.source import SourceFile, Span

from helpers import (
    FIXTURES, child_nodes, count_ast_emits, nodes_in, spans_in, src,
    sweep_inputs,
)
from test_evolution import _DIFFERENTIAL_REVISIONS


def _inside(span: Span, file: SourceFile) -> bool:
    if not (1 <= span.start_line <= span.end_line <= len(file.line_starts)):
        return False
    lo = file.linecol_to_offset(span.start_line, span.start_col)
    hi = file.linecol_to_offset(span.end_line, span.end_col)
    return (0 <= lo <= hi <= len(file.text)
            and file.offset_to_linecol(lo) == span.start
            and file.offset_to_linecol(hi) == span.end)


def _analyze(before: SourceFile, after: SourceFile):
    checked = run_checks(after)
    metrics = compute_metrics([after])
    report = analyze_revision(
        Revision("r", None, (FilePair(after.path, before, after),)))
    return checked, metrics, report


def test_every_analysis_survives_seeded_damage():
    texts = sweep_inputs()
    assert len(texts) >= 2000
    before = src("")
    clean = pairs = 0
    for i, text in enumerate(texts):
        after = src(text, f"in{i}.sol")
        checked, metrics, report = _analyze(before, after)
        assert repr(_analyze(before, after)) == \
            repr((checked, metrics, report)), i
        tree = checked.tree
        spans = spans_in([checked.analysis.unit, checked.diagnostics,
                          [(s.span, s.symbols) for s in tree.scopes],
                          tree.warnings, extract_emits_regex(after),
                          [ch.after_emit for ch in report.changes]])
        bad = [s for s in spans if not _inside(s, after)]
        assert not bad, (i, bad[:3])
        assert all(_inside(ch.before_emit.span, before)
                   for ch in report.changes if ch.before_emit), i
        unit = checked.analysis.unit
        # A node whose offsets were taken before its last child was parsed
        # ends before that child does.
        edges = [(parent, child) for parent in nodes_in(unit)
                 for child in child_nodes(parent)]
        astray = [(parent, child) for parent, child in edges
                  if not parent.start <= child.start <= child.end
                  <= parent.end]
        assert not astray, (i, astray[:1])
        pairs += len(edges)
        if not unit.parse_errors:
            clean += 1
            regex = sum(1 for m in extract_emits_regex(after)
                        if not m.in_comment_or_string)
            assert count_ast_emits(unit) == regex, (i, text)
        before = after
    assert clean >= 100, clean
    assert pairs >= 40_000, pairs


def test_the_analyses_leave_no_cyclic_garbage():
    """Reference counting frees all that lint, metrics and diff build: with
    the collector off, nothing is left for it to find. A change that makes
    reference cycles fails here rather than growing memory unseen."""
    files = [SourceFile.load(path) for path in sorted(FIXTURES.rglob("*.sol"))]
    revisions = [rev for manifest in sorted(
                     FIXTURES.glob("manifests/*/manifest.json"))
                 for rev in load_manifest(str(manifest))[0]]
    revisions += [rev for _, rev in _DIFFERENTIAL_REVISIONS]
    assert len(files) >= 50 and len(revisions) >= 90
    runs = {
        "run_checks": lambda: [run_checks(file) for file in files],
        "compute_metrics": lambda: compute_metrics(files),
        "analyze_revision": lambda: [analyze_revision(rev, whole_file)
                                     for rev in revisions
                                     for whole_file in (False, True)],
    }
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, run in runs.items():
            run()
            left[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert left == dict.fromkeys(runs, 0)
