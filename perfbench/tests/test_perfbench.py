"""Tests of the benchmark itself: determinism, oracle agreement and failure
accounting. Run with: python3 -m pytest perfbench/tests -q"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
from check import Ledger, check_diff, check_lint, check_metrics
from emitlint import cli

BENCH = Path(__file__).resolve().parent.parent

TINY = {
    "project": lambda seed: corpus.project(seed, files=12, revisions=14),
    "monolith": lambda seed: corpus.monolith(seed, lines=400,
                                             rewrite_lines=80),
}


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_identical_corpus(workload, tmp_path):
    build = corpus.WORKLOADS[workload]
    build(7).write(tmp_path / "a")
    build(7).write(tmp_path / "b")
    build(8).write(tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _work(data) -> dict:
    """What decides the cost of each command, seed aside."""
    files = data.oracle["files"]
    return {
        "file sizes": sorted((len(s.lines), s.damaged) for s in data.files),
        "code lines": sum(r["codeLoc"] for r in files),
        "emits": sum(r["emitCount"] for r in files),
        "findings": sorted(f[2] for r in files for f in r["findings"]),
        "pairs": [[(p.before is None, p.after is None) for p in plans]
                  for _, plans in data.revisions],
        "changes": [sorted(ch["category"] for ch in rev["changes"])
                    for rev in data.oracle["revisions"]],
    }


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_work_does_not_depend_on_seed(workload):
    build = corpus.WORKLOADS[workload]
    assert _work(build(11)) == _work(build(12))


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _outputs(data, root: Path):
    tree, manifest = data.write(root)
    lint = _run(["lint", "--format", "json", str(tree)])
    metrics = _run(["metrics", "--format", "json", str(tree)])
    diff = _run(["diff", "--manifest", str(manifest), "--format", "json"])
    return str(tree) + "/", lint, metrics, diff


@pytest.mark.parametrize("workload", sorted(TINY))
def test_oracle_agrees_with_emitlint(workload, tmp_path):
    data = TINY[workload](3)
    prefix, lint, metrics, diff = _outputs(data, tmp_path)
    assert lint[0] == 1 and metrics[0] == 0 and diff[0] == 0
    assert check_lint(lint[1], data.oracle, prefix) == []
    assert check_metrics(metrics[1], data.oracle, prefix) == []
    assert check_diff(diff[1], data.oracle) == []


def test_oracle_covers_every_check_and_category():
    data = TINY["project"](3)
    found = {f[2] for rec in data.oracle["files"] for f in rec["findings"]}
    assert found == set(corpus.CHECK_IDS)
    assert {"ast", "regex"} == {rec["method"] for rec in data.oracle["files"]}
    hist = data.oracle["revisions"]
    categories = {ch["category"] for rev in hist for ch in rev["changes"]}
    assert categories == {"ParameterChange", "Replacement", "Move",
                          "Compound", "Addition", "Deletion"}
    labels = {ch["independence"] for rev in hist for ch in rev["changes"]}
    assert labels == {"AbsoluteIndependent", "HeuristicIndependent",
                      "Dependent"}


def _drop_first(text: str) -> str:
    diags = json.loads(text)
    return json.dumps(diags[1:], indent=2)


def _bump_emit_count(text: str) -> str:
    data = json.loads(text)
    data["perFile"][0]["emitCount"] += 1
    return json.dumps(data, indent=2)


def _recategorize(text: str) -> str:
    data = json.loads(text)
    change = next(ch for rev in data["revisions"] for ch in rev["changes"])
    change["category"] = "Compound" if change["category"] != "Compound" \
        else "Move"
    return json.dumps(data, indent=2)


def test_tampered_outputs_count_as_failed(tmp_path):
    data = TINY["project"](3)
    prefix, lint, metrics, diff = _outputs(data, tmp_path)
    checks = {
        "lint": lambda out: check_lint(out, data.oracle, prefix),
        "metrics": lambda out: check_metrics(out, data.oracle, prefix),
        "diff": lambda out: check_diff(out, data.oracle),
    }
    cases = [
        ("lint", 1, lint[1], _drop_first(lint[1])),
        ("metrics", 0, metrics[1], _bump_emit_count(metrics[1])),
        ("diff", 0, diff[1], _recategorize(diff[1])),
    ]
    for command, code, good, bad in cases:
        fresh = Ledger()
        assert fresh.record(command, code, code, bad, None, checks[command]) \
            is False
        assert (fresh.attempted, fresh.failed) == (1, 1)
        ledger = Ledger()
        ledger.record(command, code, code, good, None, checks[command])
        ledger.record(command, code, code, bad, None, checks[command])
        ledger.record(command, code, 2, good, None, checks[command])
        ledger.record(command, code, None, "", "Traceback ...",
                      checks[command])
        assert (ledger.attempted, ledger.failed) == (4, 3)
        assert ledger.failed_frac == 0.75


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "project",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _traced_counts(data, root: Path) -> dict:
    import tracing
    tree, manifest = data.write(root)
    tr = tracing.Tracer("test")
    for argv in (["lint", "--format", "json", str(tree)],
                 ["metrics", "--format", "json", str(tree)],
                 ["diff", "--manifest", str(manifest), "--format", "json"]):
        with tr.span("cli.main", "main"):
            _run(argv)
    tracing.replay_lint(tr, str(tree))
    tracing.replay_metrics(tr, str(tree))
    tracing.replay_diff(tr, str(manifest))
    return tracing.layer_metrics(tr, 0.0)


def test_traced_run_reports_every_layer_metric_and_repeats_counts(tmp_path):
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    data = TINY["project"](5)
    first = _traced_counts(data, tmp_path / "a")
    second = _traced_counts(data, tmp_path / "b")
    assert {name: unit for name, (_, unit) in first.items()} == \
        {m["name"]: m["unit"] for m in bench["per_layer"]}
    counts = [name for name, (_, unit) in first.items() if unit == "count"]
    assert {n: first[n][0] for n in counts} == {n: second[n][0] for n in counts}
    assert first["checks.findings.GAS_STORAGE_PARAM"][0] == sum(
        1 for rec in data.oracle["files"] for f in rec["findings"]
        if f[2] == "GAS_STORAGE_PARAM")
