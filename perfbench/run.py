"""Benchmark for emitlint's lint, metrics and diff commands.

    python3 perfbench/run.py --workload project --seed 1 --seconds 30 --trace 0

Generates the workload's seeded corpus under .perfbench_tmp/, runs the real
CLI entry point (emitlint.cli.main) in this process on it, checks every output
against the generator's oracle, and prints one JSON object as the last line
of standard output. Times are scaled to a reference host speed measured by
the calibration kernel between calls (calibrate.py). With --trace 0 it reports the end-to-end metrics; with
--trace 1 it also makes one traced pass and reports the per-layer metrics,
writing the spans to .perfbench_out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import corpus  # noqa: E402
from check import (  # noqa: E402
    Ledger, check_diff, check_lint, check_metrics, findings_by_check,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Percentiles reported when at least ten samples lie beyond them.
TAIL_PERCENTILES = (99.9, 99, 90)

EXPECTED_CODES = {"lint": 1, "metrics": 0, "diff": 0}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_emitlint():
    """Import emitlint from this checkout's src/ only."""
    if not (SRC / "emitlint" / "__init__.py").is_file():
        raise ImportError(f"no emitlint package under {SRC}")
    sys.path.insert(0, str(SRC))
    import emitlint.cli
    if Path(emitlint.cli.__file__).resolve().parent != SRC / "emitlint":
        raise ImportError(f"emitlint imported from {emitlint.cli.__file__}")
    return emitlint.cli


def run_command(main, argv) -> tuple:
    """(exit code, stdout, traceback or None, seconds) of one in-process
    CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed command, not a crash
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return code, out.getvalue(), error, seconds


def tail(samples: list[float]) -> str:
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=1000)[round(p * 10) - 1]
            return f"p{p:g}={value:.4f}"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        cli = import_emitlint()
    except ImportError as exc:
        print(f"perfbench: cannot import emitlint: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_tmp" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, cli, work: Path) -> int:
    # Set-up runs from the script's first statement to the first timed call.
    # The kernel is timed before it and after each warm-up call, and these
    # timings are left out of setup_s. The first one warms the kernel up and
    # is not used.
    start = time.perf_counter()
    calibrate.measure()
    setup_kernels = [calibrate.measure()]
    cal_spent = time.perf_counter() - start
    data = corpus.WORKLOADS[args.workload](args.seed)
    tree, manifest = data.write(work)
    oracle = data.oracle
    prefix = str(tree) + os.sep
    commands = {
        "lint": ["lint", "--format", "json", str(tree)],
        "metrics": ["metrics", "--format", "json", str(tree)],
        "diff": ["diff", "--manifest", str(manifest), "--format", "json"],
    }
    checkers = {
        "lint": lambda out: check_lint(out, oracle, prefix),
        "metrics": lambda out: check_metrics(out, oracle, prefix),
        "diff": lambda out: check_diff(out, oracle),
    }
    ledger = Ledger()

    def attempt(name):
        code, out, error, seconds = run_command(cli.main, commands[name])
        ledger.record(name, EXPECTED_CODES[name], code, out, error,
                      checkers[name])
        return seconds

    for name in commands:
        attempt(name)
        start = time.perf_counter()
        setup_kernels.append(calibrate.measure())
        cal_spent += time.perf_counter() - start
    setup_wall = time.perf_counter() - _T0 - cal_spent
    setup_s = setup_wall * calibrate.REFERENCE_S / statistics.median(
        setup_kernels)

    # Closed loop, one call at a time, in rounds of lint, metrics, diff, so
    # every command's samples spread over the whole run. The calibration
    # kernel runs between calls and sets the host speed for each call.
    calls = []  # (command, wall seconds), in order
    kernels = [setup_kernels[-1]]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(calls) < len(commands):
        for name in commands:
            calls.append((name, attempt(name)))
            kernels.append(calibrate.measure())
    wall = {name: [] for name in commands}
    samples = {name: [] for name in commands}
    for (name, seconds), value in zip(
            calls, calibrate.scaled([s for _, s in calls], kernels)):
        wall[name].append(seconds)
        samples[name].append(value)
    medians = {name: statistics.median(v) for name, v in samples.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = [
        ("setup_s", setup_s, "s",
         f"wall {setup_wall:.3f} s: import, generation, warm-up call of "
         f"each command"),
    ]
    for name in commands:
        report.append((f"{name}_s", medians[name], "s",
                       f"median of n={len(samples[name])}, "
                       f"min {min(samples[name]):.4f}; "
                       f"{tail(samples[name])}; "
                       f"wall median {statistics.median(wall[name]):.4f}"))
    report.append(("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss"))

    if args.trace:
        metrics = _traced(args, commands, tree, manifest, oracle, ledger,
                          attempt, sum(medians.values()))
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in report}

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(data.files)} files, "
          f"{sum(len(s.lines) for s in data.files)} lines, "
          f"{len(data.revisions)} revisions")
    print(f"  calibration kernel: median {statistics.median(kernels):.4f}"
          f" s over the timed loop, "
          f"{statistics.median(setup_kernels):.4f} s over set-up; "
          f"times are scaled to {calibrate.REFERENCE_S} s")
    for name, value, unit, how in report:
        print(f"  {name:<14} {value:12.4f} {unit:<3} {how}")
    print(f"  {'failed_ops_frac':<14} {ledger.failed_frac:12.4f} ratio "
          f"{ledger.failed}/{ledger.attempted} commands")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<44} {entry['value']:14.6f} {entry['unit']}")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def _traced(args, commands, tree, manifest, oracle, ledger, attempt,
            untraced_scaled_s) -> dict:
    """One traced pass: cli.main per command, then the stage-by-stage
    replays. The replays' results are checked like commands. Span times are
    wall seconds; the untraced medians and the replays' stage spans are
    brought to the host speed of the traced cli.main calls before
    trace.overhead_s and trace.unattributed_frac compare them with those."""
    import tracing  # imports emitlint, so only after import_emitlint()
    tr = tracing.Tracer(f"{args.workload}-{args.seed}")
    before = calibrate.measure()
    for name in commands:
        with tr.span("cli.main", "main"):
            attempt(name)
    middle = calibrate.measure()
    kernel = (before + middle) / 2
    untraced_main_s = untraced_scaled_s * kernel / calibrate.REFERENCE_S

    expected = findings_by_check(oracle)
    findings = tracing.replay_lint(tr, str(tree))
    ledger.record("replay.lint", 0, 0, "", None, lambda _: [
        f"replayed {cid} findings {findings[cid]} != {n}"
        for cid, n in expected.items() if findings[cid] != n])

    emits, loc = tracing.replay_metrics(tr, str(tree))
    want = (sum(r["emitCount"] for r in oracle["files"]),
            sum(r["codeLoc"] for r in oracle["files"]))
    ledger.record("replay.metrics", 0, 0, "", None, lambda _: [] if (
        emits, loc) == want else [f"replayed (emits, loc) {(emits, loc)} "
                                  f"!= {want}"])

    revs = tracing.replay_diff(tr, str(manifest))
    want_revs = [(r["id"], r["churn"], len(r["changes"]))
                 for r in oracle["revisions"]]
    ledger.record("replay.diff", 0, 0, "", None, lambda _: [] if (
        revs == want_revs) else ["replayed diff disagrees with the oracle"])

    replay_kernel = (middle + calibrate.measure()) / 2

    tr.write(ROOT / ".perfbench_out" /
             f"spans-{args.workload}-{args.seed}.json")
    return {name: {"value": value, "unit": unit} for name, (value, unit)
            in tracing.layer_metrics(tr, untraced_main_s,
                                     kernel / replay_kernel).items()}


if __name__ == "__main__":
    sys.exit(main())
