"""Compare emitlint's JSON output with the generator's oracle.

Each check returns a list of mismatch descriptions; an empty list means the
output agrees with the oracle.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from corpus import CHECK_IDS


def _relative(path: str, prefix: str) -> str:
    return path[len(prefix):] if path.startswith(prefix) else path


def check_lint(out: str, oracle: dict, prefix: str) -> list[str]:
    """Every diagnostic, as (file, line, check id, replacement), must be one
    the generator planted, and every planted one must be reported."""
    try:
        diags = json.loads(out)
    except ValueError as exc:
        return [f"lint output is not JSON: {exc}"]
    got = Counter()
    for d in diags:
        repl = d["suggestion"]["replacement"] if d.get("suggestion") else None
        got[(_relative(d["file"], prefix), d["startLine"], d["checkId"],
             repl)] += 1
    want = Counter(tuple(f) for rec in oracle["files"]
                   for f in rec["findings"])
    return _diff("lint finding", want, got)


def findings_by_check(oracle: dict) -> dict[str, int]:
    counts = dict.fromkeys(CHECK_IDS, 0)
    for rec in oracle["files"]:
        for f in rec["findings"]:
            counts[f[2]] += 1
    return counts


def check_metrics(out: str, oracle: dict, prefix: str) -> list[str]:
    """Per-file code lines, emit counts and counting method, and the
    project totals."""
    try:
        data = json.loads(out)
    except ValueError as exc:
        return [f"metrics output is not JSON: {exc}"]
    got = Counter((_relative(f["path"], prefix), f["codeLoc"],
                   f["emitCount"], f["method"]) for f in data["perFile"])
    want = Counter((r["path"], r["codeLoc"], r["emitCount"], r["method"])
                   for r in oracle["files"])
    problems = _diff("metrics row", want, got)
    loc = sum(r["codeLoc"] for r in oracle["files"])
    emits = sum(r["emitCount"] for r in oracle["files"])
    totals = (len(oracle["files"]), loc, emits,
              float(Fraction(emits, loc)) if loc else 0.0)
    seen = (data["fileCount"], data["totalCodeLoc"], data["totalEmitCount"],
            data["emitPerLoc"])
    if seen != totals:
        problems.append(f"metrics totals {seen} != {totals}")
    return problems


def check_diff(out: str, oracle: dict) -> list[str]:
    """Churn counts of every revision, every classified emit change with
    its lines, argument tokens and independence label, and the summary."""
    try:
        data = json.loads(out)
    except ValueError as exc:
        return [f"diff output is not JSON: {exc}"]
    problems = []
    got_revs = {r["id"]: r for r in data["revisions"]}
    labels = Counter()
    for want in oracle["revisions"]:
        rev = got_revs.get(want["id"])
        if rev is None:
            problems.append(f"revision {want['id']} missing")
            continue
        c = rev["churn"]
        churn = [c["churnedLoc"], c["totalLoc"], c["churnedEmits"],
                 c["totalEmits"]]
        if churn != want["churn"]:
            problems.append(f"revision {want['id']} churn {churn} != "
                            f"{want['churn']}")
        got = Counter(_change_key(ch) for ch in rev["changes"])
        expected = Counter(_oracle_change_key(ch) for ch in want["changes"])
        problems += _diff(f"revision {want['id']} change", expected, got)
        labels.update(ch["independence"] for ch in want["changes"])
    if len(got_revs) != len(oracle["revisions"]):
        problems.append(f"{len(got_revs)} revisions reported, "
                        f"{len(oracle['revisions'])} expected")
    total = sum(labels.values())
    absolute = labels["AbsoluteIndependent"]
    independent = absolute + labels["HeuristicIndependent"]
    summary = {
        "changeCount": total,
        "absoluteIndependentFraction":
            float(Fraction(absolute, total)) if total else 0.0,
        "independentFraction":
            float(Fraction(independent, total)) if total else 0.0,
    }
    if data["summary"] != summary:
        problems.append(f"summary {data['summary']} != {summary}")
    return problems


def _change_key(ch: dict) -> tuple:
    def side(emit):
        return (emit["event"], emit["line"]) if emit else None
    return (ch["path"], ch["category"], side(ch["before"]),
            side(ch["after"]), tuple(ch["changedArgTokens"]),
            ch["independence"])


def _oracle_change_key(ch: dict) -> tuple:
    return (ch["path"], ch["category"],
            tuple(ch["before"]) if ch["before"] else None,
            tuple(ch["after"]) if ch["after"] else None,
            tuple(ch["tokens"]), ch["independence"])


def _diff(what: str, want: Counter, got: Counter) -> list[str]:
    problems = [f"missing {what} {key}" for key in sorted(
        (want - got).elements(), key=repr)]
    problems += [f"unexpected {what} {key}" for key in sorted(
        (got - want).elements(), key=repr)]
    return problems


class Ledger:
    """Counts commands attempted and failed.

    A command fails when it exits with an unexpected code, raises, prints
    output that differs from the first run of the same command, or
    disagrees with the oracle.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.problems: list[str] = []

    def record(self, command: str, expected_code: int, code: int | None,
               out: str, error: str | None, oracle_check) -> bool:
        self.attempted += 1
        problems = []
        if error is not None:
            problems.append(f"{command} raised: {error.strip()}")
        elif code != expected_code:
            problems.append(f"{command} exited {code}, expected "
                            f"{expected_code}")
        else:
            ref = self.reference.setdefault(command, out)
            if out != ref:
                problems.append(f"{command} output differs between runs")
            key = (command, out)
            if key not in self.verdicts:
                self.verdicts[key] = oracle_check(out)
            problems += self.verdicts[key]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += problems[:5]
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
