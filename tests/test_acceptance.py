"""Acceptance suite: one test per release criterion, each printing a PASS
line when its assertions hold (run with -s to see them inline)."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from emitlint.checks import CheckConfig, CheckId, check_overuse, run_checks
from emitlint.cli import main
from emitlint.dataflow import equalities_at
from emitlint.evolution import churn, classify_independence, \
    is_emit_only_revision, pair_emit_changes, passes_variable_kill_test
from emitlint.metrics import count_ast_emits
from emitlint.nodes import EmitStmt
from emitlint.parser import parse_file
from emitlint.scan import EMIT_PATTERN, LocStats, extract_emits_regex
from emitlint.source import SourceFile

from helpers import (
    brute_force_equalities, distinct_inputs, fixture_path,
    gen_straight_line_contract, make_revision, parsed, shop_revision,
    snippet_corpus,
)
from revision_cases import (
    ABS, EXPECTED_HEURISTIC_MISMATCHES, INDEPENDENCE_CASES, TAXONOMY_CASES,
)

EXPECTED_GAS_POSITIVES = {
    "pos_01_setdelay.sol": "delay_",
    "pos_02_cached_read.sol": "cached",
    "pos_03_two_args.sol": "newOwner",
    "pos_04_branch_entry.sol": "price_",
    "pos_05_first_declared.sol": "next",
    "pos_06_unrelated_between.sol": "fee_",
    "pos_07_constructor.sol": "supply_",
    "pos_08_address_local.sol": "current",
}


def _gas_diags(path: Path):
    result = run_checks(SourceFile.load(path))
    return [d for d in result.diagnostics
            if d.check_id == CheckId.GAS_STORAGE_PARAM]


def test_criterion_1_gas_checker_reproduction(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    setdelay = fixture_path("gas", "pos_01_setdelay.sol")
    started = time.perf_counter()
    code = main(["lint", str(setdelay)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    gas_lines = [l for l in out.splitlines() if "GAS_STORAGE_PARAM" in l]
    assert code == 1
    assert len(gas_lines) == 1
    assert "delay_" in gas_lines[0]
    assert elapsed < 1.0, f"single-file lint took {elapsed:.3f}s"
    diags = _gas_diags(setdelay)
    assert len(diags) == 1
    assert diags[0].suggestion.replacement_text == "delay_"

    true_positives = 0
    false_positives = 0
    for path in sorted(fixture_path("gas").glob("*.sol")):
        diags = _gas_diags(path)
        expected = EXPECTED_GAS_POSITIVES.get(path.name)
        if expected is not None:
            if (len(diags) == 1
                    and diags[0].suggestion.replacement_text == expected):
                true_positives += 1
            else:
                false_positives += len(diags)
        else:
            false_positives += len(diags)
    assert true_positives == 8, f"{true_positives}/8 planted positives found"
    assert false_positives == 0, f"{false_positives} false positives"
    with capsys.disabled():
        print("\nACCEPTANCE 1 gas checker reproduction "
              f"(8/8 TP, 0 FP, {elapsed * 1000:.0f} ms): PASS")


def test_criterion_2_regex_fidelity(capsys):
    assert EMIT_PATTERN.pattern == r"\s+emit\s+(\w+)\s*\(([\s\S]*?)\)\s*"
    receipt = SourceFile.load(fixture_path("client_receipt.sol"))
    matches = extract_emits_regex(receipt)
    assert [m.event_name for m in matches] == ["Deposit"]

    agreements = 0
    corpus = snippet_corpus(50)
    for file in corpus:
        unit = parse_file(file)
        assert unit.parse_errors == [], file.path
        matches = extract_emits_regex(file)
        assert not any(m.in_comment_or_string for m in matches), file.path
        assert len(matches) == count_ast_emits(unit), file.path
        agreements += 1
    assert agreements == 50
    with capsys.disabled():
        print("ACCEPTANCE 2 textual matcher fidelity (event name + 50/50 "
              "corpus agreement): PASS")


def test_criterion_3_overuse_threshold(capsys):
    loc = LocStats(total_lines=100, code_lines=100, comment_lines=0,
                   blank_lines=0)
    cfg = CheckConfig()
    assert len(check_overuse(loc, 11, cfg, "f.sol")) == 1
    flagged = check_overuse(loc, 11, cfg, "f.sol")[0]
    assert "0.110" in flagged.message
    assert check_overuse(loc, 9, cfg, "f.sol") == []

    counts = [0, 4, 6, 9, 10, 11, 15, 21, 30]
    flags = []
    for threshold in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        sweep_cfg = CheckConfig(overuse_threshold=threshold)
        flags.append(sum(1 for c in counts
                         if check_overuse(loc, c, sweep_cfg, "f.sol")))
    assert flags == sorted(flags, reverse=True), flags
    with capsys.disabled():
        print("ACCEPTANCE 3 overuse threshold (11/100 flagged, 9/100 not, "
              "monotone sweep): PASS")


def _pad_contract(n: int) -> str:
    lines = ["contract Pad {"]
    lines += [f"    uint public v{i};" for i in range(n)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_contract(n_emits: int) -> str:
    lines = ["contract Noisy {",
             "    event E(uint v);",
             "    function f(uint v, uint w) public {"]
    lines += ["        emit E(v);"] * n_emits
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n"


def test_criterion_4_churn_arithmetic(capsys):
    five_of_fifty = churn(make_revision(
        "c1", ("pad.sol", _pad_contract(43), _pad_contract(48))))
    assert five_of_fifty.churned_loc == 5
    assert five_of_fifty.total_loc == 50
    assert five_of_fifty.loc_churn_rate == Fraction(1, 10)

    emit_only = churn(make_revision(
        "c3", ("noisy.sol", _emit_contract(19), _emit_contract(20))))
    assert emit_only.emit_churn_rate == Fraction(
        emit_only.churned_emits, emit_only.total_emits)
    assert emit_only.emit_churn_rate == Fraction(1, 20)

    modified_emit_after = "\n".join(
        _emit_contract(5).split("\n")[:5] + ["        emit E(w);"]
        + _emit_contract(5).split("\n")[6:])
    hand_computed = [
        ("five-of-fifty", [("pad.sol", _pad_contract(43), _pad_contract(48))],
         (5, 50, Fraction(1, 10), 0, 0, Fraction(0))),
        ("comment-only",
         [("doc.sol",
           "contract Doc {\n    // old\n    uint public a;\n    uint public b;\n}\n",
           "contract Doc {\n    // new\n    uint public a;\n    uint public b;\n}\n")],
         (0, 4, Fraction(0), 0, 0, Fraction(0))),
        ("emit-added", [("noisy.sol", _emit_contract(19), _emit_contract(20))],
         (1, 25, Fraction(1, 25), 1, 20, Fraction(1, 20))),
        ("pure-deletion", [("pad.sol", _pad_contract(10), _pad_contract(7))],
         (3, 9, Fraction(1, 3), 0, 0, Fraction(0))),
        ("file-deleted", [("pad.sol", _pad_contract(8), None)],
         (10, 10, Fraction(1), 0, 0, Fraction(0))),
        ("file-added", [("pad.sol", None, _pad_contract(6))],
         (8, 8, Fraction(1), 0, 0, Fraction(0))),
        ("two-modified",
         [("pad.sol", _pad_contract(10),
           _pad_contract(10).replace("v3;", "v3x;").replace("v5;", "v5x;"))],
         (4, 12, Fraction(1, 3), 0, 0, Fraction(0))),
        ("blank-lines",
         [("pad.sol", _pad_contract(5),
           _pad_contract(5).replace("contract Pad {\n",
                                    "contract Pad {\n\n\n"))],
         (0, 7, Fraction(0), 0, 0, Fraction(0))),
        ("multi-file",
         [("a.sol", _pad_contract(43), _pad_contract(48)),
          ("b.sol", _pad_contract(10), _pad_contract(7))],
         (8, 59, Fraction(8, 59), 0, 0, Fraction(0))),
        ("modified-emit", [("noisy.sol", _emit_contract(5),
                            modified_emit_after)],
         (2, 10, Fraction(1, 5), 2, 5, Fraction(2, 5))),
    ]
    assert len(hand_computed) == 10
    for name, pairs, expected in hand_computed:
        report = churn(make_revision(name, *pairs))
        got = (report.churned_loc, report.total_loc, report.loc_churn_rate,
               report.churned_emits, report.total_emits,
               report.emit_churn_rate)
        assert got == expected, name  # Fractions: tolerance is exactly zero
    with capsys.disabled():
        print("ACCEPTANCE 4 churn arithmetic (10/10 hand-computed revisions, "
              "exact rationals): PASS")


def test_criterion_5_taxonomy_classifier(capsys):
    assert len(TAXONOMY_CASES) == 25
    correct = 0
    for name, category, before, after in TAXONOMY_CASES:
        changes = pair_emit_changes(shop_revision(before, after, name))
        if len(changes) == 1 and changes[0].category == category:
            correct += 1
    assert correct == 25, f"{correct}/25 diffs classified correctly"
    with capsys.disabled():
        print("ACCEPTANCE 5 taxonomy classifier (25/25): PASS")


def test_criterion_6_independence_labeling(capsys):
    assert len(INDEPENDENCE_CASES) == 20
    absolute_correct = 0
    heuristic_matches = 0
    mismatched = set()
    for name, before, after, expect_absolute, hand_label in INDEPENDENCE_CASES:
        rev = shop_revision(before, after, name)
        if is_emit_only_revision(rev) == expect_absolute:
            absolute_correct += 1
        changes = pair_emit_changes(rev)
        assert changes, name
        label = classify_independence(rev, changes[0])
        if label == hand_label:
            heuristic_matches += 1
        else:
            mismatched.add(name)
        if label == ABS:
            assert passes_variable_kill_test(rev, changes[0]), name
    assert absolute_correct == 20
    assert heuristic_matches >= 18, mismatched
    assert mismatched == EXPECTED_HEURISTIC_MISMATCHES
    with capsys.disabled():
        print(f"ACCEPTANCE 6 independence labeling (absolute 20/20, "
              f"heuristic {heuristic_matches}/20, implication holds): PASS")


def test_criterion_7_dataflow_soundness(capsys):
    rng = random.Random(424242)
    functions = 0
    points = 0
    violations = 0
    while functions < 500:
        text, input_names = gen_straight_line_contract(rng, functions)
        _, unit, tree = parsed(text, f"gen{functions}.sol")
        assert unit.parse_errors == [], text
        fn = unit.contracts[0].functions[0]
        claimed = {}
        for pos, stmt in enumerate(fn.body.stmts):
            if isinstance(stmt, EmitStmt):
                claimed[pos] = {
                    tuple(sorted((f.storage_sym.name, f.memory_sym.name)))
                    for f in equalities_at(stmt, fn, tree)}
        for salt in range(2):
            inputs = distinct_inputs(input_names, salt)
            tables = brute_force_equalities(fn, inputs)
            for pos, facts in claimed.items():
                points += 1
                if not facts <= tables[pos]:
                    violations += 1
        functions += 1
    assert functions >= 500
    assert violations == 0, f"{violations} unsound facts of {points} points"
    with capsys.disabled():
        print(f"ACCEPTANCE 7 dataflow soundness ({functions} functions, "
              f"{points} checked points, 0 violations): PASS")


def test_criterion_8_robustness(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    started = time.perf_counter()
    code = main(["lint", str(fixture_path("robust")), "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    data = json.loads(out)
    assert code == 1
    assert any(d["checkId"] == "GAS_STORAGE_PARAM"
               and d["file"].endswith("good.sol") for d in data)
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"ACCEPTANCE 8 robustness (malformed file survived, "
              f"{elapsed * 1000:.0f} ms): PASS")
