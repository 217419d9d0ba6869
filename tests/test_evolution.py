import random
import tracemalloc
from fractions import Fraction

import pytest

import emitlint.evolution as evolution
from emitlint.evolution import (
    ChangeCategory, RevisionAnalysis, analyze_revision, churn,
    classify_independence, diff_lines, pair_emit_changes,
)
from emitlint.cli import load_manifest

from helpers import (
    FIXTURES, line_text, make_revision, reference_myers, replay, src,
)


# ------------------------------------------------------------------ diffing

def test_identical_files_all_keep():
    a = src("one\ntwo\nthree\n")
    diff = diff_lines(a, src(a.text))
    assert all(op.kind == "keep" for op in diff.ops)
    assert replay(diff) == a.text


def test_one_changed_line_in_ten():
    before_lines = [f"line {i};" for i in range(10)]
    after_lines = list(before_lines)
    after_lines[4] = "line 4 changed;"
    before = src("\n".join(before_lines))
    after = src("\n".join(after_lines))
    diff = diff_lines(before, after)
    deletes = [op for op in diff.ops if op.kind == "delete"]
    adds = [op for op in diff.ops if op.kind == "add"]
    assert len(deletes) == 1 and len(adds) == 1
    assert deletes[0].before_line == 5 and adds[0].after_line == 5
    positions = [i for i, op in enumerate(diff.ops) if op.kind != "keep"]
    assert positions[1] == positions[0] + 1  # delete/add adjacent
    assert replay(diff) == after.text


def test_file_added_all_add():
    after = src("a\nb\n")
    diff = diff_lines(None, after)
    assert all(op.kind == "add" for op in diff.ops)
    assert replay(diff) == after.text


def test_file_deleted_all_delete():
    diff = diff_lines(src("a\nb\n"), None)
    assert all(op.kind == "delete" for op in diff.ops)
    assert replay(diff) == ""


def test_replay_reconstructs_after_text_randomized():
    rng = random.Random(77)
    alphabet = ["alpha", "beta", "gamma", "delta", "eps"]
    for _ in range(200):
        n, m = rng.randint(0, 12), rng.randint(0, 12)
        before = "\n".join(rng.choice(alphabet) for _ in range(n))
        after = "\n".join(rng.choice(alphabet) for _ in range(m))
        diff = diff_lines(src(before), src(after))
        assert replay(diff) == after
        kept_and_deleted = [op.text for op in diff.ops
                            if op.kind in ("keep", "delete")]
        assert "\n".join(kept_and_deleted) == before


def test_diff_is_minimal_on_lcs_shapes():
    before = src("a\nb\nc\nd\n")
    after = src("b\nc\nd\na\n")
    diff = diff_lines(before, after)
    edits = sum(1 for op in diff.ops if op.kind != "keep")
    assert edits == 2  # move one line: one delete plus one add


def _tie_heavy_lines(rng: random.Random, alphabet: list[str],
                     count: int) -> list[str]:
    """count lines drawn from alphabet, with runs of '}' and blank lines."""
    lines: list[str] = []
    while len(lines) < count:
        roll = rng.random()
        if roll < 0.2:
            lines += ["}"] * rng.randint(1, 4)
        elif roll < 0.3:
            lines += [""] * rng.randint(1, 2)
        else:
            lines.append(rng.choice(alphabet))
    return lines[:count]


def _reference_script(a: list[str], b: list[str]) -> list[tuple]:
    return [(op.kind, op.before_line, op.after_line)
            for op in reference_myers(a, b)]


def test_edit_script_matches_the_reference_myers():
    """The integer-coded diff keeps the reference's tie-break, step for step,
    on small alphabets where ties are common: '}' and blank runs, shared
    prefixes, empty sides, and a line repeated on one side, of which the
    first copy is kept."""
    rng = random.Random(22)
    cases = [([], []), (["x"], []), ([], ["x"]), (["x"], ["x", "x"]),
             (["}", "}"], ["}"]), (["", "}"], ["}", "", "}"])]
    for _ in range(3000):
        alphabet = [f"line {i};" for i in range(rng.randint(2, 16))]
        shared = _tie_heavy_lines(rng, alphabet, rng.choice(
            (0, rng.randint(1, 6))))
        cases.append(
            (shared + _tie_heavy_lines(rng, alphabet, rng.randint(0, 20)),
             shared + _tie_heavy_lines(rng, alphabet, rng.randint(0, 20))))
    for a, b in cases:
        assert evolution._myers(a, b) == _reference_script(a, b), (a, b)


def test_fixture_and_case_diffs_match_the_reference_myers():
    """Every file pair of the fixture manifests and of the revision cases
    diffs to the reference's ops, texts included."""
    pairs = [pair
             for manifest in sorted(FIXTURES.glob("manifests/*/manifest.json"))
             for rev in load_manifest(str(manifest))[0]
             for pair in rev.file_pairs]
    assert len(pairs) == 15
    pairs += [pair for _, rev in _DIFFERENTIAL_REVISIONS
              for pair in rev.file_pairs]
    for pair in pairs:
        expected = reference_myers(evolution._split_lines(pair.before),
                                   evolution._split_lines(pair.after))
        assert diff_lines(pair.before, pair.after).ops == expected


def test_whole_file_rewrite_diff_peaks_under_4_mb():
    """A 300-line rewrite with every line distinct takes D = 600 passes; the
    trace keeps only the entries the traceback reads (the reference's
    dict-per-pass trace peaks near 13 MB here)."""
    before = src("\n".join(f"uint before{i} = {i};" for i in range(300)))
    after = src("\n".join(f"uint after{i} = {i};" for i in range(300)))
    tracemalloc.start()
    try:
        diff = diff_lines(before, after)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [op.kind for op in diff.ops] == ["delete"] * 300 + ["add"] * 300
    assert peak < 4 * 2 ** 20


# -------------------------------------------------------------------- churn

def _var_contract(n: int, prefix: str = "v") -> str:
    lines = ["contract Pad {"]
    lines += [f"    uint public {prefix}{i};" for i in range(n)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_contract(n_emits: int, arg: str = "v") -> str:
    lines = ["contract Noisy {",
             "    event E(uint v);",
             "    function f(uint v, uint w) public {"]
    lines += [f"        emit E({arg});"] * n_emits
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n"


def test_churn_five_of_fifty_exact():
    rev = make_revision("c1", ("pad.sol", _var_contract(43), _var_contract(48)))
    report = churn(rev)
    assert report.churned_loc == 5
    assert report.total_loc == 50
    assert report.loc_churn_rate == Fraction(1, 10)
    assert float(report.loc_churn_rate) == 0.100


def test_churn_comment_only_revision_is_zero():
    before = "contract Doc {\n    // old note\n    uint public a;\n    uint public b;\n}\n"
    after = before.replace("old note", "new note")
    rev = make_revision("c2", ("doc.sol", before, after))
    report = churn(rev)
    assert report.churned_loc == 0
    assert report.total_loc == 4
    assert report.loc_churn_rate == Fraction(0)


def test_churn_added_emit_rate():
    rev = make_revision("c3", ("noisy.sol", _emit_contract(19),
                               _emit_contract(20)))
    report = churn(rev)
    assert report.churned_emits == 1
    assert report.total_emits == 20
    assert report.emit_churn_rate == Fraction(1, 20)
    assert report.churned_loc == 1
    assert report.total_loc == 25
    assert report.loc_churn_rate == Fraction(1, 25)


@pytest.mark.parametrize("name,pairs,expected", [
    ("pure-deletion",
     [("pad.sol", _var_contract(10), _var_contract(7))],
     (3, 9, Fraction(1, 3), 0, 0, Fraction(0))),
    ("file-deleted",
     [("pad.sol", _var_contract(8), None)],
     (10, 10, Fraction(1), 0, 0, Fraction(0))),
    ("file-added",
     [("pad.sol", None, _var_contract(6))],
     (8, 8, Fraction(1), 0, 0, Fraction(0))),
    ("two-modified-lines",
     [("pad.sol", _var_contract(10),
       _var_contract(10).replace("v3;", "v3x;").replace("v5;", "v5x;"))],
     (4, 12, Fraction(1, 3), 0, 0, Fraction(0))),
    ("blank-lines-only",
     [("pad.sol", _var_contract(5),
       _var_contract(5).replace("contract Pad {\n", "contract Pad {\n\n\n"))],
     (0, 7, Fraction(0), 0, 0, Fraction(0))),
    ("multi-file",
     [("a.sol", _var_contract(43), _var_contract(48)),
      ("b.sol", _var_contract(10), _var_contract(7))],
     (8, 59, Fraction(8, 59), 0, 0, Fraction(0))),
    ("modified-emit",
     [("noisy.sol", _emit_contract(5),
       "\n".join(_emit_contract(5).split("\n")[:5]
                 + ["        emit E(w);"]
                 + _emit_contract(5).split("\n")[6:]))],
     (2, 10, Fraction(1, 5), 2, 5, Fraction(2, 5))),
])
def test_churn_hand_computed(name, pairs, expected):
    rev = make_revision(name, *pairs)
    report = churn(rev)
    got = (report.churned_loc, report.total_loc, report.loc_churn_rate,
           report.churned_emits, report.total_emits, report.emit_churn_rate)
    assert got == expected, name


def test_churn_rates_are_exact_quotients():
    rev = make_revision("q", ("pad.sol", _var_contract(3), _var_contract(10)))
    report = churn(rev)
    assert report.loc_churn_rate == Fraction(report.churned_loc,
                                             report.total_loc)


# ----------------------------------------------------------- change matching

from revision_cases import (
    ABS, COMPOUND_CASES, DEP, EXPECTED_HEURISTIC_MISMATCHES, HEU,
    INDEPENDENCE_CASES, TAXONOMY_CASES,
)

from helpers import shop_revision


def single_change(before_body, after_body):
    return pair_emit_changes(shop_revision(before_body, after_body))


def test_send_example_is_parameter_change_with_tokens():
    changes = single_change(
        ["stock = amount;", "emit Send(msg.sender, id1);"],
        ["stock = amount;", "emit Send(msg.sender, id2);"])
    assert len(changes) == 1
    change = changes[0]
    assert change.category == ChangeCategory.PARAMETER_CHANGE
    assert change.changed_arg_tokens == ["id1", "id2"]
    assert change.before_emit.event_name == "Send"


def test_escrow_replacement():
    changes = single_change(
        ["emit EscrowWithdrawn(to, amount);"],
        ["emit EscrowRefunded(to, amount);"])
    assert len(changes) == 1
    assert changes[0].category == ChangeCategory.REPLACEMENT
    assert changes[0].changed_arg_tokens == []


def test_adjacent_move_past_assignment():
    changes = single_change(
        ["emit Priced(value);", "price = value;"],
        ["price = value;", "emit Priced(value);"])
    assert len(changes) == 1
    assert changes[0].category == ChangeCategory.MOVE


def test_a_more_specific_rule_wins_over_a_closer_pair():
    """Rules go Move, ParameterChange, Replacement, Compound; line distance
    only breaks ties within a rule. In each case the closer added emit fits
    the next rule and stays an addition. (`A(x )` is a changed line whose
    arguments normalize to the deleted emit's.)"""
    C = ChangeCategory
    for after, expected in (
            (["emit A(y);", "emit A(x );"], [(C.MOVE, "A(x )"),
                                             (C.ADDITION, "A(y)")]),
            (["emit B(x);", "emit A(y);"], [(C.PARAMETER_CHANGE, "A(y)"),
                                            (C.ADDITION, "B(x)")]),
            (["emit B(y);", "emit B(x);"], [(C.REPLACEMENT, "B(x)"),
                                            (C.ADDITION, "B(y)")])):
        changes = single_change(["emit A(x);"], after)
        assert [(ch.category,
                 f"{ch.after_emit.event_name}({ch.after_emit.raw_args})")
                for ch in changes] == expected, after


def test_taxonomy_has_five_per_category():
    per = {}
    for _, category, _, _ in TAXONOMY_CASES + COMPOUND_CASES:
        per[category] = per.get(category, 0) + 1
    assert per == {c: 5 for c in ChangeCategory}


@pytest.mark.parametrize("name,category,before,after",
                         TAXONOMY_CASES + COMPOUND_CASES,
                         ids=[c[0] for c in TAXONOMY_CASES + COMPOUND_CASES])
def test_taxonomy_classification(name, category, before, after):
    changes = single_change(before, after)
    assert len(changes) == 1, (name, changes)
    assert changes[0].category == category


def _norm(match):
    return "".join(match.raw_args.split())


def test_category_invariants_hold_on_every_matched_change():
    for name, _, before, after in TAXONOMY_CASES + COMPOUND_CASES:
        for change in single_change(before, after):
            assert change.category in ChangeCategory
            b, a = change.before_emit, change.after_emit
            if change.category == ChangeCategory.ADDITION:
                assert b is None and a is not None
            elif change.category == ChangeCategory.DELETION:
                assert a is None and b is not None
            elif change.category == ChangeCategory.MOVE:
                assert b.event_name == a.event_name
                assert _norm(b) == _norm(a)
                assert b.span != a.span
            elif change.category == ChangeCategory.PARAMETER_CHANGE:
                assert b.event_name == a.event_name
                assert _norm(b) != _norm(a)
            elif change.category == ChangeCategory.REPLACEMENT:
                assert b.event_name != a.event_name
                assert _norm(b) == _norm(a)
            else:  # Compound
                assert b.event_name != a.event_name
                assert _norm(b) != _norm(a)


# ------------------------------------------------------------- independence

def test_independence_case_count():
    assert len(INDEPENDENCE_CASES) == 20


def test_absolute_dimension_matches_ground_truth_20_of_20():
    for name, before, after, expect_absolute, _ in INDEPENDENCE_CASES:
        rev = shop_revision(before, after)
        assert RevisionAnalysis.build(rev).emit_only == expect_absolute, name


def test_heuristic_labels_match_hand_labels_at_least_18_of_20():
    matches = 0
    mismatched = set()
    for name, before, after, _, hand_label in INDEPENDENCE_CASES:
        rev = shop_revision(before, after)
        changes = pair_emit_changes(rev)
        assert changes, name
        label = classify_independence(rev, changes[0])
        if label == hand_label:
            matches += 1
        else:
            mismatched.add(name)
    assert matches >= 18, mismatched
    assert mismatched == EXPECTED_HEURISTIC_MISMATCHES


def test_absolute_implies_heuristic_pass_on_all_cases():
    for name, before, after, _, _ in INDEPENDENCE_CASES:
        rev = shop_revision(before, after)
        for change in pair_emit_changes(rev):
            if classify_independence(rev, change) == ABS:
                assert RevisionAnalysis.build(rev).passes_kill_test(
                    change), name


def test_whole_file_kill_mode_is_stricter():
    """In whole-file mode the kill scan sees unchanged lines too, so a token
    assigned elsewhere in the file turns heuristic-independent into
    dependent."""
    before = ["uint x = 1;", "id1 = seed;", "emit Send(msg.sender, id1);"]
    after = ["uint x = 2;", "id1 = seed;", "emit Send(msg.sender, id2);"]
    rev = shop_revision(before, after)
    change = pair_emit_changes(rev)[0]
    assert classify_independence(rev, change) == HEU
    assert classify_independence(rev, change, whole_file=True) == DEP


def test_analyze_revision_fills_independence_and_churn():
    rev = shop_revision(["emit Priced(value);"], ["emit Priced(price);"])
    report = analyze_revision(rev)
    assert report.revision_id == "r"
    assert len(report.changes) == 1
    assert report.changes[0].independence == ABS
    assert report.churn.total_loc > 0


# ------------------------------------------------- shared revision analysis

import emitlint.lexer as lexer
import emitlint.scan as scan
from emitlint.lexer import TokenKind, lex
from emitlint.scan import (
    LINE_CODE, classify_lines, count_loc, extract_emits_regex,
)

from helpers import (
    SpanCounts, classify_word, make_snippet, reference_kill_sets, shop,
)


def _oracle_changed_lines(pair):
    diff = diff_lines(pair.before, pair.after)
    return ({op.before_line for op in diff.ops if op.kind == "delete"},
            {op.after_line for op in diff.ops if op.kind == "add"})


def _oracle_extents(file):
    """Each regex match: whether it lies in a comment or string, its offsets
    and its lines. A match outside comments and strings runs on, in the text
    with comments blanked and strings filled, to the ')' that closes its
    arguments, but not past ';', '{' or '}'; then back over trailing
    blanks."""
    lexed = lex(file)
    quiet = list(file.text)  # parens count outside comments and strings
    for a, b in lexed.comment_ranges:
        quiet[a:b] = " " * (b - a)
    for a, b in lexed.string_ranges:
        quiet[a:b] = "_" * (b - a)
    quiet = "".join(quiet)
    extents = []
    for m in extract_emits_regex(file, lexed):
        a, b = m.start, m.end
        if not m.in_comment_or_string:
            depth = quiet[a:b].count("(") - quiet[a:b].count(")")
            while depth > 0 and b < len(quiet) and quiet[b] not in ";{}":
                depth += (quiet[b] == "(") - (quiet[b] == ")")
                b += 1
            b = len(quiet[:b].rstrip())
        lines = set(range(file.offset_to_linecol(a)[0],
                          file.offset_to_linecol(b - 1)[0] + 1))
        extents.append((m.in_comment_or_string, a, b, lines))
    return extents


def _oracle_emit_lines(file):
    """Lines touched by an emit outside comments and strings, where the text
    left after blanking out those emits and the comments holds only ';' and
    spaces."""
    blanked = lex(file).comment_ranges[:]
    lines = set()
    for flagged, a, b, own in _oracle_extents(file):
        if not flagged:
            blanked.append((a, b))
            lines |= own
    masked = list(file.text)
    for a, b in blanked:
        masked[a:b] = [ch if ch == "\n" else " " for ch in masked[a:b]]
    rows = "".join(masked).split("\n")
    return {line for line in lines
            if not rows[line - 1].replace(";", "").strip()}


def _oracle_code_line(file, line):
    kinds = classify_lines(file)
    return 1 <= line <= len(kinds) and kinds[line - 1] == LINE_CODE


def _oracle_churn(rev):
    """Churn recomputed side by side from the public scans, each of which
    lexes the file again."""
    loc = total_loc = emits = total_emits = 0
    for pair in rev.file_pairs:
        for file, lines in zip((pair.before, pair.after),
                               _oracle_changed_lines(pair)):
            if file is None:
                continue
            loc += sum(1 for line in lines if _oracle_code_line(file, line))
            emits += sum(1 for *_, own in _oracle_extents(file)
                         if own & lines)
        primary = pair.after if pair.after is not None else pair.before
        total_loc += count_loc(primary).code_lines
        total_emits += len(extract_emits_regex(primary))
    return loc, total_loc, emits, total_emits


def _reference_kill_sets(rev, whole_file):
    """The revision's kill sets from the chunk-lexing reference scan, and
    whether some run starts inside a comment or string of its side (where
    the chunk, lexed alone, loses that context)."""
    assigned, passed = set(), set()
    in_context = False
    for pair in rev.file_pairs:
        for file, lines in zip((pair.before, pair.after),
                               _oracle_changed_lines(pair)):
            if file is None:
                continue
            if whole_file:
                lines = set(range(1, file.line_count + 1))
            lexed = lex(file)
            emit_lines = _oracle_emit_lines(file)
            runs = []
            for line in sorted(lines - emit_lines):
                if runs and line == runs[-1][-1] + 1:
                    runs[-1].append(line)
                else:
                    runs.append([line])
            ranges = lexed.comment_ranges + lexed.string_ranges
            for run in runs:
                start = file.line_starts[run[0] - 1]
                in_context |= any(a < start < b for a, b in ranges)
                chunk = "\n".join(line_text(file, line) for line in run)
                a, p = reference_kill_sets(chunk)
                assigned |= a
                passed |= p
    return assigned, passed, in_context


def _oracle_label(rev, change, whole_file):
    emit_only = all(
        line in _oracle_emit_lines(file)
        or not _oracle_code_line(file, line)
        for pair in rev.file_pairs
        for file, lines in zip((pair.before, pair.after),
                               _oracle_changed_lines(pair))
        for line in lines)
    if emit_only:
        return ABS
    assigned, passed, _ = _reference_kill_sets(rev, whole_file)
    tokens = [t for t in change.changed_arg_tokens
              if classify_word(t) == TokenKind.IDENTIFIER]
    return DEP if any(t in assigned | passed for t in tokens) else HEU


def _random_revisions(count):
    """Seeded line edits of the snippet corpus: emits moved, dropped and
    duplicated next to comments, calls and reassignments, some of them on
    the emit's own line."""
    rng = random.Random(20230824)
    extras = ["a = b;", "emit Moved(a, b);", "// emit Plain();", "b++;",
              "wrap(a);", "emit Checked(msg.sender,\n    a);", "/* note */",
              '"emit Noted(x)";', "a = b; emit Moved(a, b);",
              "wrap(b); // emit Plain();", "emit Moved(wrap(a), b);",
              "emit Moved(a, uint(b)); b++;", ""]
    revs = []
    for i in range(count):
        lines = make_snippet(i).split("\n")
        after = list(lines)
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(after))
            roll = rng.random()
            if roll < 0.4:
                after.insert(k, rng.choice(extras))
            elif roll < 0.7:
                del after[k]
            else:
                after[k] = rng.choice(extras)
        revs.append(make_revision(f"rand{i}",
                                  ("s.sol", "\n".join(lines),
                                   "\n".join(after))))
    return revs


_DIFFERENTIAL_REVISIONS = [
    (name, shop_revision(before, after, name))
    for name, _, before, after in TAXONOMY_CASES + COMPOUND_CASES
] + [
    (name, shop_revision(before, after, name))
    for name, before, after, _, _ in INDEPENDENCE_CASES
] + [
    ("comment-and-emit", shop_revision(
        ["// old note", "emit Priced(value);"],
        ["// new note", "emit Priced(price);"], "comment-and-emit")),
    ("multi-line-emit", shop_revision(
        ["emit Sold(to,", "    amount);", "stock = amount;"],
        ["emit Sold(to,", "    value);", "stock = amount;"],
        "multi-line-emit")),
    ("file-deleted", make_revision("file-deleted",
                                   ("s.sol", make_snippet(4), None))),
    ("file-added", make_revision("file-added",
                                 ("s.sol", None, make_snippet(5)))),
] + [(rev.id, rev) for rev in _random_revisions(30)]


def _change_key(change):
    return (change.path, change.category, change.before_emit,
            change.after_emit, change.changed_arg_tokens)


@pytest.mark.parametrize("whole_file", [False, True])
@pytest.mark.parametrize("name,rev", _DIFFERENTIAL_REVISIONS,
                         ids=[n for n, _ in _DIFFERENTIAL_REVISIONS])
def test_analyze_revision_agrees_with_public_readers(name, rev, whole_file):
    report = analyze_revision(rev, whole_file)
    assert report.churn == churn(rev)
    c = report.churn
    assert (c.churned_loc, c.total_loc, c.churned_emits,
            c.total_emits) == _oracle_churn(rev)
    standalone = pair_emit_changes(rev)
    assert [_change_key(ch) for ch in report.changes] == \
        [_change_key(ch) for ch in standalone]
    for change in report.changes:
        assert change.independence == classify_independence(
            rev, change, whole_file)
        assert change.independence == _oracle_label(rev, change, whole_file)
        if change.independence != ABS:
            assert (change.independence == HEU) == \
                RevisionAnalysis.build(rev, whole_file).passes_kill_test(
                    change)
    emit_only = RevisionAnalysis.build(rev).emit_only
    assert all((ch.independence == ABS) == emit_only
               for ch in report.changes)


def test_revision_analysis_converts_no_position(monkeypatch):
    """Regex matches keep offsets, and each match's lines are read once from
    the line starts, so churn, pairing and independence build no Span."""
    counts = SpanCounts(monkeypatch)
    for _, rev in _DIFFERENTIAL_REVISIONS:
        analyze_revision(rev)
    assert counts.conversions == 0


def test_kill_sets_are_unioned_across_pairs():
    """A reassignment in one file makes an emit change in another file
    dependent: the kill test reads the revision's changed lines, not the
    pair's."""
    pair_a = ("a.sol", shop(["emit Send(msg.sender, id1);"]),
              shop(["emit Send(msg.sender, id2);"]))
    pair_b = ("b.sol", shop(["price = value;"]),
              shop(["price = value;", "id2 = compute();"]))
    alone = make_revision("a", pair_a)
    assert classify_independence(alone, pair_emit_changes(alone)[0]) == ABS
    both = make_revision("ab", pair_a, pair_b)
    report = analyze_revision(both)
    assert [ch.path for ch in report.changes] == ["a.sol"]
    assert report.changes[0].independence == DEP
    unrelated = make_revision("ac", pair_a,
                              ("b.sol", shop(["price = value;"]),
                               shop(["price = value;", "stock = 1;"])))
    assert analyze_revision(unrelated).changes[0].independence == HEU


# Multi-line fragments whose text looks like kills but sits inside block
# comments, NatSpec and strings (one continued onto a second line), and
# single lines: some edit such a fragment's inside without touching its
# opener, one opens a comment on an emit line, and some put code or a nested
# call beside an emit.
_CONTEXT_FRAGMENTS = [
    ["    /*", "    a = b;", "    wrap(a);", "    */"],
    ["    /**", "     * @notice b = wrap(a);", "     * @param a the amount",
     "     */"],
    ['    string memory s = "a = \\', '    wrap(b)";'],
    ["    /// @dev a++;"],
    ['    "emit Noted(x)";'],
    ["    a = b; /* wrap(a);", "    b = a; */ b++;"],
]
_CONTEXT_LINES = ["    a = b;", "     * @notice a = quote(b);", "wrap(a, b);",
                  "b--;", "    emit Moved(a, b);", "     */ total = a;",
                  '    wrap(a)";', "    emit Moved(a, b); /* a = b;",
                  "    b = a; emit Moved(a, b);",
                  "    emit Moved(wrap(a),\n        b = a);", ""]


def _context_revisions(count):
    """Seeded edits of snippets that hold multi-line comments, NatSpec and
    strings: fragments inserted, lines deleted, and lines replaced, so that
    some changed runs start inside a comment or string of their side."""
    rng = random.Random(20231107)
    revs = []
    for i in range(count):
        before = make_snippet(i % 50).split("\n")
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(before))
            before[k:k] = rng.choice(_CONTEXT_FRAGMENTS)
        after = list(before)
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(after))
            roll = rng.random()
            if roll < 0.3:
                after[k:k] = rng.choice(_CONTEXT_FRAGMENTS)
            elif roll < 0.5:
                del after[k]
            else:
                after[k] = rng.choice(_CONTEXT_LINES)
        revs.append(make_revision(f"ctx{i}", ("s.sol", "\n".join(before),
                                              "\n".join(after))))
    return revs


@pytest.mark.parametrize("whole_file", [False, True])
def test_kill_sets_agree_with_chunk_lexing_reference(whole_file):
    """Reading a run's kills from the side's own tokens gives the sets that
    lexing the run alone gives, except where a run starts inside a comment or
    string: there the side's lex keeps that context and the chunk loses it."""
    revs = [rev for _, rev in _DIFFERENTIAL_REVISIONS] + \
        _context_revisions(2000)
    compared = in_context = 0
    for rev in revs:
        assigned, passed, starts_inside = _reference_kill_sets(rev,
                                                               whole_file)
        if starts_inside:
            in_context += 1
            continue
        analysis = RevisionAnalysis.build(rev, whole_file)
        assert (analysis.assigned, analysis.passed) == (assigned, passed), \
            rev.id
        compared += 1
    assert in_context > 0
    assert compared >= 2000 * 3 // 4


def test_code_beside_an_emit_is_kill_scanned():
    """A changed line with code besides its emit is no emit line: the
    revision is not emit-only, and the code outside the emit is kill-scanned
    while the emit's own arguments are not."""
    def label(before, after):
        rev = shop_revision(before, after)
        [change] = analyze_revision(rev).changes
        analysis = RevisionAnalysis.build(rev)
        return (change.category, change.independence, analysis.emit_only,
                analysis.assigned, analysis.passed)

    assert label(["emit Priced(price);"],
                 ["price = 1; emit Priced(price);"]) == (
        ChangeCategory.MOVE, HEU, False, {"price"}, set())
    assert label(["emit Priced(price);"],
                 ["emit Priced(amount); price = quote(amount);"]) == (
        ChangeCategory.PARAMETER_CHANGE, DEP, False, {"price"}, {"amount"})
    # An emit inside a comment does not make its code line an emit line,
    # and pairing skips it: the deleted emit is a deletion.
    assert label(["emit Priced(price);"],
                 ["amount = 5; // emit Closed()"]) == (
        ChangeCategory.DELETION, HEU, False, {"amount"}, set())
    # Only ';' and comments beside the emits: still emit lines.
    assert label(["emit Priced(price);"],
                 ["emit Priced(amount); // was price"]) == (
        ChangeCategory.PARAMETER_CHANGE, ABS, True, set(), set())
    assert label(["emit Sold(to,", "    amount);"],
                 ["emit Sold(to,", "    value); ;"]) == (
        ChangeCategory.PARAMETER_CHANGE, ABS, True, set(), set())
    # The matcher stops at the first ')'; the emit runs on to the ')' that
    # closes its arguments.
    assert label(["emit Sold(to, amount);"],
                 ["emit Sold(to, uint(value));"]) == (
        ChangeCategory.PARAMETER_CHANGE, ABS, True, set(), set())
    assert label(["emit Sold(to, amount);"],
                 ['emit Sold(to, "a)b");']) == (
        ChangeCategory.PARAMETER_CHANGE, ABS, True, set(), set())
    assert label(["emit Sold(address(0), amount);"],
                 ["emit Sold(address(0), value); stock++;"]) == (
        ChangeCategory.PARAMETER_CHANGE, HEU, False, {"stock"}, set())
    # An argument list left open ends at the next ';', '{' or '}'.
    assert label(["emit Priced(price);"],
                 ["emit Priced(wrap(amount);", "stock = 2;"]) == (
        ChangeCategory.PARAMETER_CHANGE, HEU, False, {"stock"}, set())
    continued = RevisionAnalysis.build(shop_revision(
        ["emit Sold(address(0),", "    wrap(amount));"],
        ["emit Sold(address(0),", "    wrap(value));"]))
    assert (continued.emit_only, continued.assigned, continued.passed) == (
        True, set(), set())


@pytest.mark.parametrize("before, after", [
    (["emit Sold(address(0), amount);"], ["emit Sold(address(0), value);"]),
    (["emit Sold(address(0),", "    wrap(amount));"],
     ["emit Sold(address(0),", "    wrap(value));"]),
])
def test_pairing_and_churn_read_the_whole_argument_list(before, after):
    """The matcher stops at the first ')', inside `address(0)`; pairing and
    churn read each emit on to the ')' that closes its arguments, so a
    change after a nested call, or on an emit's continuation line, is a
    parameter change."""
    report = analyze_revision(shop_revision(before, after))
    [change] = report.changes
    assert (change.category, change.independence,
            change.changed_arg_tokens) == (
        ChangeCategory.PARAMETER_CHANGE, ABS, ["amount", "value"])
    assert report.churn.churned_emits == 2


def test_commenting_an_emit_out_is_a_deletion():
    """Pairing skips emits inside comments and strings, so commenting an emit
    out deletes it and uncommenting one adds it. Churn still counts both
    matches."""
    for before, after, category in (
            ("emit Foo(x);", "// emit Foo(x);", ChangeCategory.DELETION),
            ("/* emit Foo(x); */", "emit Foo(x);", ChangeCategory.ADDITION)):
        report = analyze_revision(shop_revision([before], [after]))
        [change] = report.changes
        assert (change.category, change.independence,
                change.changed_arg_tokens) == (category, ABS, ["x"])
        assert report.churn.churned_emits == 2


def test_kill_text_inside_a_natspec_block_does_not_kill():
    """A changed NatSpec line that reads like code is inside a comment of
    its side, so it neither reassigns `price` nor passes `amount`."""
    def body(stock, note, arg):
        return [f"stock = {stock};", "/**", f" * @notice {note}", " */",
                f"emit Priced({arg});"]

    rev = shop_revision(body(1, "quote the price", "price"),
                        body(2, "price = quote(amount);", "amount"))
    [change] = analyze_revision(rev).changes
    assert change.changed_arg_tokens == ["price", "amount"]
    assert change.independence == HEU


@pytest.mark.parametrize("whole_file", [False, True])
def test_analyze_revision_diffs_and_lexes_each_side_once(monkeypatch,
                                                         whole_file):
    """One diff per file pair. Each after side is lexed in full once; a
    before side with an after side is re-lexed from the after side's tokens
    and never lexed in full; a lone side is lexed in full once."""
    diffs = []
    lexed = []
    relexed = []
    real_diff, real_lex, real_relex = (evolution._myers, evolution.lex,
                                       evolution._relex)

    def counting_diff(a, b):
        diffs.append((a, b))
        return real_diff(a, b)

    def counting_lex(file):
        lexed.append(id(file))
        return real_lex(file)

    def counting_relex(file, base, base_size, runs):
        relexed.append(id(file))
        return real_relex(file, base, base_size, runs)

    monkeypatch.setattr(evolution, "_myers", counting_diff)
    monkeypatch.setattr(evolution, "lex", counting_lex)
    monkeypatch.setattr(evolution, "_relex", counting_relex)
    monkeypatch.setattr(scan, "lex", counting_lex)
    monkeypatch.setattr(lexer, "lex", counting_lex)
    rev = make_revision(
        "four",
        ("a.sol", make_snippet(1), make_snippet(1).replace("a > b", "a < b")),
        ("b.sol", None, make_snippet(2)),
        ("c.sol", make_snippet(3), "x = 1;\n" + make_snippet(3)),
        ("d.sol", make_snippet(4), None))
    report = analyze_revision(rev, whole_file)
    assert report.changes
    assert len(diffs) == len(rev.file_pairs)
    pairs = rev.file_pairs
    assert sorted(lexed) == sorted(
        id(p.after) if p.after is not None else id(p.before) for p in pairs)
    assert relexed == [id(p.before) for p in pairs
                       if p.before is not None and p.after is not None]


def test_a_before_side_with_an_after_side_classifies_only_its_deleted_lines(
        monkeypatch):
    """Only the side that gives a pair's totals, the after side or a lone
    side, has every line classified; a before side with an after side
    classifies just its deleted lines. The report is the same."""
    rev = make_revision(
        "four",
        ("a.sol", make_snippet(1), make_snippet(1).replace("a > b", "a < b")),
        ("b.sol", None, make_snippet(2)),
        ("c.sol", make_snippet(3), "x = 1;\n" + make_snippet(3)),
        ("d.sol", make_snippet(4),
         make_snippet(4).replace("a", "x") + "// end\n"),
        ("e.sol", make_snippet(5), None))
    plain = analyze_revision(rev)
    classified = []
    real = evolution.classify_lines

    def recording(file, lexed, lines=None):
        classified.append((id(file), None if lines is None else list(lines)))
        return real(file, lexed, lines)

    monkeypatch.setattr(evolution, "classify_lines", recording)
    assert analyze_revision(rev) == plain
    want = []
    for p in rev.file_pairs:
        if p.after is not None:
            want.append((id(p.after), None))
        if p.before is not None:
            deleted = evolution._edits(p.before, p.after)[0]
            want.append((id(p.before), None if p.after is None else
                         [line - 1 for line in sorted(deleted)
                          if line <= p.before.line_count]))
    assert classified == want
    assert any(lines for _, lines in classified)
