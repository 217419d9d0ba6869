import functools
import random

import emitlint.lexer as lexer
import emitlint.scan as scan
from emitlint.evolution import ChangeCategory, SideAnalysis, \
    analyze_revision
from emitlint.lexer import lex
from emitlint.parser import parse_file
from emitlint.scan import EMIT_PATTERN, _code_rows, count_loc, \
    extract_emits_regex

from helpers import (
    FIXTURES, LINE_BLANK, LINE_CODE, LINE_COMMENT, count_ast_emits,
    counted_emits, emit_splice_inputs, fixture_file, front_end_inputs,
    reference_classify_lines, reference_extract_emits_regex, shop,
    shop_revision, snippet_corpus, span_text, src,
)


def test_emit_pattern_is_the_fixed_expression():
    assert EMIT_PATTERN.pattern == r"\s+emit\s+(\w+)\s*\(([\s\S]*?)\)\s*"


def test_five_line_classification():
    file = src("uint a;\nuint b;\nuint c;\n// comment\n\n")
    stats = count_loc(file)
    assert stats.total_lines == 5
    assert stats.code_lines == 3
    assert stats.comment_lines == 1
    assert stats.blank_lines == 1
    assert stats.code_lines + stats.comment_lines + stats.blank_lines \
        == stats.total_lines


def test_mixed_code_and_comment_counts_as_code():
    file = src("uint a; // note\n")
    stats = count_loc(file)
    assert stats.code_lines == 1
    assert stats.comment_lines == 0


def test_block_comment_spanning_lines():
    file = src("uint a;\n/* one\n two\n three */\nuint b;\n")
    stats = count_loc(file)
    assert stats.comment_lines == 3
    assert stats.code_lines == 2
    # An empty or whitespace-only line inside a block comment is blank, not
    # comment-only: only the opening, the `x` and the closing line count as
    # comment lines.
    file = src("contract A {\n/*\n\n   \n x\n*/\n  uint a;\n}\n")
    assert count_loc(file) == scan.LocStats(8, 3, 3, 2)


def test_block_comment_with_trailing_code_is_code():
    file = src("/* x */ uint a;\n")
    assert count_loc(file) == scan.LocStats(1, 1, 0, 0)


def test_comment_markers_inside_strings_do_not_comment():
    file = src('string x = "// not a comment";\n')
    assert count_loc(file) == scan.LocStats(1, 1, 0, 0)


def test_empty_file_counts_zero():
    stats = count_loc(src(""))
    assert stats.total_lines == 0
    assert stats.code_lines == 0


def _kind_counts(file):
    kinds = reference_classify_lines(file, lex(file).ranges)
    return scan.LocStats(len(kinds), kinds.count(LINE_CODE),
                         kinds.count(LINE_COMMENT), kinds.count(LINE_BLANK))


# The characters that decide a line's kind: comment and string openers,
# the escape, the newline, and CR, which leaves a line blank, beside form
# feed, which does not.
_LINE_SPLICES = ("/", "*", '"', "'", "\\", "\r", "\f", "\n")

# The empty text, a text with no final newline, a lone CR and a text that
# ends in a newline.
_LINE_EDGE_TEXTS = ("", "uint a;\n// b", "\r", "uint a;\n")


@functools.lru_cache(maxsize=None)
def _line_splice_inputs():
    """3,000 seeded pieces of fixture text, each with one to six splices of
    the characters that decide a line's kind."""
    rng = random.Random(32)
    bases = [p.read_text(encoding="utf-8")
             for p in sorted(FIXTURES.rglob("*.sol"))]
    spliced = []
    for _ in range(3000):
        text = rng.choice(bases)
        at = rng.randrange(len(text) + 1)
        text = text[max(0, at - 200):at + 200]
        for _ in range(rng.randint(1, 6)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_LINE_SPLICES) * \
                rng.choice((1, 1, 2, 3)) + text[at + rng.choice((0, 1)):]
        spliced.append(src(text))
    return tuple(spliced)


def _line_inputs():
    return [*front_end_inputs(), *_line_splice_inputs(),
            *map(src, _LINE_EDGE_TEXTS)]


def test_line_kinds_match_the_per_character_reference():
    """The one code-line rule: row i of `_code_rows` is filled exactly when
    the per-character reference says line i + 1 is code, and the rows past
    the last line are empty. The rows line up with the text's lines. On the
    sweep (every fixture among it), the edge cases, the perfbench trees and
    history sides of seeds 1-5, 3,000 seeded splices of the characters that
    decide a line's kind, and the edge texts."""
    seen = set()
    for file in _line_inputs():
        ranges = lexer.scan_ranges(file.text)
        rows = _code_rows(file.text, ranges)
        kinds = reference_classify_lines(file, ranges)
        assert len(rows) == file.text.count("\n") + 1
        assert [bool(row) for row in rows[:file.line_count]] == \
            [kind == LINE_CODE for kind in kinds], repr(file.text[:200])
        assert not any(rows[file.line_count:]), repr(file.text[:200])
        seen.update(kinds)
    assert seen == {LINE_CODE, LINE_COMMENT, LINE_BLANK}


def test_classification_is_per_line_additive():
    """The per-line views add up to the line counter's totals: one kind per
    line, each kind counted as `count_loc` counts it, and the filled code
    rows are the code lines."""
    for file in snippet_corpus(10):
        ranges = lexer.scan_ranges(file.text)
        kinds = reference_classify_lines(file, ranges)
        stats = count_loc(file)
        assert len(kinds) == stats.total_lines
        assert kinds.count(LINE_CODE) == stats.code_lines
        assert kinds.count(LINE_COMMENT) == stats.comment_lines
        assert kinds.count(LINE_BLANK) == stats.blank_lines
        assert sum(map(bool, _code_rows(file.text, ranges))) == \
            stats.code_lines


def test_line_counter_equals_the_counts_of_the_line_kinds():
    """The line counter gives the counts of the kinds that the
    per-character reference gives, on the inputs of the code-row test."""
    seen = [0, 0, 0]
    for file in _line_inputs():
        stats = count_loc(file)
        assert stats == _kind_counts(file), repr(file.text[:200])
        assert count_loc(file, lex(file).ranges) == stats
        seen[0] += bool(stats.code_lines)
        seen[1] += bool(stats.comment_lines)
        seen[2] += bool(stats.blank_lines)
    assert min(seen) > 1000, seen
    assert count_loc(src("\r")) == scan.LocStats(1, 0, 0, 1)
    assert count_loc(src("uint a;\n// b")) == scan.LocStats(2, 1, 1, 0)


# ------------------------------------------------------------- emit matching

def test_client_receipt_matches_deposit():
    file = fixture_file("client_receipt.sol")
    matches = extract_emits_regex(file)
    assert len(matches) == 1
    assert matches[0].event_name == "Deposit"
    assert matches[0].raw_args == "msg.sender, _id, msg.value"
    assert not matches[0].in_comment_or_string


def test_emit_at_file_start_is_matched():
    matches = extract_emits_regex(src("emit Deposit(msg.sender, _id, msg.value);"))
    assert len(matches) == 1
    assert matches[0].event_name == "Deposit"


def test_comment_emit_is_matched_but_flagged():
    matches = extract_emits_regex(src("// emit Old(x);\n"))
    assert len(matches) == 1
    assert matches[0].event_name == "Old"
    assert matches[0].in_comment_or_string


def test_string_emit_is_matched_but_flagged():
    matches = extract_emits_regex(src('bytes memo = " emit Fake(1) ";\n'))
    assert len(matches) == 1
    assert matches[0].in_comment_or_string


def test_no_emit_no_matches():
    assert extract_emits_regex(src("contract C { uint a; }\n")) == []


def test_emit_word_without_call_shape_is_not_matched():
    assert extract_emits_regex(src("uint emitter = 1;\n")) == []


def test_match_span_covers_emit_through_close_paren():
    file = src("contract C { function f() public {\n    emit E(1, 2);\n} }\n")
    match = extract_emits_regex(file)[0]
    assert span_text(file, match.span) == "emit E(1, 2)"


def test_multiline_emit_matches_once():
    file = src("""contract C {
    function f(uint a, uint b) public {
        emit Moved(
            a,
            b
        );
    }
}
""")
    matches = extract_emits_regex(file)
    assert len(matches) == 1
    assert matches[0].span.start_line == 3
    assert matches[0].span.end_line == 6


def test_agreement_with_ast_on_clean_corpus():
    """On files with no parse issues and no flagged matches, the textual count
    equals the AST emit count."""
    for file in snippet_corpus(50):
        unit = parse_file(file)
        assert unit.parse_errors == [], (file.path, unit.parse_errors)
        matches = extract_emits_regex(file)
        assert not any(m.in_comment_or_string for m in matches), file.path
        assert len(matches) == count_ast_emits(unit), file.path


def test_extraction_determinism():
    file = fixture_file("gas", "pos_01_setdelay.sol")
    assert extract_emits_regex(file) == extract_emits_regex(file)


def test_bom_is_stripped_before_analysis():
    file = src("﻿contract C { uint a; }\n")
    assert not file.text.startswith("﻿")
    assert count_loc(file).code_lines == 1


def test_crlf_input_classifies_like_lf():
    file = src("uint a;\r\n// note\r\n\r\nuint b;\r\n")
    stats = count_loc(file)
    assert (stats.code_lines, stats.comment_lines, stats.blank_lines) == (2, 1, 1)


def test_emit_matches_match_the_linear_flag_reference():
    """Trying the pattern once per keyword finds what the reference's
    search finds, and bisecting the comment and string ranges flags each
    match as testing every range in turn does, on the sweep, the edge
    cases, the perfbench corpora and the seeded emit splices."""
    flags = set()
    for file in (*front_end_inputs(), *emit_splice_inputs()):
        ranges = lex(file).ranges
        matches = extract_emits_regex(file, ranges)
        assert matches == reference_extract_emits_regex(file, ranges), \
            repr(file.text[:200])
        flags.update(m.in_comment_or_string for m in matches)
    assert flags == {False, True}


def test_line_counts_and_matches_scan_ranges_without_lexing(monkeypatch):
    """Without `ranges`, `count_loc` and `extract_emits_regex` read only
    the file's comment and string ranges, so they scan those and lex no
    token; they answer as they do from a full lex, on every fixture."""
    files = [fixture_file(*p.relative_to(FIXTURES).parts)
             for p in sorted(FIXTURES.rglob("*.sol"))]
    want = [(count_loc(f, lex(f).ranges),
             extract_emits_regex(f, lex(f).ranges)) for f in files]
    scans = []
    real_scan = lexer._scan

    def counting_scan(*args):
        scans.append(args[1:3])
        real_scan(*args)

    monkeypatch.setattr(lexer, "_scan", counting_scan)
    got = [(count_loc(f), extract_emits_regex(f)) for f in files]
    assert scans == []
    assert got == want
    lex(files[0])
    assert scans, "the counter sees lex"


def test_comment_match_leaves_the_whitespace_before_the_next_emit():
    """The fixed pattern ends in `\\s*`, so a match inside a comment takes
    the newline and indent that the next line's `\\s+emit` needs; the next
    search starts at the match's `)`, so that emit is matched all the same.
    Pairing, churn's emit total and the regex fallback count all see it."""
    body = ["// emit A()", "emit B(1);"]
    assert [(m.event_name, m.in_comment_or_string)
            for m in extract_emits_regex(src(shop(body)))] == \
        [("A", True), ("B", False)]
    assert counted_emits(src(shop(body))) == (1, "ast")
    # A missing ';' sends the count to the regex fallback, which finds B.
    assert counted_emits(src(shop(["// emit A()", "emit B(1)"]))) == \
        (1, "regex")
    # The edit of B is a change of B, with or without the comment line
    # before it; the comment's match only adds to churn's emit total.
    for lines, total in ((body, 2), (body[1:], 1)):
        report = analyze_revision(
            shop_revision(lines, [*lines[:-1], "emit B(2);"]))
        assert [c.category for c in report.changes] == \
            [ChangeCategory.PARAMETER_CHANGE]
        assert (report.churn.churned_emits, report.churn.total_emits) == \
            (2, total)


def test_emit_glued_to_the_previous_token_is_not_matched():
    """A known weakness the fixed pattern keeps: it needs whitespace before
    `emit`, so after `a;` the emit is not matched, though the tree counts
    it."""
    file = src(shop(["uint local = 1;emit B(local);"]))
    assert extract_emits_regex(file) == []
    assert counted_emits(file) == (1, "ast")


class _CountingPattern:
    """Stands in for scan.EMIT_PATTERN and counts the offsets at which the
    pattern is tried: one per `match`, and, per `search`, every offset from
    its start up to its match, or to the end of the text."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.tries = 0

    def match(self, text, pos=0):
        self.tries += 1
        return self.pattern.match(text, pos)

    def search(self, text, pos=0):
        m = self.pattern.search(text, pos)
        self.tries += (len(text) if m is None else m.start() + 1) - pos
        return m


def test_the_pattern_is_tried_at_most_once_per_emit(monkeypatch):
    """Before a whitespace run of 1,000, 10,000 and 100,000 characters, and
    over 500, 1,000 and 2,000 `emit A(x` with no ')' after them, the
    pattern is tried at most once per `emit` in the text, and never past
    the last ')'. A search would try it at every character of the run, each
    try running on to the run's end."""
    counter = _CountingPattern(scan.EMIT_PATTERN)
    monkeypatch.setattr(scan, "EMIT_PATTERN", counter)
    for width in (1000, 10_000, 100_000):
        text = "contract C {\n" + " " * width + \
            "uint x = f(1);\n    emit A(x);\n}\n"
        counter.tries = 0
        assert [m.event_name for m in extract_emits_regex(src(text))] == ["A"]
        assert counter.tries <= text.count("emit"), (width, counter.tries)
    for count in (500, 1000, 2000):
        for text in (" emit A(x" * count, "f(1);" + " emit A(x" * count):
            counter.tries = 0
            assert extract_emits_regex(src(text)) == []
            assert counter.tries == 0, (count, counter.tries)
        # One ')' at the end closes the first emit, which holds the rest.
        counter.tries = 0
        assert len(extract_emits_regex(src(" emit A(x" * count + ")"))) == 1
        assert counter.tries == 1, (count, counter.tries)


def test_digit_led_match_is_dropped():
    # \w+ would accept a digit-led name; such hits are not emit statements.
    assert extract_emits_regex(src(" emit 9bad(x);")) == []


def test_classifying_some_lines_gives_their_kinds_in_the_whole_file():
    """A side's changed lines count as code exactly where the whole-file
    classification says code: every line, none, and seeded random subsets,
    on the fixtures and the snippets, with and without the totals."""
    rng = random.Random(25)
    files = [fixture_file(p.relative_to(FIXTURES))
             for p in sorted(FIXTURES.rglob("*.sol"))] + snippet_corpus()
    for file in files:
        kinds = reference_classify_lines(file, lexer.scan_ranges(file.text))
        every = range(1, file.line_count + 1)
        for lines in (every, [], *(sorted(rng.sample(every, k))
                                   for k in (1, 3, len(every) // 2))):
            want = sum(kinds[line - 1] == LINE_CODE for line in lines)
            for count_total in (False, True):
                side = SideAnalysis.build(file, set(lines), False,
                                          count_total)
                assert side.churned_loc == want, (file.path, lines)


def test_a_given_lex_gives_what_a_fresh_lex_gives():
    """Each per-file question answers the same whether it lexes the file
    itself or is handed the file's one lex."""
    files = [fixture_file(p.relative_to(FIXTURES))
             for p in sorted(FIXTURES.rglob("*.sol"))] + snippet_corpus()
    for file in files:
        lexed = lex(file)
        assert reference_classify_lines(file, lexer.scan_ranges(file.text)) \
            == reference_classify_lines(file, lexed.ranges), file.path
        assert count_loc(file) == count_loc(file, lexed.ranges), file.path
        assert extract_emits_regex(file) == \
            extract_emits_regex(file, lexed.ranges), file.path
        assert repr(parse_file(file)) == repr(parse_file(file, lexed)), \
            file.path
