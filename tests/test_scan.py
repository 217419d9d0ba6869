import random

from emitlint.evolution import ChangeCategory, analyze_revision
from emitlint.lexer import lex
from emitlint.metrics import count_file_emits
from emitlint.parser import parse_file
from emitlint.scan import (
    EMIT_PATTERN, LINE_BLANK, LINE_CODE, LINE_COMMENT, classify_lines,
    count_loc, extract_emits_regex,
)

from helpers import (
    FIXTURES, count_ast_emits, fixture_file, front_end_inputs,
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


def test_block_comment_with_trailing_code_is_code():
    file = src("/* x */ uint a;\n")
    assert classify_lines(file) == [LINE_CODE]


def test_comment_markers_inside_strings_do_not_comment():
    file = src('string x = "// not a comment";\n')
    assert classify_lines(file) == [LINE_CODE]


def test_empty_file_counts_zero():
    stats = count_loc(src(""))
    assert stats.total_lines == 0
    assert stats.code_lines == 0


def test_classification_is_per_line_additive():
    for file in snippet_corpus(10):
        kinds = classify_lines(file)
        stats = count_loc(file)
        assert len(kinds) == stats.total_lines
        assert kinds.count(LINE_CODE) == stats.code_lines
        assert kinds.count(LINE_COMMENT) == stats.comment_lines
        assert kinds.count(LINE_BLANK) == stats.blank_lines


def test_line_kinds_match_the_per_character_reference():
    """Jumping over comment ranges classifies every line as stepping through
    each character does, on the sweep, the edge cases and the perfbench
    corpora."""
    seen = set()
    for file in front_end_inputs():
        lexed = lex(file)
        kinds = classify_lines(file, lexed)
        assert kinds == reference_classify_lines(file, lexed), \
            repr(file.text[:200])
        seen.update(kinds)
    assert seen == {LINE_CODE, LINE_COMMENT, LINE_BLANK}


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
    """Bisecting the comment and string ranges flags each match as testing
    every range in turn does, on the sweep, the edge cases and the
    perfbench corpora."""
    flags = set()
    for file in front_end_inputs():
        lexed = lex(file)
        matches = extract_emits_regex(file, lexed)
        assert matches == reference_extract_emits_regex(file, lexed), \
            repr(file.text[:200])
        flags.update(m.in_comment_or_string for m in matches)
    assert flags == {False, True}


def test_comment_match_leaves_the_whitespace_before_the_next_emit():
    """The fixed pattern ends in `\\s*`, so a match inside a comment takes
    the newline and indent that the next line's `\\s+emit` needs; the next
    search starts at the match's `)`, so that emit is matched all the same.
    Pairing, churn's emit total and the regex fallback count all see it."""
    body = ["// emit A()", "emit B(1);"]
    assert [(m.event_name, m.in_comment_or_string)
            for m in extract_emits_regex(src(shop(body)))] == \
        [("A", True), ("B", False)]
    assert count_file_emits(src(shop(body))) == (1, "ast")
    # A missing ';' sends the count to the regex fallback, which finds B.
    assert count_file_emits(src(shop(["// emit A()", "emit B(1)"]))) == \
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
    assert count_file_emits(file) == (1, "ast")


def test_digit_led_match_is_dropped():
    # \w+ would accept a digit-led name; such hits are not emit statements.
    assert extract_emits_regex(src(" emit 9bad(x);")) == []


def test_classifying_some_lines_gives_their_kinds_in_the_whole_file():
    """classify_lines over chosen lines gives those lines' kinds in the
    whole-file classification: every line, none, and seeded random subsets,
    on the fixtures and the snippets."""
    rng = random.Random(25)
    files = [fixture_file(p.relative_to(FIXTURES))
             for p in sorted(FIXTURES.rglob("*.sol"))] + snippet_corpus()
    for file in files:
        lexed = lex(file)
        kinds = classify_lines(file, lexed)
        every = range(file.line_count)
        for lines in (every, [], *(sorted(rng.sample(every, k))
                                   for k in (1, 3, len(every) // 2))):
            assert classify_lines(file, lexed, lines) == \
                [kinds[line] for line in lines], (file.path, lines)


def test_a_given_lex_gives_what_a_fresh_lex_gives():
    """Each per-file question answers the same whether it lexes the file
    itself or is handed the file's one lex."""
    files = [fixture_file(p.relative_to(FIXTURES))
             for p in sorted(FIXTURES.rglob("*.sol"))] + snippet_corpus()
    for file in files:
        lexed = lex(file)
        assert classify_lines(file) == classify_lines(file, lexed), file.path
        assert count_loc(file) == count_loc(file, lexed), file.path
        assert extract_emits_regex(file) == \
            extract_emits_regex(file, lexed), file.path
        assert repr(parse_file(file)) == repr(parse_file(file, lexed)), \
            file.path
