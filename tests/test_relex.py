"""`diff` lexes only the tokens each side reads. `lexer.scan_ranges` finds a
side's comment and string ranges without its tokens, `evolution._close`
lexes the open emits that share a stop once, from the first one's keyword
to the stop, and `evolution._lex_gaps` lexes the line windows of
`evolution._windows` only outside the closed matches. Each must give what a
full `lex` gives: the same ranges, the same closed matches as the walk over
a full lex (`reference_close`), the same tokens as a full lex cut to the
windows and around the closed matches (`reference_token_cut`), and the same
`SideAnalysis` as one built from a full lex of the side. A before side with
an after side searches for emits only from a safe start before its windows
(`scan._safe_start`), and must answer as a whole-text search does."""

import random
import re
from bisect import bisect_right

import pytest

import emitlint.evolution as evolution
import emitlint.lexer as lexer
import emitlint.scan as scan
from emitlint.cli import load_manifest
from emitlint.evolution import SideAnalysis, analyze_revision
from emitlint.lexer import lex, scan_ranges
from emitlint.scan import extract_emits_regex, range_at
from emitlint.source import SourceFile

from helpers import (
    FIXTURES, bench_history_sides, bench_revisions, bench_tree,
    emit_splice_inputs, make_revision, reference_close, reference_token_cut,
    src,
)
from test_evolution import _DIFFERENTIAL_REVISIONS, _context_revisions


def full_lex_build(file: SourceFile, changed: set[int], whole_file: bool,
                   count_total: bool) -> SideAnalysis:
    """SideAnalysis.build with the ranges of a full lex in place of
    `scan_ranges`, and the tokens of a full lex of the whole text, less
    those inside the closed matches (`reference_token_cut`), in place of
    the gap scans over the windows. It shares `_close`, which the close
    tests below check against `reference_close`."""
    real = evolution.scan_ranges, evolution._lex_gaps
    evolution.scan_ranges = lambda text: lex(file).ranges
    evolution._lex_gaps = lambda text, windows, closed: \
        reference_token_cut(file, [[0, len(text)]], closed)
    try:
        return SideAnalysis.build(file, changed, whole_file, count_total)
    finally:
        evolution.scan_ranges, evolution._lex_gaps = real


def assert_windows_equal_full_lex(before: SourceFile | None,
                                  after: SourceFile | None,
                                  whole_file: bool) -> None:
    """Both sides of a pair, built as RevisionAnalysis builds them."""
    deleted, added = evolution._edits(before, after)
    for file, changed, count_total in ((after, added, True),
                                       (before, deleted, after is None)):
        if file is not None:
            args = file, changed, whole_file, count_total
            assert SideAnalysis.build(*args) == full_lex_build(*args), \
                (file.text, sorted(changed), whole_file)


def starts_inside_a_range(file: SourceFile, lines: set[int]) -> bool:
    """Whether one of lines starts inside a comment or a string, so its
    window must start earlier."""
    ranges = lex(file).ranges
    return any(a < file.line_starts[line - 1] < b
               for line in lines if line <= len(file.line_starts)
               for a, b in ranges)


# ----------------------------------------------------------------- ranges

_SNIPPETS = ("/*", "*/", "//", '"', "'", "\\\n", "1.5", "1.a", "1e+5", "1e+x",
             "0x", ">>=", "\n", "\r\n", " ", "x", ";", "}")


def _fixture_texts() -> list[str]:
    return [path.read_text(encoding="utf-8")
            for path in sorted(FIXTURES.rglob("*.sol"))]


def _assert_ranges_equal_lex(text: str) -> None:
    assert scan_ranges(text) == lex(src(text)).ranges, text


def test_range_scan_equals_lex_on_every_fixture():
    texts = _fixture_texts()
    assert len(texts) >= 50
    for text in texts:
        _assert_ranges_equal_lex(text)


def test_range_scan_equals_lex_on_seeded_splices():
    """5,000 fixture texts with one to six splices of comment and string
    openers and closers, backslashes, numbers and '/=' at random points."""
    rng = random.Random(27)
    splices = _SNIPPETS + ("\\", "1e+", "/=")
    texts = _fixture_texts()
    unterminated = 0
    for _ in range(5000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 6)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(splices) + \
                text[at + rng.choice((0, 0, 1, 2)):]
        _assert_ranges_equal_lex(text)
        unterminated += bool(lex(src(text)).errors)
    assert unterminated >= 1000


# ---------------------------------------------------------- pinned cases

def test_number_split_by_a_one_character_edit():
    """`1.a` lexes as `1`, `.`, `a`, and `1e+x` as `1`, `e`, `+`, `x`: an
    edit of one character splits or joins a number. Each side reads its own
    tokens, whatever the other side holds."""
    for old, new in (("x = 1.5;", "x = 1.a;"), ("y = 1e+5;", "y = 1e+x;")):
        for before, after in ((old, new), (new, old)):
            for whole_file in (False, True):
                assert_windows_equal_full_lex(
                    src(f"{before}\nemit A({before[0]});\n"),
                    src(f"{after}\nemit A({after[0]});\n"), whole_file)


def test_exponent_needs_three_characters_of_margin():
    """`1` in `1e+x` reads three characters past its end: `e`, `+` and
    `x`. A window ends at a line start or at a comment or string's end,
    never right after a number, so that look-ahead stays inside it: an emit
    argument edited between `1e+5` and `1e+x` lexes as in a full lex,
    either way."""
    assert lex(src("y = 1e+5;")).lexemes == ["y", "=", "1e+5", ";"]
    assert lex(src("y = 1e+x;")).lexemes == \
        ["y", "=", "1", "e", "+", "x", ";"]
    old, new = "emit A(1e+5);\n", "emit A(1e+x);\n"
    for before, after in ((old, new), (new, old)):
        for whole_file in (False, True):
            assert_windows_equal_full_lex(src("uint y;\n" + before),
                                          src("uint y;\n" + after),
                                          whole_file)


def test_block_comment_opened_in_an_edit_swallows_kept_lines():
    body = "".join(f"uint v{i} = {i};\n" for i in range(20))
    before = src("/* note\n" + body + "*/\nuint w;\n")
    after = src("// note\n" + body + "*/\nuint w;\nw = 1;\n")
    for whole_file in (False, True):
        assert_windows_equal_full_lex(before, after, whole_file)
        assert_windows_equal_full_lex(after, before, whole_file)


def test_a_string_continued_past_a_changed_line():
    """A window that would end inside a string ends after it instead: the
    string beside the emit makes its changed line no emit line."""
    before = src('x = 1;\nemit A(x); "a\\\nb";\ny = 2;\n')
    after = src('x = 1;\nemit A(z); "a\\\nb";\ny = 2;\n')
    for whole_file in (False, True):
        assert_windows_equal_full_lex(before, after, whole_file)
    rev = make_revision("r", ("a.sol", before.text, after.text))
    assert not evolution.RevisionAnalysis.build(rev).emit_only


def test_a_lex_error_needs_no_fallback():
    """An unterminated string or comment on either side: the windows still
    give a full lex's answers, and SideAnalysis reads no lex error."""
    clean = src('string s = "a";\nuint x;\nx = 1;\nemit A(x);\n')
    for broken in (src('string s = "a;\nuint x;\nx = 2;\nemit A(x);\n'),
                   src('/* string s = "a";\nuint x;\nx = 2;\nemit A(x);\n')):
        assert lex(broken).errors
        for whole_file in (False, True):
            assert_windows_equal_full_lex(broken, clean, whole_file)
            assert_windows_equal_full_lex(clean, broken, whole_file)


# ---------------------------------------------------- seeded differential

def _edit(rng: random.Random, text: str) -> str:
    """One random edit: an insert, a delete or a replacement from _SNIPPETS,
    at a point on the first line, the last line or anywhere; or the trailing
    newline removed or added; or CRLF line ends."""
    roll = rng.random()
    if roll < 0.06:
        return text[:-1] if text.endswith("\n") else text + "\n"
    if roll < 0.1:
        return text.replace("\n", "\r\n") if rng.random() < 0.5 else \
            text.replace("\n", "\r\n", rng.randint(1, 5))
    place = rng.random()
    if place < 0.2 or not text:
        at = rng.randint(0, min(len(text), 12))
    elif place < 0.4:
        at = rng.randint(text.rfind("\n", 0, max(len(text) - 1, 0)) + 1,
                         len(text))
    else:
        at = rng.randint(0, len(text))
    cut = rng.choice((0, 0, 1, 2, 3))
    return text[:at] + rng.choice(_SNIPPETS) * rng.choice((0, 1, 1, 1, 2)) \
        + text[at + cut:]


def _seeded_cases(seed: int, count: int):
    """count (before, after) pairs: 1-4 edits of a fixture file, taken in
    either direction."""
    rng = random.Random(seed)
    texts = _fixture_texts()
    for _ in range(count):
        original = rng.choice(texts)
        edited = original
        for _ in range(rng.randint(1, 4)):
            edited = _edit(rng, edited)
        yield (original, edited) if rng.random() < 0.5 \
            else (edited, original)


def test_relex_equals_lex_on_seeded_edits_of_the_fixtures():
    """3,000 cases in both kill modes. Many of them hold a lex error, and
    many have a changed line that starts inside a comment or a string."""
    errors = inside = 0
    for before, after in _seeded_cases(24, 3000):
        before, after = src(before), src(after)
        for whole_file in (False, True):
            assert_windows_equal_full_lex(before, after, whole_file)
        errors += bool(lex(before).errors or lex(after).errors)
        deleted, added = evolution._edits(before, after)
        inside += starts_inside_a_range(before, deleted) or \
            starts_inside_a_range(after, added)
    assert errors >= 500
    assert inside >= 150


def _manifest_and_case_pairs():
    pairs = [pair
             for manifest in sorted(FIXTURES.glob("manifests/*/manifest.json"))
             for rev in load_manifest(str(manifest))[0]
             for pair in rev.file_pairs]
    pairs += [pair for _, rev in _DIFFERENTIAL_REVISIONS
              for pair in rev.file_pairs]
    return pairs


def test_relex_equals_lex_on_every_manifest_and_case_pair():
    pairs = _manifest_and_case_pairs()
    assert len(pairs) > 50
    for pair in pairs:
        for whole_file in (False, True):
            assert_windows_equal_full_lex(pair.before, pair.after,
                                          whole_file)
            assert_windows_equal_full_lex(pair.after, pair.before,
                                          whole_file)


def test_windows_equal_a_full_lex_on_context_revisions():
    """Edits of multi-line comments, NatSpec and strings, where changed
    lines start inside a range of their side."""
    inside = 0
    for rev in _context_revisions(2000):
        [pair] = rev.file_pairs
        for whole_file in (False, True):
            assert_windows_equal_full_lex(pair.before, pair.after,
                                          whole_file)
        deleted, added = evolution._edits(pair.before, pair.after)
        inside += starts_inside_a_range(pair.before, deleted) or \
            starts_inside_a_range(pair.after, added)
    assert inside >= 200


def test_window_edges_are_line_starts_or_range_edges_never_inside_one():
    """A window starts at a line start or at the start of a comment or
    string, and ends at a line start, at the end of a comment or string, or
    at EOF; no edge lies strictly inside a range. A line edge inside a range
    moves out to that range's own edge. Seeded edits of the fixtures, and
    the context revisions, whose changed lines start inside ranges."""
    pairs = [(src(before), src(after))
             for before, after in _seeded_cases(28, 500)]
    pairs += [(pair.before, pair.after) for rev in _context_revisions(2000)
              for pair in rev.file_pairs]
    moved = 0
    for before, after in pairs:
        deleted, added = evolution._edits(before, after)
        for file, changed in ((before, deleted), (after, added)):
            ranges = lex(file).ranges
            windows = evolution._windows(file, ranges, changed)
            bounds = [x for window in windows for x in window]
            assert bounds == sorted(bounds)
            assert all(a < b for a, b in zip(bounds[1::2], bounds[2::2]))
            range_starts = {a for a, _ in ranges}
            range_ends = {b for _, b in ranges}
            for a, b in windows:
                assert a in file.line_starts or a in range_starts
                assert b == len(file.text) or b in file.line_starts or \
                    b in range_ends
                moved += a not in file.line_starts
                moved += b != len(file.text) and b not in file.line_starts
            for x in bounds:
                assert not any(a < x < b for a, b in ranges)
    assert moved >= 500, moved


def _inside_a_full_lex_piece(file: SourceFile):
    """Whether an offset lies strictly inside a token, comment or string of
    a full lex of file."""
    lexed = lex(file)
    pieces = sorted({(start, start + len(lexeme)) for start, lexeme in zip(
        lexed.starts, lexed.lexemes)} | set(lexed.ranges))
    starts = [a for a, _ in pieces]

    def inside(x: int) -> bool:
        i = bisect_right(starts, x) - 1
        return i >= 0 and pieces[i][0] < x < pieces[i][1]

    return inside


def test_every_scan_starts_and_stops_at_a_token_boundary(monkeypatch):
    """No scan that `_close` or `_lex_gaps` starts during
    `SideAnalysis.build` starts or stops strictly inside a token, comment
    or string of the side's full lex: there `_scan` gives that lex's
    tokens. Both sides of the seeded edits and of every manifest and case
    pair, in both kill modes."""
    real_scan = evolution._scan
    edges: list[tuple[int, int]] = []

    def recording_scan(text, pos, endpos, *rest):
        edges.append((pos, endpos))
        real_scan(text, pos, endpos, *rest)

    monkeypatch.setattr(evolution, "_scan", recording_scan)
    pairs = [(src(before), src(after))
             for before, after in _seeded_cases(24, 3000)]
    pairs += [(pair.before, pair.after)
              for pair in _manifest_and_case_pairs()]
    scans = off_line = 0
    for before, after in pairs:
        deleted, added = evolution._edits(before, after)
        for file, changed in ((before, deleted), (after, added)):
            if file is None:
                continue
            inside = _inside_a_full_lex_piece(file)
            for whole_file in (False, True):
                edges.clear()
                SideAnalysis.build(file, changed, whole_file, True)
                for pos, endpos in edges:
                    assert not inside(pos) and not inside(endpos), \
                        (file.text, sorted(changed), whole_file, pos, endpos)
                    off_line += pos not in file.line_starts
                scans += len(edges)
    assert scans > 10_000 and off_line > 1000, (scans, off_line)


# ------------------------------------------------------------------- gaps

def _assert_gaps_equal_token_cut(file: SourceFile, changed: set[int]) -> int:
    """In both kill modes, the gap scans over the side's windows give the
    columns of `reference_token_cut` over the same windows and closed
    matches. Returns the number of closed matches that start inside an
    earlier one."""
    ranges = scan_ranges(file.text)
    matches = evolution._close(file.text, extract_emits_regex(file), ranges)
    closed = [m for m in matches if not m.in_comment_or_string]
    for lines in (changed, set(range(1, file.line_count + 1))):
        windows = evolution._windows(file, ranges, lines)
        assert evolution._lex_gaps(file.text, windows, closed) == \
            reference_token_cut(file, windows, closed), \
            (file.text, sorted(lines))
    held = reach = 0
    for m in closed:
        held += m.start < reach
        reach = max(reach, m.end)
    return held


def test_gap_scans_equal_the_token_cut_of_a_full_lex():
    """Every fixture with a seeded third of its lines changed; both sides of
    every manifest and case pair and of the context revisions; and the
    manifest sides of seeds 1-3 of both benchmark workloads."""
    rng = random.Random(28)
    sides = []
    for text in _fixture_texts():
        file = src(text)
        lines = range(1, file.line_count + 1)
        sides.append((file, set(rng.sample(lines, len(lines) // 3))))
    pairs = _manifest_and_case_pairs()
    pairs += [pair for rev in _context_revisions(2000)
              for pair in rev.file_pairs]
    pairs += [pair for workload in ("project", "monolith")
              for seed in (1, 2, 3) for rev in bench_revisions(workload, seed)
              for pair in rev.file_pairs]
    for pair in pairs:
        deleted, added = evolution._edits(pair.before, pair.after)
        sides += [(file, changed) for file, changed in
                  ((pair.before, deleted), (pair.after, added))
                  if file is not None]
    assert len(sides) > 4000
    for file, changed in sides:
        _assert_gaps_equal_token_cut(file, changed)


def test_a_closed_match_inside_another_lexes_no_token():
    """`emit A(")", emit B(1), (x));`: A's first ')' lies in a string, so A
    closes past B, and B's closed match lies inside A's. The gap after B
    resumes at A's end, so no token of A is lexed and the line stays an
    emit line."""
    before = src('x = 1;\n    emit A(")", emit B(1), (x));\ny = 2;\n')
    after = src('x = 1;\n    emit A(")", emit B(2), (x));\ny = 2;\n')
    assert _assert_gaps_equal_token_cut(after, {2}) == 1
    for whole_file in (False, True):
        assert_windows_equal_full_lex(before, after, whole_file)
    rev = make_revision("r", ("a.sol", before.text, after.text))
    assert evolution.RevisionAnalysis.build(rev).emit_only


# ------------------------------------------------------------------ close

def _assert_close_equals_reference(file: SourceFile) -> tuple[int, int]:
    """Every match outside comments and strings closes as the walk over a
    full lex closes it. Returns the number of such matches and the number
    that took the walk."""
    lexed = lex(file)
    found = extract_emits_regex(file, lexed.ranges)
    closed = evolution._close(file.text, found, lexed.ranges)
    assert len(closed) == len(found)
    matches = walked = 0
    for m, got in zip(found, closed):
        if m.in_comment_or_string:
            assert got is m
            continue
        assert got == reference_close(m, lexed), (file.text, m)
        matches += 1
        walked += "(" in m.raw_args or \
            range_at(lexed.ranges, m.end - 1) is not None
    return matches, walked


def test_close_equals_the_full_lex_walk_on_fixtures_and_benchmark_inputs():
    """Every fixture, and the trees and manifest sides of seeds 1-3 of both
    benchmark workloads."""
    files = [src(text) for text in _fixture_texts()]
    for workload in ("project", "monolith"):
        for seed in (1, 2, 3):
            files += bench_tree(workload, seed)
            files += bench_history_sides(workload, seed)
    matches = walked = 0
    for file in files:
        m, w = _assert_close_equals_reference(file)
        matches += m
        walked += w
    assert matches > 3000 and walked > 20, (matches, walked)


_CLOSE_SPLICES = ("(", ")", ";", "{", "}", '"', "'", "//", "/*", "*/", "\\",
                  "@", "\n")


def test_close_equals_the_full_lex_walk_on_seeded_splices():
    """20,000 pieces of fixture text around an emit, each with one to four
    splices of parentheses, stops, quotes, comment marks, backslashes, a
    bad character and newlines, mostly just past the emit keyword."""
    rng = random.Random(31)
    pieces = [text[max(0, m.start() - 80):m.start() + 160]
              for text in _fixture_texts()
              for m in re.finditer(r"\bemit\b", text)]
    assert len(pieces) > 100
    walked = 0
    for _ in range(20_000):
        text = rng.choice(pieces)
        emit = text.find("emit")
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(emit + 5, len(text)) if rng.random() < 0.8 \
                else rng.randint(0, len(text))
            text = text[:at] + rng.choice(_CLOSE_SPLICES) + \
                text[at + rng.choice((0, 0, 1)):]
        walked += _assert_close_equals_reference(src(text))[1]
    assert walked >= 1000, walked


def test_close_equals_the_full_lex_walk_on_the_emit_splices():
    """The seeded emit splices that the matcher's differential reads:
    Unicode whitespace, emits nested in another's arguments, and texts with
    no ')' or none past the last emit."""
    walked = sum(_assert_close_equals_reference(file)[1]
                 for file in emit_splice_inputs())
    assert walked >= 1000, walked


# --------------------------------------------------------- bounded search

# The fields of a side that RevisionAnalysis.build reads, totals aside.
_READ_FIELDS = ("churned_loc", "changed_emits", "emit_only", "assigned",
                "passed")


def _assert_bounded_equals_whole(file: SourceFile, changed: set[int],
                                 whole_file: bool) -> bool:
    """A before side built with the bounded emit search answers as one
    built with the whole-text search, and counts no totals. Its matches are
    the whole text's matches whose keyword lies from the safe start to the
    end of the last window, and every match before the safe start ends,
    closed, before the first window. Whether the safe start lies past 0."""
    bounded = SideAnalysis.build(file, changed, whole_file, False)
    whole = SideAnalysis.build(file, changed, whole_file, True)
    assert [getattr(bounded, f) for f in _READ_FIELDS] == \
        [getattr(whole, f) for f in _READ_FIELDS], \
        (file.text, sorted(changed), whole_file)
    assert (bounded.total_loc, bounded.total_emits) == (None, None)
    lines = set(range(1, file.line_count + 1)) if whole_file else changed
    ranges = scan_ranges(file.text)
    windows = evolution._windows(file, ranges, lines)
    if not windows:
        return False
    a, b = windows[0][0], windows[-1][1]
    start = scan._safe_start(file.text, ranges, a)
    every = extract_emits_regex(file, ranges)
    assert extract_emits_regex(file, ranges, (a, b)) == \
        [m for m in every if start <= m.start < b], file.text
    for m in evolution._close(file.text, every, ranges):
        if m.start < start:
            assert m.end <= a, (file.text, m)
    return start > 0


def _before_sides(pairs):
    """The before side of each pair that has both, with its deleted
    lines."""
    for before, after in pairs:
        if before is not None and after is not None:
            yield before, evolution._edits(before, after)[0]


def test_bounded_search_equals_the_whole_search_on_seeded_edits():
    """The 3,000 seeded edits of the fixtures, in both kill modes."""
    bounded = 0
    for file, deleted in _before_sides(
            (src(before), src(after))
            for before, after in _seeded_cases(24, 3000)):
        for whole_file in (False, True):
            bounded += _assert_bounded_equals_whole(file, deleted,
                                                    whole_file)
    assert bounded >= 1000, bounded


def test_bounded_search_equals_the_whole_search_on_pairs_and_contexts():
    """Every manifest and case pair, taken both ways, and the context
    revisions, whose changed lines start inside comments and strings."""
    pairs = [(pair.before, pair.after)
             for pair in _manifest_and_case_pairs()]
    pairs += [(after, before) for before, after in pairs]
    pairs += [(pair.before, pair.after) for rev in _context_revisions(2000)
              for pair in rev.file_pairs]
    bounded = 0
    for file, deleted in _before_sides(pairs):
        for whole_file in (False, True):
            bounded += _assert_bounded_equals_whole(file, deleted,
                                                    whole_file)
    assert bounded >= 1000, bounded


def test_windowed_rows_equal_the_whole_text_rows():
    """A before side with an after side builds code rows only from its
    first to its last deleted line, cutting the block comments that cross
    those edges; its rows equal the whole text's rows there, and its
    churned_loc counts the deleted lines that the whole text's rows fill.
    The 3,000 seeded edits of the fixtures and every manifest and case
    pair, taken both ways."""
    pairs = [(src(before), src(after))
             for before, after in _seeded_cases(24, 3000)]
    pairs += [(pair.before, pair.after)
              for pair in _manifest_and_case_pairs()]
    pairs += [(after, before) for before, after in pairs]
    cut = 0
    for file, deleted in _before_sides(pairs):
        if not deleted:
            continue
        text, starts = file.text, file.line_starts
        ranges = scan_ranges(text)
        whole = scan._code_rows(text, ranges)
        first, last = min(deleted), max(deleted)
        lo = starts[first - 1]
        hi = starts[last] if last < len(starts) else len(text)
        rows = scan._code_rows(text, ranges, lo, hi)
        assert rows[:last - first + 1] == whole[first - 1:last], \
            (text, sorted(deleted))
        side = SideAnalysis.build(file, deleted, False, False)
        assert side.churned_loc == sum(1 for line in deleted
                                       if whole[line - 1]), text
        cut += any(a < edge < b for a, b in ranges for edge in (lo, hi))
    assert cut >= 100, cut


_HEAD = ["contract C {", "    function f() public {", "        x = g(1);"]
_TAIL = ["        z = 3;", "    }", "}", ""]


@pytest.mark.parametrize("body, edited", [
    # An open emit whose continuation line is edited.
    (["        emit A(f(x),", "            y);"], 2),
    # An open emit whose stop lies in the window.
    (["        emit A(b(c),", "            d", "        );"], 3),
    # A match inside a comment just before the window, whose ')' lies in
    # the window.
    (["        // emit A(", "        y = f(z);"], 2),
    (["        /* emit A( */", "        y = f(z);"], 2),
    # A ';' or ')' inside a string just before the window is no stop.
    (['        emit A(f(x), "q;",', "            y);"], 2),
    (["        emit A(f(x),", '            ");)",', "            y);"], 3),
    (['        s = ";)"; emit A(f(x),', "            y);"], 2),
    # A ';' inside a comment just before the window is no stop either.
    (["        emit A(f(x), // ;", "            y);"], 2),
    # A stop inside the arguments: the match runs past the last stop before
    # the window, so the search starts at the ')' before that stop.
    (["        emit A(x;", "            y);"], 2),
])
def test_bounded_search_keeps_the_emits_that_reach_the_window(body, edited):
    """Shapes where a match that starts before the window reaches into it:
    the bounded search still finds it, and the side answers as the whole
    search does."""
    lines = _HEAD + body + _TAIL
    file = src("\n".join(lines))
    changed = {len(_HEAD) + edited}
    assert _assert_bounded_equals_whole(file, changed, False)
    side = SideAnalysis.build(file, changed, False, False)
    assert [m.event_name for m, _ in side.changed_emits] == ["A"], body


# ------------------------------------------------------------------- work

class _CountingRegex:
    """Stands in for lexer._TOKEN_RE and counts the matches it yields."""

    def __init__(self, regex):
        self.regex = regex
        self.matches = 0

    def finditer(self, *args):
        for m in self.regex.finditer(*args):
            self.matches += 1
            yield m


@pytest.mark.parametrize("edit", ["uint y = 1;", "emit Moved(a, b);", ""])
def test_one_line_edit_relexes_a_fixed_number_of_matches(monkeypatch, edit):
    """A one-line edit in the middle of a 500-, 1,000- and 2,000-line file
    lexes the same number of matches on its two sides together, give or
    take a constant."""
    counts = []
    for lines in (500, 1000, 2000):
        body = [f"        total{i} = total{i} + {i}; // step {i}"
                for i in range(lines)]
        after = "\n".join(body) + "\n"
        body[lines // 2] = "        " + edit
        rev = make_revision("r", ("a.sol", "\n".join(body) + "\n", after))
        want = analyze_revision(rev)
        counter = _CountingRegex(lexer._TOKEN_RE)
        monkeypatch.setattr(lexer, "_TOKEN_RE", counter)
        got = analyze_revision(rev)
        monkeypatch.undo()
        assert got == want
        counts.append(counter.matches)
    assert max(counts) - min(counts) <= 2, counts
    assert max(counts) < 60, counts


def test_open_emits_that_share_a_stop_lex_it_once(monkeypatch):
    """A side that adds 500, 1,000 and 2,000 lines `emit A(b(c) x`, whose
    argument lists stay open up to one '}', hands `_scan` no more
    characters than the side holds: its open emits share one lex of their
    stop region. A lex per emit, each from its keyword to the stop, would
    hand it about k * n / 2 characters."""
    real_scan = evolution._scan
    for k in (500, 1000, 2000):
        text = "contract C { function f() public {\n" + \
            "    emit A(b(c) x\n" * k + "    }\n}\n"
        file = src(text)
        handed = []

        def counting_scan(text, pos, endpos, *rest):
            handed.append(endpos - pos)
            real_scan(text, pos, endpos, *rest)

        monkeypatch.setattr(evolution, "_scan", counting_scan)
        side = SideAnalysis.build(file, set(range(2, k + 2)), False, True)
        monkeypatch.undo()
        assert sum(handed) <= len(text), (k, sum(handed), len(text))
        # Each argument list runs on to the last token before the '}'.
        assert len(side.changed_emits) == k
        assert {m.end for m, _ in side.changed_emits} == {text.rindex("x") + 1}


def test_emits_off_the_edit_lex_no_token(monkeypatch):
    """A one-line edit in a file of 500, 1,000 and 2,000 self-closing emits
    lexes the same number of matches, both sides together, at every size:
    only the edited line is lexed, and an emit whose ')' closes its
    arguments is closed with no token read. The emits whose argument lists
    the matcher leaves open are still lexed, once per stop, from the first
    one's keyword to that stop."""
    counts = []
    for emits in (500, 1000, 2000):
        body = [f"        emit Logged{i}(a, {i});" for i in range(emits)]
        after = "\n".join(body) + "\n"
        body[emits // 2] = "        uint y = 1;"
        rev = make_revision("r", ("a.sol", "\n".join(body) + "\n", after))
        want = analyze_revision(rev)
        counter = _CountingRegex(lexer._TOKEN_RE)
        monkeypatch.setattr(lexer, "_TOKEN_RE", counter)
        got = analyze_revision(rev)
        monkeypatch.undo()
        assert got == want
        counts.append(counter.matches)
    assert counts[0] == counts[1] == counts[2], counts


class _CountingPattern:
    """Stands in for scan.EMIT_PATTERN and counts its `match` calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.tries = 0

    def match(self, text, pos=0):
        self.tries += 1
        return self.pattern.match(text, pos)


def test_a_before_side_tries_the_emits_near_its_edit_only(monkeypatch):
    """A one-line edit near the end of a file of 500, 1,000 and 2,000
    emits tries the emit pattern once on the before side at every size:
    only at the edited line, past the safe start just before it. The after
    side, which counts the totals, tries it at every emit."""
    counter = _CountingPattern(scan.EMIT_PATTERN)
    tries = []
    for emits in (500, 1000, 2000):
        body = [f"        emit Logged{i}(a, {i});" for i in range(emits)]
        after = src("\n".join(body) + "\n")
        body[-3] = "        emit Moved(a, b);"
        before = src("\n".join(body) + "\n")
        deleted, _ = evolution._edits(before, after)
        monkeypatch.setattr(scan, "EMIT_PATTERN", counter)
        counter.tries = 0
        side = SideAnalysis.build(before, deleted, False, False)
        tries.append(counter.tries)
        counter.tries = 0
        SideAnalysis.build(after, set(), False, True)
        assert counter.tries == emits
        monkeypatch.undo()
        assert [m.event_name for m, _ in side.changed_emits] == ["Moved"]
    assert tries == [1, 1, 1], tries
