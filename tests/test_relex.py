"""The before side's re-lex: `lexer._relex` copies the after side's tokens
across the keep runs of the edit script and lexes only the rest, and must
give exactly what `lex(before)` gives, column for column and range for
range."""

import random

import pytest

import emitlint.evolution as evolution
import emitlint.lexer as lexer
from emitlint.cli import load_manifest
from emitlint.lexer import LexResult, lex
from emitlint.source import SourceFile

from helpers import FIXTURES, src
from test_evolution import _DIFFERENTIAL_REVISIONS

_FIELDS = ("kinds", "lexemes", "starts", "ends", "comment_ranges",
           "string_ranges", "errors")


def relex(before: SourceFile, after: SourceFile) -> LexResult:
    """before's LexResult, re-lexed from after's as RevisionAnalysis does."""
    runs = evolution._edits(before, after)[2]
    return lexer._relex(before, lex(after), len(after.text), runs)


def assert_relex_equals_lex(before: SourceFile, after: SourceFile) -> None:
    got, want = relex(before, after), lex(before)
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), \
            (name, before.text, after.text)


# ----------------------------------------------------- pinned number cases

def _prefix_relex(before: str, after: str) -> LexResult:
    """before re-lexed from after with the common prefix as its one run."""
    p = 0
    while before[p] == after[p]:
        p += 1
    return lexer._relex(src(before), lex(src(after)), len(after),
                        [(0, p, 0)])


def test_number_split_by_a_one_character_edit():
    """`1.a` lexes as `1`, `.`, `a`. With `x = 1.` kept, a copy margin of
    one character would take that `1` into `x = 1.5;` and miss `1.5`."""
    assert _prefix_relex("x = 1.5;", "x = 1.a;").lexemes == \
        ["x", "=", "1.5", ";"]
    assert _prefix_relex("x = 1.a;", "x = 1.5;").lexemes == \
        ["x", "=", "1", ".", "a", ";"]


def test_exponent_needs_three_characters_of_margin():
    """`1` in `1e+x` reads three characters past its end: `e`, `+` and
    `x`. With `y = 1e+` kept, a margin under three would copy that `1`."""
    assert _prefix_relex("y = 1e+5;", "y = 1e+x;").lexemes == \
        ["y", "=", "1e+5", ";"]
    assert _prefix_relex("y = 1e+x;", "y = 1e+5;").lexemes == \
        ["y", "=", "1", "e", "+", "x", ";"]


def test_block_comment_opened_in_an_edit_swallows_kept_lines():
    body = "".join(f"uint v{i} = {i};\n" for i in range(20))
    before = src("/* note\n" + body + "*/\nuint w;\n")
    after = src("// note\n" + body + "*/\nuint w;\n")
    got = relex(before, after)
    assert got.lexemes == ["uint", "w", ";"]
    assert_relex_equals_lex(before, after)
    assert_relex_equals_lex(after, before)


def test_lex_error_on_either_side_falls_back_to_a_full_lex(monkeypatch):
    full = []
    real_lex = lexer.lex
    monkeypatch.setattr(lexer, "lex",
                        lambda file: full.append(file.text) or real_lex(file))
    clean = src('string s = "a";\nuint x;\n')
    broken = src('string s = "a;\nuint x;\n')
    got = lexer._relex(broken, real_lex(clean), len(clean.text),
                       evolution._edits(broken, clean)[2])
    assert got == real_lex(broken) and got.errors
    got = lexer._relex(clean, real_lex(broken), len(broken.text),
                       evolution._edits(clean, broken)[2])
    assert got == real_lex(clean) and not got.errors
    assert full == [broken.text, clean.text]


def test_keep_runs_are_character_ranges_equal_on_both_sides():
    before = src("a;\nb;\nc;\nd;")
    after = src("a;\nx;\nc;\nd;\n")
    deleted, added, runs = evolution._edits(before, after)
    assert (deleted, added) == ({2}, {2, 5})
    for start, end, shift in runs:
        assert before.text[start:end] == \
            after.text[start + shift:end + shift]
    # 'd;' ends the before text without a newline, so the run stops there.
    assert runs == [(0, 3, 0), (6, 11, 0)]


# ---------------------------------------------------- seeded differential

_SNIPPETS = ("/*", "*/", "//", '"', "'", "\\\n", "1.5", "1.a", "1e+5", "1e+x",
             "0x", ">>=", "\n", "\r\n", " ", "x", ";", "}")


def _fixture_texts() -> list[str]:
    return [path.read_text(encoding="utf-8")
            for path in sorted(FIXTURES.rglob("*.sol"))]


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


def _char_runs(rng: random.Random, before: str, after: str
               ) -> list[tuple[int, int, int]]:
    """Keep runs at character grain: the common prefix and suffix of the two
    texts, each cut into pieces at random points, some pieces dropped. Any
    disjoint ranges of equal text are valid runs, and run ends that fall
    inside tokens test the copy margin."""
    n, m = len(before), len(after)
    p = 0
    while p < min(n, m) and before[p] == after[p]:
        p += 1
    s = 0
    while s < min(n, m) - p and before[n - 1 - s] == after[m - 1 - s]:
        s += 1
    runs = []
    for start, end, shift in ((0, p, 0), (n - s, n, m - n)):
        cuts = sorted(rng.randint(start, end)
                      for _ in range(rng.randint(0, 3)))
        for a, b in zip([start] + cuts, cuts + [end]):
            if b > a and rng.random() < 0.8:
                runs.append((a, b, shift))
    return runs


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
    """3,000 cases, with the keep runs of the line diff; at least half of
    them lex without errors on both sides, so they take the copying path."""
    copied = 0
    for before, after in _seeded_cases(24, 3000):
        before, after = src(before), src(after)
        assert_relex_equals_lex(before, after)
        copied += not (lex(before).errors or lex(after).errors)
    assert copied >= 1500


def test_relex_equals_lex_with_runs_cut_inside_tokens(monkeypatch):
    """3,000 cases with keep runs at character grain, so runs end inside
    numbers, words and operators, and re-lex windows that grow from as
    little as one character, so windows end inside them too."""
    rng = random.Random(25)
    for before, after in _seeded_cases(26, 3000):
        monkeypatch.setattr(lexer, "_REACH", rng.choice((1, 2, 5, 48)))
        runs = _char_runs(rng, before, after)
        before, after = src(before), src(after)
        got = lexer._relex(before, lex(after), len(after.text), runs)
        want = lex(before)
        for name in _FIELDS:
            assert getattr(got, name) == getattr(want, name), \
                (name, before.text, after.text, runs)


def _manifest_and_case_pairs():
    pairs = [pair
             for manifest in sorted(FIXTURES.glob("manifests/*/manifest.json"))
             for rev in load_manifest(str(manifest))[0]
             for pair in rev.file_pairs]
    pairs += [pair for _, rev in _DIFFERENTIAL_REVISIONS
              for pair in rev.file_pairs]
    return [pair for pair in pairs
            if pair.before is not None and pair.after is not None]


def test_relex_equals_lex_on_every_manifest_and_case_pair():
    pairs = _manifest_and_case_pairs()
    assert len(pairs) > 50
    for pair in pairs:
        assert_relex_equals_lex(pair.before, pair.after)
        assert_relex_equals_lex(pair.after, pair.before)


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
    re-lexes the same number of matches, give or take a constant."""
    counts = []
    for lines in (500, 1000, 2000):
        body = [f"        total{i} = total{i} + {i}; // step {i}"
                for i in range(lines)]
        after = src("\n".join(body) + "\n")
        body[lines // 2] = "        " + edit
        before = src("\n".join(body) + "\n")
        base = lex(after)
        runs = evolution._edits(before, after)[2]
        counter = _CountingRegex(lexer._TOKEN_RE)
        monkeypatch.setattr(lexer, "_TOKEN_RE", counter)
        got = lexer._relex(before, base, len(after.text), runs)
        monkeypatch.undo()
        assert got == lex(before)
        counts.append(counter.matches)
    assert max(counts) - min(counts) <= 2, counts
    assert max(counts) < 40, counts
