r"""Line accounting and the lightweight textual emit matcher.

Lines: a line is blank when it holds only space, tab and CR, a comment line
when all of its other content lies inside comments, and a code line
otherwise. A line mixing code and a trailing comment counts as code. One
rule decides the code lines: with each comment put down to its newlines and
space, tab and CR deleted, the text splits on newlines into rows, one per
line, and a row is left empty unless its line holds code. `count_loc` counts
the filled rows, and `diff` reads the row of each changed line. The blank
lines are the empty rows of the raw text under the same deletions; the
comment lines are the rest.

The emit matcher applies one fixed pattern with a non-greedy argument capture.
It deliberately keeps the pattern's known weaknesses so that counts stay
reproducible:
- it stops at the first closing parenthesis;
- it needs whitespace before `emit`, so `a;emit E(x);` is not matched;
- it matches inside comments and strings; such hits are flagged rather than
  dropped, letting callers choose.
The pattern ends in `\s*`, which would take the whitespace that the next
match's leading `\s+` needs, so each search resumes at the previous match's
closing parenthesis rather than at its end: in `// emit A()` followed by
`emit B(1);` on the next line, both A and B match.

The matcher tries the pattern only where a match can begin, so its cost
grows linearly with the text. The pattern starts with `\s+` and so has no
literal prefix: a search tries it at every whitespace character, and each
try runs to the end of the whitespace run before it fails, about w * w / 2
steps for a run of w characters. Instead, `str.find` gives each `emit`, and
the pattern is matched once, from the character before it, when that
character lies at or past the point where the search would resume. This
finds what the search finds: `\s+` cannot take the `e`, so a match takes the
whole run before its keyword whatever the character it starts at, and its
groups and end do not depend on that character. Every match ends at a `)`
past its keyword, so the keywords after the last `)` are not tried; else an
unclosed `emit A(x` would try its lazy argument capture on to the end of the
text.

A caller that reads only the matches that can reach a window [a, b) of the
text may try the keywords from a safe start before a up to b. `diff` closes
an open match at its stop, the first of `STOPS` (`;`, `{` or `}`) outside
comments and strings past its `)`. The safe start is the last `)` before the
last such stop t before a. A match whose keyword lies before that `)` ends
at it or before it, since only word and space characters come between a
keyword and its `(`; so the whole-text search resumes at or before it and
tries every later keyword afresh, and a search started there finds the same
matches. And such a match stops at t or before it, so even closed it ends
before a. The walk back to t steps over each comment and string in one step
and searches only the text between them, so it is linear in the text.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .lexer import Ranges, scan_ranges
from .source import SourceFile, Span

EMIT_PATTERN = re.compile(r"\s+emit\s+(\w+)\s*\(([\s\S]*?)\)\s*")

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

# Space, tab and CR leave a line blank.
_DROP_SPACES = str.maketrans("", "", " \t\r")

# An open emit match stops at the first of these outside comments and strings.
STOPS = ";{}"
_END = itemgetter(1)  # a range's end, the key `range_at` bisects by


@dataclass(frozen=True)
class LocStats:
    total_lines: int
    code_lines: int
    comment_lines: int
    blank_lines: int


@dataclass(frozen=True)
class RegexEmitMatch:
    """A textual emit match: the offsets [start, end) of its text in file,
    from the emit keyword through the closing parenthesis. The span is
    built when read."""
    event_name: str
    raw_args: str
    start: int
    end: int
    in_comment_or_string: bool
    file: SourceFile = field(repr=False, compare=False)

    @property
    def span(self) -> Span:
        return self.file.span_from_offsets(self.start, self.end)


def _code_rows(text: str, ranges: Ranges, lo: int = 0,
               hi: int | None = None) -> list[str]:
    """One row per line of text[lo:hi], given the text's comment and string
    ranges; lo is a line start, and hi a line start or the end of the text
    (the default). Row i is filled exactly when line i + 1 of the slice is
    a code line. Each comment is put down to its newlines, so the rows line
    up with the lines; a slice that ends in a newline has one more row,
    empty. A range that crosses lo or hi is cut there: only a block comment
    or a string can cross a line start."""
    if hi is None:
        hi = len(text)
    i = bisect_left(ranges, (lo,))
    inside = ranges[i:bisect_left(ranges, (hi,), i)]
    if inside and inside[-1][1] > hi:
        inside[-1] = (inside[-1][0], hi)
    parts: list[str] = []
    pos = lo
    if i and ranges[i - 1][1] > lo and text[ranges[i - 1][0]] == "/":
        pos = min(ranges[i - 1][1], hi)
        parts.append("\n" * text.count("\n", lo, pos))
    for a, b in inside:
        if text[a] == "/":
            parts.append(text[pos:a])
            if text[a + 1] == "*":  # only a block comment holds a newline
                parts.append("\n" * text.count("\n", a, b))
            pos = b
    parts.append(text[pos:hi])
    return "".join(parts).translate(_DROP_SPACES).split("\n")


def _filled(rows: list[str]) -> int:
    return len(rows) - rows.count("")


def count_loc(file: SourceFile, ranges: Ranges | None = None) -> LocStats:
    """The code, comment and blank lines of file (see the module
    docstring); ranges, when given, are this file's comment and string
    ranges; without them they are scanned."""
    text = file.text
    total = file.line_count
    code = _filled(_code_rows(text, scan_ranges(text) if ranges is None
                              else ranges))
    blank = total - _filled(_code_rows(text, []))
    return LocStats(total_lines=total, code_lines=code,
                    comment_lines=total - code - blank, blank_lines=blank)


def extract_emits_regex(file: SourceFile, ranges: Ranges | None = None,
                        window: tuple[int, int] | None = None
                        ) -> list[RegexEmitMatch]:
    """All textual emit matches in source order; ranges, when given, are
    this file's comment and string ranges; without them they are scanned.

    The pattern requires whitespace before the emit keyword, so the text is
    searched with one synthetic leading newline; a match at the very start of
    the file is therefore not missed. A match runs from the emit keyword
    through the first closing parenthesis. The pattern is tried only from
    the character before each keyword (see the module docstring).

    With a window (a, b), only the keywords from the safe start before a up
    to b are tried: the matches are those of the whole text whose keyword
    lies there, which include every match that reaches the window, closed
    up to its stop or not (see the module docstring).
    """
    padded = "\n" + file.text
    # Every match ends at a ')' past its keyword.
    last = padded.rfind(")")
    if last < 0:
        return []
    ranges = scan_ranges(file.text) if ranges is None else ranges
    pos = 0
    if window is not None:
        # The keywords at padded offsets up to b, so at file offsets before
        # b; and, with the safe start's file offset as the resume point in
        # padded, every keyword past that ')' is tried.
        last = min(last, window[1] + 4)
        pos = _safe_start(file.text, ranges, window[0])
    matches: list[RegexEmitMatch] = []
    match, find = EMIT_PATTERN.match, padded.find
    q = find("emit", pos, last)
    while q != -1:
        # The keyword at q in padded is at q - 1 in file.text.
        if q - 1 >= pos and (m := match(padded, q - 1)) is not None:
            pos = m.end(2)  # ')' in padded; one past it in file.text
            name = m.group(1)
            if _IDENT_RE.match(name):
                hidden = range_at(ranges, q - 1) is not None
                matches.append(RegexEmitMatch(name, m.group(2), q - 1, pos,
                                              hidden, file))
        q = find("emit", q + 1, last)
    return matches


def _safe_start(text: str, ranges: Ranges, edge: int) -> int:
    """The last ')' before the last ';', '{' or '}' outside ranges before
    the offset edge, or 0 when there is none. The stop is searched for in
    the text between two ranges, one such gap at a time from edge
    backwards, so each range is stepped over at once."""
    i = bisect_left(ranges, (edge,))  # the ranges that start before edge
    t = edge
    while True:
        lo = ranges[i - 1][1] if i else 0
        stop = max(text.rfind(c, lo, t) for c in STOPS)
        if stop >= 0 or not i:
            break
        i -= 1
        t = ranges[i][0]
    return max(text.rfind(")", 0, stop), 0) if stop > 0 else 0


def range_at(ranges: Ranges, offset: int) -> tuple[int, int] | None:
    """The comment or string range that holds the offset past its first
    character, or None. A range starts with '/' or a quote, so at any other
    character None means outside every range. Ranges never overlap and come
    in source order, so the one that can hold an offset is the first that
    ends past it, found by bisecting the ranges by their ends in place."""
    i = bisect_right(ranges, offset, key=_END)
    return ranges[i] if i < len(ranges) and ranges[i][0] < offset else None
