r"""Line accounting and the lightweight textual emit matcher.

Line classification: a line is blank when it holds only whitespace, a comment
line when all of its non-blank content lies inside comments, and a code line
otherwise. A line mixing code and a trailing comment counts as code.

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
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from .lexer import LexResult, lex
from .source import SourceFile, Span

EMIT_PATTERN = re.compile(r"\s+emit\s+(\w+)\s*\(([\s\S]*?)\)\s*")

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

# Space, tab and CR leave a line blank; a newline ends it.
_NON_SPACE_RE = re.compile(r"[^ \t\r\n]")

LINE_CODE = "code"
LINE_COMMENT = "comment"
LINE_BLANK = "blank"


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


def classify_lines(file: SourceFile, lexed: LexResult | None = None,
                   lines: Iterable[int] | None = None) -> list[str]:
    """Per-line classification, index 0 = line 1; or, when lines is given as
    ascending 0-based line indexes, the kinds of those lines, in order.
    lexed, when given, must come from this file.

    Each line searches for its first character other than space, tab or
    CR. A hit inside a comment makes the line a comment line so far, and
    the search goes on from the end of that comment; the first hit outside
    every comment makes it a code line."""
    ranges = (lexed or lex(file)).comment_ranges
    text = file.text
    search = _NON_SPACE_RE.search
    starts = file.line_starts
    kinds: list[str] = []
    ci = 0
    for line in range(file.line_count) if lines is None else lines:
        pos = starts[line]
        end = starts[line + 1] - 1 if line + 1 < len(starts) else len(text)
        kind = LINE_BLANK
        while (m := search(text, pos, end)) is not None:
            off = m.start()
            while ci < len(ranges) and ranges[ci][1] <= off:
                ci += 1
            if ci == len(ranges) or off < ranges[ci][0]:
                kind = LINE_CODE
                break
            kind = LINE_COMMENT
            pos = ranges[ci][1]
        kinds.append(kind)
    return kinds


def count_loc(file: SourceFile, lexed: LexResult | None = None) -> LocStats:
    kinds = classify_lines(file, lexed)
    return LocStats(
        total_lines=len(kinds),
        code_lines=kinds.count(LINE_CODE),
        comment_lines=kinds.count(LINE_COMMENT),
        blank_lines=kinds.count(LINE_BLANK),
    )


def extract_emits_regex(file: SourceFile, lexed: LexResult | None = None
                        ) -> list[RegexEmitMatch]:
    """All textual emit matches in source order; lexed, when given, must come
    from this file.

    The pattern requires whitespace before the emit keyword, so the text is
    searched with one synthetic leading newline; a match at the very start of
    the file is therefore not missed. A match runs from the emit keyword
    through the first closing parenthesis.
    """
    lexed = lexed or lex(file)
    # Comments and strings never overlap, so sorted by start they are
    # sorted by end too, and the one range that can hold an offset is the
    # first that ends after it.
    covered = sorted(lexed.comment_ranges + lexed.string_ranges)
    ends = [b for _, b in covered]
    padded = "\n" + file.text
    matches: list[RegexEmitMatch] = []
    search = EMIT_PATTERN.search
    pos = 0
    while (m := search(padded, pos)) is not None:
        pos = m.end(2)  # ')' in padded; one past it in file.text
        name = m.group(1)
        if not _IDENT_RE.match(name):
            continue
        whole = m.group(0)
        lead = len(whole) - len(whole.lstrip())
        emit_off = m.start() + lead - 1
        i = bisect_right(ends, emit_off)
        flagged = i < len(covered) and covered[i][0] <= emit_off
        matches.append(RegexEmitMatch(name, m.group(2), emit_off, pos,
                                      flagged, file))
    return matches
