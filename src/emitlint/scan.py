"""Line accounting and the lightweight textual emit matcher.

Line classification: a line is blank when it holds only whitespace, a comment
line when all of its non-blank content lies inside comments, and a code line
otherwise. A line mixing code and a trailing comment counts as code.

The emit matcher applies one fixed pattern with a non-greedy argument capture.
It deliberately keeps the pattern's known weaknesses (it stops at the first
closing parenthesis and it matches inside comments and strings) so that counts
stay reproducible; hits inside comments or strings are flagged rather than
dropped, letting callers choose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexer import LexResult, lex
from .source import SourceFile, Span

EMIT_PATTERN = re.compile(r"\s+emit\s+(\w+)\s*\(([\s\S]*?)\)\s*")

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

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


def classify_lines(file: SourceFile,
                   lexed: LexResult | None = None) -> list[str]:
    """Per-line classification, index 0 = line 1. lexed, when given, must
    come from this file."""
    ranges = (lexed or lex(file)).comment_ranges
    kinds: list[str] = []
    ci = 0
    for line in range(1, file.line_count + 1):
        start = file.line_starts[line - 1]
        if line < len(file.line_starts):
            end = file.line_starts[line] - 1
        else:
            end = len(file.text)
        kind = LINE_BLANK
        for off in range(start, end):
            if file.text[off] in " \t\r":
                continue
            while ci < len(ranges) and ranges[ci][1] <= off:
                ci += 1
            if ci < len(ranges) and ranges[ci][0] <= off < ranges[ci][1]:
                kind = LINE_COMMENT
                continue
            kind = LINE_CODE
            break
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
    covered = sorted(lexed.comment_ranges + lexed.string_ranges)
    padded = "\n" + file.text
    matches: list[RegexEmitMatch] = []
    for m in EMIT_PATTERN.finditer(padded):
        name = m.group(1)
        if not _IDENT_RE.match(name):
            continue
        whole = m.group(0)
        lead = len(whole) - len(whole.lstrip())
        emit_off = m.start() + lead - 1
        end_off = m.end(2)  # one past ')' after removing the pad offset
        flagged = any(a <= emit_off < b for a, b in covered)
        matches.append(RegexEmitMatch(name, m.group(2), emit_off, end_off,
                                      flagged, file))
    return matches
