"""Source text plumbing: files, spans, and position arithmetic.

Lines and columns are 1-based. A span covers the half-open character range
from its start position up to (but not including) its end position, so the
text of a span can be sliced directly out of the file.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass

_NEWLINE_RE = re.compile("\n")


@dataclass(slots=True, unsafe_hash=True)
class Span:
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    @property
    def start(self) -> tuple[int, int]:
        return (self.start_line, self.start_col)

    @property
    def end(self) -> tuple[int, int]:
        return (self.end_line, self.end_col)


@dataclass
class SourceFile:
    path: str
    text: str
    line_starts: list[int]

    @classmethod
    def from_text(cls, path: str, text: str) -> SourceFile:
        if text.startswith("﻿"):
            text = text[1:]
        starts = [0]
        starts += [m.end() for m in _NEWLINE_RE.finditer(text)]
        return cls(path, text, starts)

    @classmethod
    def load(cls, path) -> SourceFile:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(str(path), fh.read())

    @property
    def line_count(self) -> int:
        if not self.text:
            return 0
        n = len(self.line_starts)
        return n - 1 if self.text.endswith("\n") else n

    def offset_to_linecol(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def linecol_to_offset(self, line: int, col: int) -> int:
        return self.line_starts[line - 1] + col - 1

    def span_from_offsets(self, start: int, end: int) -> Span:
        sl, sc = self.offset_to_linecol(start)
        el, ec = self.offset_to_linecol(end)
        return Span(sl, sc, el, ec)
