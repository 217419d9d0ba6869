"""Per-file analysis and emit-density metrics per file and per project.

Emits are counted from the AST when the file parses without fatal errors;
otherwise the textual matcher is used, skipping hits inside comments and
strings. The method actually used is recorded per file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .lexer import Ranges, lex
from .nodes import FunctionWalk, SourceUnit, iter_functions, walk_function
from .parser import has_fatal_errors, parse_file
from .scan import LocStats, count_loc, extract_emits_regex
from .source import SourceFile


@dataclass(frozen=True)
class FileAnalysis:
    """One file lexed once; the tokens feed the parse, and the comment and
    string ranges feed the line counts and, on fallback, the regex count.
    Only the ranges outlive the parse: the lex result is dropped before the
    first function walk, so no token column is alive through the walks,
    `count_loc` or the checks. Each function is walked once; the walks give
    the AST emit count and feed the checks."""
    file: SourceFile
    unit: SourceUnit
    loc: LocStats
    emit_count: int
    method: str  # "ast" | "regex"
    functions: tuple[FunctionWalk, ...] = field(repr=False, compare=False)

    @classmethod
    def build(cls, file: SourceFile) -> FileAnalysis:
        lexed = lex(file)
        unit = parse_file(file, lexed)
        ranges = lexed.ranges
        del lexed
        functions = tuple(map(walk_function, iter_functions(unit)))
        count, method = _count_emits(file, unit, ranges, functions)
        return cls(file, unit, count_loc(file, ranges), count, method,
                   functions)


@dataclass(frozen=True)
class FileMetrics:
    path: str
    code_loc: int
    emit_count: int
    emit_per_loc: Fraction
    method: str  # "ast" | "regex"


@dataclass(frozen=True)
class ProjectMetrics:
    file_count: int
    total_code_loc: int
    total_emit_count: int
    emit_per_loc: Fraction
    per_file: tuple[FileMetrics, ...]


def count_file_emits(file: SourceFile, unit: SourceUnit) -> tuple[int, str]:
    """Emit count and the method used; unit must come from this file."""
    return _count_emits(file, unit, None,
                        map(walk_function, iter_functions(unit)))


def _count_emits(file: SourceFile, unit: SourceUnit, ranges: Ranges | None,
                 functions: Iterable[FunctionWalk]) -> tuple[int, str]:
    """On a fatal parse error, the regex count outside comments and strings;
    otherwise the AST count over the function walks, which are read only
    then."""
    if has_fatal_errors(unit):
        matches = extract_emits_regex(file, ranges)
        return sum(1 for m in matches if not m.in_comment_or_string), "regex"
    return sum(len(f.emits) for f in functions), "ast"


def compute_metrics(files: list[SourceFile]) -> ProjectMetrics:
    per_file: list[FileMetrics] = []
    for file in files:
        analysis = FileAnalysis.build(file)
        code_loc, count = analysis.loc.code_lines, analysis.emit_count
        ratio = Fraction(count, code_loc) if code_loc > 0 else Fraction(0)
        per_file.append(FileMetrics(file.path, code_loc, count, ratio,
                                    analysis.method))
    total_loc = sum(f.code_loc for f in per_file)
    total_emits = sum(f.emit_count for f in per_file)
    ratio = Fraction(total_emits, total_loc) if total_loc > 0 else Fraction(0)
    return ProjectMetrics(len(per_file), total_loc, total_emits, ratio,
                          tuple(per_file))
