"""Revision analysis: line diffing, churn rates, and classification of emit
modifications.

A revision is a set of before/after file pairs. The diff is a minimal
longest-common-subsequence edit script (Myers), so a modified line appears as
one deleted plus one added line. Churn counts added and deleted code lines
(comments and blanks excluded) against the after side's total; emit churn uses
the textual matcher on both sides, consistent with how totals are counted.

Changed emits outside comments and strings on the deleted and added sides
are matched greedily, most specific rule first: unchanged emits at a new
location are moves, same-name pairs are parameter changes, same-argument
pairs are replacements, leftover pairs differing in both are compound edits,
and whatever remains is a pure addition or deletion. Ties break on line
distance, then source order.

Independence: a change is absolutely independent when every changed line in
the revision is an emit line (or blank/comment); failing that, it is
heuristically independent when none of its changed argument tokens is
reassigned or passed to a call on the revision's other changed lines, and
dependent otherwise. An emit line holds no code, apart from ';', outside the
emits whose matches lie outside comments and strings. Kills are read from each
side's own tokens outside those emits, so text that the side's lex puts
inside a comment or a string never kills, and neither do an emit's own
arguments.

The matcher stops at the first ')'. Each match outside comments and strings
is closed once, on to the ')' that closes its arguments, and churn, pairing,
the emit lines and the kill scan all read that one extent.

Each revision is analyzed once. `RevisionAnalysis` diffs every file pair once
and lexes every present side once; the line kinds, regex emit matches,
changed emits, emit-only flag and kill sets that churn, pairing and
independence read all come from that one lex. `analyze_revision` builds one
per revision; `churn`, `pair_emit_changes` and `classify_independence` each
build one and read a single result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from operator import attrgetter
import re

from .lexer import ASSIGN_OPS, Token, TokenKind, lex
from .scan import (
    LINE_BLANK, LINE_CODE, LINE_COMMENT, RegexEmitMatch, classify_lines,
    extract_emits_regex,
)
from .source import SourceFile

_NEG = -(10 ** 9)

_tok_start = attrgetter("start")

_IDENT_TOKEN_RE = re.compile(r"[A-Za-z_]\w*")


# ------------------------------------------------------------------ diffing

@dataclass(frozen=True)
class DiffOp:
    kind: str  # keep | add | delete
    before_line: int | None
    after_line: int | None
    text: str


@dataclass
class LineDiff:
    ops: list[DiffOp]


def _split_lines(file: SourceFile | None) -> list[str]:
    if file is None or file.text == "":
        return []
    return file.text.split("\n")


def _myers(a: list[str], b: list[str]) -> list[DiffOp]:
    n, m = len(a), len(b)
    v: dict[int, int] = {1: 0}
    trace: list[dict[int, int]] = []
    final_d = 0
    for d in range(n + m + 1):
        trace.append(dict(v))
        done = False
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, _NEG) < v.get(k + 1, _NEG)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, _NEG) + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                final_d = d
                done = True
                break
        if done:
            break
    ops: list[DiffOp] = []
    x, y = n, m
    for d in range(final_d, 0, -1):
        vd = trace[d]
        k = x - y
        if k == -d or (k != d and vd.get(k - 1, _NEG) < vd.get(k + 1, _NEG)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = vd.get(prev_k, 0)
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            ops.append(DiffOp("keep", x, y, a[x - 1]))
            x -= 1
            y -= 1
        if x == prev_x:
            ops.append(DiffOp("add", None, prev_y + 1, b[prev_y]))
        else:
            ops.append(DiffOp("delete", prev_x + 1, None, a[prev_x]))
        x, y = prev_x, prev_y
    while x > 0 and y > 0:
        ops.append(DiffOp("keep", x, y, a[x - 1]))
        x -= 1
        y -= 1
    ops.reverse()
    return ops


def diff_lines(before: SourceFile | None, after: SourceFile | None) -> LineDiff:
    """Minimal LCS line diff; replaying keeps and adds reproduces the after
    text exactly."""
    return LineDiff(_myers(_split_lines(before), _split_lines(after)))


# ----------------------------------------------------------- revision model

@dataclass(frozen=True)
class FilePair:
    path: str
    before: SourceFile | None
    after: SourceFile | None


@dataclass(frozen=True)
class Revision:
    id: str
    message: str | None
    file_pairs: tuple[FilePair, ...]


@dataclass(frozen=True)
class ChurnReport:
    churned_loc: int
    total_loc: int
    loc_churn_rate: Fraction
    churned_emits: int
    total_emits: int
    emit_churn_rate: Fraction


class ChangeCategory(Enum):
    PARAMETER_CHANGE = "ParameterChange"
    ADDITION = "Addition"
    DELETION = "Deletion"
    MOVE = "Move"
    REPLACEMENT = "Replacement"
    COMPOUND = "Compound"


class Independence(Enum):
    ABSOLUTE_INDEPENDENT = "AbsoluteIndependent"
    HEURISTIC_INDEPENDENT = "HeuristicIndependent"
    DEPENDENT = "Dependent"


@dataclass
class EventUseChange:
    path: str
    category: ChangeCategory
    before_emit: RegexEmitMatch | None
    after_emit: RegexEmitMatch | None
    changed_arg_tokens: list[str]
    independence: Independence | None = None


# Indexed by a pair's rank: 2 if the names differ, plus 1 if the arguments do.
_PAIRED_CATEGORIES = (
    ChangeCategory.MOVE, ChangeCategory.PARAMETER_CHANGE,
    ChangeCategory.REPLACEMENT, ChangeCategory.COMPOUND,
)


def _norm_args(match: RegexEmitMatch) -> str:
    return "".join(match.raw_args.split())


def _ident_tokens(raw_args: str) -> list[str]:
    return _IDENT_TOKEN_RE.findall(raw_args)


def _minus(tokens: list[str], other: list[str]) -> list[str]:
    """The words of tokens that other lacks, counted with multiplicity; of a
    word's occurrences the first ones are kept, in order."""
    extra = Counter(tokens) - Counter(other)
    kept: list[str] = []
    for tok in tokens:
        if extra[tok] > 0:
            extra[tok] -= 1
            kept.append(tok)
    return kept


def _changed_tokens(before: RegexEmitMatch | None,
                    after: RegexEmitMatch | None,
                    category: ChangeCategory) -> list[str]:
    """The argument words one side has and the other lacks, the removed
    ones first; a missing side has no words."""
    if category in (ChangeCategory.MOVE, ChangeCategory.REPLACEMENT):
        return []
    before_tokens = _ident_tokens(before.raw_args) if before else []
    after_tokens = _ident_tokens(after.raw_args) if after else []
    return (_minus(before_tokens, after_tokens)
            + _minus(after_tokens, before_tokens))


# ---------------------------------------------------------- shared analysis

def _kind_at(kinds: list[str], line: int) -> str:
    if not 1 <= line <= len(kinds):
        return LINE_BLANK
    return kinds[line - 1]


@dataclass(frozen=True)
class SideAnalysis:
    """One side of a file pair. The file is lexed once; its comment and string
    ranges feed the line kinds and the regex emit matches, and its tokens
    close the matches and feed the emit lines and the kill sets. The tokens
    are dropped when `build` returns."""
    file: SourceFile
    changed: frozenset[int]  # deleted lines before, added lines after
    kinds: list[str]
    matches: list[RegexEmitMatch]  # closed outside comments and strings
    match_lines: list[range]  # the lines of each match
    emit_lines: frozenset[int]  # among the lines scanned for kills
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, file: SourceFile, changed: set[int],
              whole_file: bool) -> SideAnalysis:
        """Kill sets are scanned per run of consecutive changed non-emit
        lines (every non-emit line in whole-file mode), over the tokens that
        start on the run's lines and lie outside emits."""
        lexed = lex(file)
        toks, starts = lexed.tokens, file.line_starts
        matches: list[RegexEmitMatch] = []
        match_lines: list[range] = []
        kept: list[Token] = []  # the tokens outside the closed matches
        touched: set[int] = set()  # lines a closed match touches
        prev = 0
        for m in extract_emits_regex(file, lexed):
            if not m.in_comment_or_string:
                m, lo, hi = _close(m, toks)
                kept += toks[prev:lo]
                prev = max(prev, hi)
            lines = range(bisect_right(starts, m.start),
                          bisect_right(starts, m.end - 1) + 1)
            if not m.in_comment_or_string:
                touched.update(lines)
            matches.append(m)
            match_lines.append(lines)
        kept += toks[prev:]

        def line_bounds(first: int, last: int) -> tuple[int, int]:
            """Index range of the kept tokens that start on these lines."""
            end = starts[last] if last < len(starts) else len(file.text)
            lo = bisect_left(kept, starts[first - 1], key=_tok_start)
            return lo, bisect_left(kept, end, lo, key=_tok_start)

        lines = set(range(1, file.line_count + 1)) if whole_file \
            else changed
        emit_lines: set[int] = set()
        for line in touched & lines:
            lo, hi = line_bounds(line, line)
            # No code or string besides the emits and ';'.
            if all(tok.lexeme == ";" for tok in kept[lo:hi]) and not (
                    lo and kept[lo - 1].end > starts[line - 1]):
                emit_lines.add(line)
        runs: list[list[int]] = []  # [first, last] line of each run
        for line in sorted(lines - emit_lines):
            if runs and runs[-1][1] == line - 1:
                runs[-1][1] = line
            else:
                runs.append([line, line])
        assigned: set[str] = set()
        passed: set[str] = set()
        for first, last in runs:
            lo, hi = line_bounds(first, last)
            a, p = _scan_kill_sets(kept[lo:hi])
            assigned |= a
            passed |= p
        return cls(file, frozenset(changed), classify_lines(file, lexed),
                   matches, match_lines, frozenset(emit_lines),
                   frozenset(assigned), frozenset(passed))

    def churned_loc(self) -> int:
        return sum(1 for line in self.changed
                   if _kind_at(self.kinds, line) == LINE_CODE)

    def changed_emits(self) -> list[tuple[RegexEmitMatch, range]]:
        """Each match on a changed line, with its lines."""
        return [(m, lines) for m, lines in zip(self.matches, self.match_lines)
                if not self.changed.isdisjoint(lines)]

    def emit_only(self) -> bool:
        """Every changed line is an emit line, a blank line or a comment."""
        return all(line in self.emit_lines
                   or _kind_at(self.kinds, line) in (LINE_BLANK, LINE_COMMENT)
                   for line in self.changed)


@dataclass(frozen=True)
class PairAnalysis:
    """A file pair diffed once and each present side lexed once."""
    pair: FilePair
    diff: LineDiff
    before: SideAnalysis | None
    after: SideAnalysis | None

    @classmethod
    def build(cls, pair: FilePair, whole_file: bool) -> PairAnalysis:
        diff = diff_lines(pair.before, pair.after)
        deleted = {op.before_line for op in diff.ops if op.kind == "delete"}
        added = {op.after_line for op in diff.ops if op.kind == "add"}
        before = SideAnalysis.build(pair.before, deleted, whole_file) \
            if pair.before is not None else None
        after = SideAnalysis.build(pair.after, added, whole_file) \
            if pair.after is not None else None
        return cls(pair, diff, before, after)

    @property
    def sides(self) -> list[SideAnalysis]:
        return [s for s in (self.before, self.after) if s is not None]

    @property
    def primary(self) -> SideAnalysis:
        """The after side, or the before side of a deleted file."""
        return self.after if self.after is not None else self.before

    def changes(self) -> list[EventUseChange]:
        """Match deleted-side and added-side emits into classified changes.
        Emits inside comments and strings are not paired.

        Each (deleted, added) pair fits exactly one rule, ranked by whether
        the names and the arguments differ, so one greedy pass over all pairs
        in (rank, line distance, source order) order matches what a pass per
        rule, most specific first, would."""
        gone, new = ([e for e in side.changed_emits()
                      if not e[0].in_comment_or_string] if side else []
                     for side in (self.before, self.after))
        gone_args = [_norm_args(d) for d, _ in gone]
        new_args = [_norm_args(a) for a, _ in new]
        candidates = sorted(
            (2 * (d.event_name != a.event_name)
             + (gone_args[di] != new_args[ai]),
             abs(d_lines.start - a_lines.start), di, ai)
            for di, (d, d_lines) in enumerate(gone)
            for ai, (a, a_lines) in enumerate(new))
        changes: list[EventUseChange] = []

        def change(category, before, after):
            changes.append(EventUseChange(
                self.pair.path, category, before, after,
                _changed_tokens(before, after, category)))

        matched_d: set[int] = set()
        matched_a: set[int] = set()
        for rank, _, di, ai in candidates:
            if di in matched_d or ai in matched_a:
                continue
            matched_d.add(di)
            matched_a.add(ai)
            change(_PAIRED_CATEGORIES[rank], gone[di][0], new[ai][0])
        for di, (d, _) in enumerate(gone):
            if di not in matched_d:
                change(ChangeCategory.DELETION, d, None)
        for ai, (a, _) in enumerate(new):
            if ai not in matched_a:
                change(ChangeCategory.ADDITION, None, a)
        return changes


@dataclass(frozen=True)
class RevisionAnalysis:
    """Everything churn, pairing and independence read, computed once per
    revision: one PairAnalysis per file pair, whether the revision changes
    emit lines only, and the kill sets unioned over all sides."""
    pairs: tuple[PairAnalysis, ...]
    emit_only: bool
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, rev: Revision,
              whole_file: bool = False) -> RevisionAnalysis:
        pairs = tuple(PairAnalysis.build(p, whole_file)
                      for p in rev.file_pairs)
        sides = [side for pa in pairs for side in pa.sides]
        return cls(pairs, all(side.emit_only() for side in sides),
                   frozenset().union(*(side.assigned for side in sides)),
                   frozenset().union(*(side.passed for side in sides)))

    def churn(self) -> ChurnReport:
        churned_loc = total_loc = churned_emits = total_emits = 0
        for pa in self.pairs:
            for side in pa.sides:
                churned_loc += side.churned_loc()
                churned_emits += len(side.changed_emits())
            total_loc += pa.primary.kinds.count(LINE_CODE)
            total_emits += len(pa.primary.matches)
        loc_rate = Fraction(churned_loc, total_loc) if total_loc \
            else Fraction(0)
        emit_rate = Fraction(churned_emits, total_emits) if total_emits \
            else Fraction(0)
        return ChurnReport(churned_loc, total_loc, loc_rate, churned_emits,
                           total_emits, emit_rate)

    def changes(self) -> list[EventUseChange]:
        return [ch for pa in self.pairs for ch in pa.changes()]

    def passes_kill_test(self, change: EventUseChange) -> bool:
        """True when none of the change's argument tokens is reassigned or
        passed to a call on the revision's changed lines (whole files in
        whole-file mode). Both sets hold identifiers only, so keywords among
        the tokens never match."""
        return not any(t in self.assigned or t in self.passed
                       for t in change.changed_arg_tokens)

    def independence(self, change: EventUseChange) -> Independence:
        if self.emit_only:
            return Independence.ABSOLUTE_INDEPENDENT
        if self.passes_kill_test(change):
            return Independence.HEURISTIC_INDEPENDENT
        return Independence.DEPENDENT


def _close(m: RegexEmitMatch, toks: list[Token]
           ) -> tuple[RegexEmitMatch, int, int]:
    """The match m, outside comments and strings, closed; and the index range
    of its tokens in toks, the file's tokens. The match stops at the first
    ')', so a nested call or cast, or a ')' in a string or comment, leaves
    the argument list open: carry on to the ')' that closes it, but not past
    a ';', '{' or '}'. The closed match runs to its last token, and its
    raw_args hold the whole argument list."""
    lo = bisect_left(toks, m.start, key=_tok_start)
    hi = bisect_left(toks, m.end, lo, key=_tok_start)
    # With no '(' in its arguments and its ')' a token, the match already
    # closes the argument list.
    if "(" not in m.raw_args and toks[hi - 1].start == m.end - 1:
        return m, lo, hi
    depth = 0
    for tok in toks[lo:hi]:
        depth += (tok.lexeme == "(") - (tok.lexeme == ")")
    while depth > 0 and hi < len(toks):
        lexeme = toks[hi].lexeme
        if lexeme in (";", "{", "}"):
            break
        depth += (lexeme == "(") - (lexeme == ")")
        hi += 1
    last = toks[hi - 1]
    args = m.end - 1 - len(m.raw_args)  # just past the '('
    raw_args = m.file.text[args:last.start if depth == 0 else last.end]
    return replace(m, raw_args=raw_args, end=last.end), lo, hi


def _scan_kill_sets(toks: list[Token]) -> tuple[set[str], set[str]]:
    """Identifiers assigned to, and identifiers passed inside call argument
    lists, in a run of a file's tokens."""
    assigned: set[str] = set()
    passed: set[str] = set()
    for idx, tok in enumerate(toks):
        if tok.lexeme in ASSIGN_OPS:
            j = idx - 1
            while j >= 0:
                prev = toks[j]
                if prev.lexeme in (";", ",", "{", "}", "(", ")"):
                    break
                if prev.kind == TokenKind.IDENTIFIER:
                    assigned.add(prev.lexeme)
                j -= 1
        elif tok.lexeme in ("++", "--"):
            for j in (idx - 1, idx + 1):
                if 0 <= j < len(toks) and toks[j].kind == TokenKind.IDENTIFIER:
                    assigned.add(toks[j].lexeme)
        elif tok.kind == TokenKind.IDENTIFIER and idx + 1 < len(toks) and \
                toks[idx + 1].lexeme == "(":
            depth = 0
            for j in range(idx + 1, len(toks)):
                t = toks[j]
                if t.lexeme == "(":
                    depth += 1
                elif t.lexeme == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif t.kind == TokenKind.IDENTIFIER and j > idx + 1:
                    passed.add(t.lexeme)
    return assigned, passed


# ----------------------------------------------------------- public readers

def churn(rev: Revision) -> ChurnReport:
    return RevisionAnalysis.build(rev).churn()


def pair_emit_changes(rev: Revision) -> list[EventUseChange]:
    """Match deleted-side and added-side emits into classified changes."""
    return RevisionAnalysis.build(rev).changes()


def classify_independence(rev: Revision, change: EventUseChange,
                          whole_file: bool = False) -> Independence:
    return RevisionAnalysis.build(rev, whole_file).independence(change)


# ------------------------------------------------------------------ reports

@dataclass
class RevisionReport:
    revision_id: str
    churn: ChurnReport
    changes: list[EventUseChange] = field(default_factory=list)


def analyze_revision(rev: Revision,
                     whole_file_kill: bool = False) -> RevisionReport:
    analysis = RevisionAnalysis.build(rev, whole_file_kill)
    changes = analysis.changes()
    for change in changes:
        change.independence = analysis.independence(change)
    return RevisionReport(rev.id, analysis.churn(), changes)
