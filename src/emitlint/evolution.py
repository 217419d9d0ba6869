"""Revision analysis: line diffing, churn rates, and classification of emit
modifications.

A revision is a set of before/after file pairs. The diff is a minimal
longest-common-subsequence edit script (Myers), so a modified line appears as
one deleted plus one added line. Churn counts added and deleted code lines
(comments and blanks excluded) against the after side's total; emit churn uses
the textual matcher on both sides, consistent with how totals are counted.

Changed emits on the deleted and added sides are matched greedily, most
specific rule first: unchanged emits at a new location are moves, same-name
pairs are parameter changes, same-argument pairs are replacements, leftover
pairs differing in both are compound edits, and whatever remains is a pure
addition or deletion. Ties break on line distance, then source order.

Independence: a change is absolutely independent when every changed line in
the revision is an emit line (or blank/comment); failing that, it is
heuristically independent when none of its changed argument tokens is
reassigned or passed to a call on the revision's other changed lines, and
dependent otherwise.

Each revision is analyzed once. `RevisionAnalysis` diffs every file pair once
and lexes every present side once; the line kinds, regex emit matches,
changed emits, emit-only flag and kill sets that churn, pairing and
independence read all come from it. `analyze_revision` builds one per
revision; the standalone functions (`churn`, `pair_emit_changes`,
`is_emit_only_revision`, `passes_variable_kill_test`,
`classify_independence`) each build one and read a single result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
import re

from .lexer import ASSIGN_OPS, TokenKind, classify_word, lex
from .scan import (
    LINE_BLANK, LINE_CODE, LINE_COMMENT, RegexEmitMatch, _classify_lines,
    _extract_emits_regex, match_line_range,
)
from .source import SourceFile

_NEG = -(10 ** 9)

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


def _myers(a: list[str], b: list[str]) -> list[tuple[str, int | None, int | None]]:
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
    ops: list[tuple[str, int | None, int | None]] = []
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
            ops.append(("keep", x - 1, y - 1))
            x -= 1
            y -= 1
        if x == prev_x:
            ops.append(("add", None, prev_y))
        else:
            ops.append(("delete", prev_x, None))
        x, y = prev_x, prev_y
    while x > 0 and y > 0:
        ops.append(("keep", x - 1, y - 1))
        x -= 1
        y -= 1
    ops.reverse()
    return ops


def diff_lines(before: SourceFile | None, after: SourceFile | None) -> LineDiff:
    """Minimal LCS line diff; replaying keeps and adds reproduces the after
    text exactly."""
    a = _split_lines(before)
    b = _split_lines(after)
    raw = _myers(a, b)
    ops = []
    for kind, bi, ai in raw:
        if kind == "keep":
            ops.append(DiffOp("keep", bi + 1, ai + 1, a[bi]))
        elif kind == "delete":
            ops.append(DiffOp("delete", bi + 1, None, a[bi]))
        else:
            ops.append(DiffOp("add", None, ai + 1, b[ai]))
    return LineDiff(ops)


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


def _norm_args(match: RegexEmitMatch) -> str:
    return "".join(match.raw_args.split())


def _ident_tokens(raw_args: str) -> list[str]:
    return _IDENT_TOKEN_RE.findall(raw_args)


def _changed_tokens(before: RegexEmitMatch | None,
                    after: RegexEmitMatch | None,
                    category: ChangeCategory) -> list[str]:
    if category in (ChangeCategory.MOVE, ChangeCategory.REPLACEMENT):
        return []
    if category == ChangeCategory.ADDITION:
        return _ident_tokens(after.raw_args)
    if category == ChangeCategory.DELETION:
        return _ident_tokens(before.raw_args)
    before_tokens = _ident_tokens(before.raw_args)
    after_tokens = _ident_tokens(after.raw_args)
    removed = Counter(before_tokens) - Counter(after_tokens)
    added = Counter(after_tokens) - Counter(before_tokens)
    tokens: list[str] = []
    for tok in before_tokens:
        if removed[tok] > 0:
            removed[tok] -= 1
            tokens.append(tok)
    for tok in after_tokens:
        if added[tok] > 0:
            added[tok] -= 1
            tokens.append(tok)
    return tokens


# ---------------------------------------------------------- shared analysis

def _kind_at(kinds: list[str], line: int) -> str:
    if not 1 <= line <= len(kinds):
        return LINE_BLANK
    return kinds[line - 1]


@dataclass(frozen=True)
class SideAnalysis:
    """One side of a file pair. The file is lexed once; its comment and string
    ranges feed both the line kinds and the regex emit matches."""
    file: SourceFile
    changed: frozenset[int]  # deleted lines before, added lines after
    kinds: list[str]
    matches: list[RegexEmitMatch]
    emit_lines: frozenset[int]

    @classmethod
    def build(cls, file: SourceFile, changed: set[int]) -> SideAnalysis:
        lexed = lex(file)
        matches = _extract_emits_regex(file, lexed)
        emit_lines: set[int] = set()
        for m in matches:
            emit_lines |= match_line_range(m)
        return cls(file, frozenset(changed), _classify_lines(file, lexed),
                   matches, frozenset(emit_lines))

    def churned_loc(self) -> int:
        return sum(1 for line in self.changed
                   if _kind_at(self.kinds, line) == LINE_CODE)

    def changed_emits(self) -> list[RegexEmitMatch]:
        return [m for m in self.matches if match_line_range(m) & self.changed]

    def emit_only(self) -> bool:
        """Every changed line is an emit line, a blank line or a comment."""
        return all(line in self.emit_lines
                   or _kind_at(self.kinds, line) in (LINE_BLANK, LINE_COMMENT)
                   for line in self.changed)

    def kill_chunks(self, whole_file: bool) -> list[str]:
        """Changed non-emit line runs (the whole file in whole-file mode),
        joined per run so multi-line constructs stay scannable."""
        lines = range(1, self.file.line_count + 1) if whole_file \
            else self.changed
        chunks: list[str] = []
        run: list[str] = []
        last = None
        for line in sorted(set(lines) - self.emit_lines):
            if last is not None and line != last + 1 and run:
                chunks.append("\n".join(run))
                run = []
            run.append(self.file.line_text(line))
            last = line
        if run:
            chunks.append("\n".join(run))
        return chunks


@dataclass(frozen=True)
class PairAnalysis:
    """A file pair diffed once, each present side lexed once, and the kill
    sets of its changed chunks."""
    pair: FilePair
    diff: LineDiff
    before: SideAnalysis | None
    after: SideAnalysis | None
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, pair: FilePair, whole_file: bool) -> PairAnalysis:
        diff = diff_lines(pair.before, pair.after)
        deleted = {op.before_line for op in diff.ops if op.kind == "delete"}
        added = {op.after_line for op in diff.ops if op.kind == "add"}
        before = SideAnalysis.build(pair.before, deleted) \
            if pair.before is not None else None
        after = SideAnalysis.build(pair.after, added) \
            if pair.after is not None else None
        assigned: set[str] = set()
        passed: set[str] = set()
        for side in (before, after):
            if side is None:
                continue
            for chunk in side.kill_chunks(whole_file):
                a, p = _scan_kill_sets(chunk)
                assigned |= a
                passed |= p
        return cls(pair, diff, before, after, frozenset(assigned),
                   frozenset(passed))

    @property
    def sides(self) -> list[SideAnalysis]:
        return [s for s in (self.before, self.after) if s is not None]

    @property
    def primary(self) -> SideAnalysis:
        """The after side, or the before side of a deleted file."""
        return self.after if self.after is not None else self.before

    def changes(self) -> list[EventUseChange]:
        """Match deleted-side and added-side emits into classified
        changes."""
        gone = self.before.changed_emits() if self.before else []
        new = self.after.changed_emits() if self.after else []
        path = self.pair.path
        changes: list[EventUseChange] = []
        matched_d: set[int] = set()
        matched_a: set[int] = set()

        def take(rule, category: ChangeCategory) -> None:
            candidates = []
            for di, d in enumerate(gone):
                if di in matched_d:
                    continue
                for ai, a in enumerate(new):
                    if ai in matched_a:
                        continue
                    if rule(d, a):
                        dist = abs(d.span.start_line - a.span.start_line)
                        candidates.append((dist, di, ai))
            candidates.sort()
            for _, di, ai in candidates:
                if di in matched_d or ai in matched_a:
                    continue
                matched_d.add(di)
                matched_a.add(ai)
                d, a = gone[di], new[ai]
                changes.append(EventUseChange(
                    path, category, d, a,
                    _changed_tokens(d, a, category)))

        take(lambda d, a: d.event_name == a.event_name
             and _norm_args(d) == _norm_args(a), ChangeCategory.MOVE)
        take(lambda d, a: d.event_name == a.event_name
             and _norm_args(d) != _norm_args(a),
             ChangeCategory.PARAMETER_CHANGE)
        take(lambda d, a: d.event_name != a.event_name
             and _norm_args(d) == _norm_args(a), ChangeCategory.REPLACEMENT)
        take(lambda d, a: True, ChangeCategory.COMPOUND)
        for di, d in enumerate(gone):
            if di not in matched_d:
                changes.append(EventUseChange(
                    path, ChangeCategory.DELETION, d, None,
                    _changed_tokens(d, None, ChangeCategory.DELETION)))
        for ai, a in enumerate(new):
            if ai not in matched_a:
                changes.append(EventUseChange(
                    path, ChangeCategory.ADDITION, None, a,
                    _changed_tokens(None, a, ChangeCategory.ADDITION)))
        return changes


@dataclass(frozen=True)
class RevisionAnalysis:
    """Everything churn, pairing and independence read, computed once per
    revision: one PairAnalysis per file pair, whether the revision changes
    emit lines only, and the kill sets unioned over all pairs."""
    pairs: tuple[PairAnalysis, ...]
    emit_only: bool
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, rev: Revision,
              whole_file: bool = False) -> RevisionAnalysis:
        pairs = tuple(PairAnalysis.build(p, whole_file)
                      for p in rev.file_pairs)
        return cls(
            pairs,
            all(side.emit_only() for pa in pairs for side in pa.sides),
            frozenset().union(*(pa.assigned for pa in pairs)),
            frozenset().union(*(pa.passed for pa in pairs)))

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
        tokens = [t for t in change.changed_arg_tokens
                  if classify_word(t) == TokenKind.IDENTIFIER]
        return not any(t in self.assigned or t in self.passed
                       for t in tokens)

    def independence(self, change: EventUseChange) -> Independence:
        if self.emit_only:
            return Independence.ABSOLUTE_INDEPENDENT
        if self.passes_kill_test(change):
            return Independence.HEURISTIC_INDEPENDENT
        return Independence.DEPENDENT


def _scan_kill_sets(chunk: str) -> tuple[set[str], set[str]]:
    """Identifiers assigned to, and identifiers passed inside call argument
    lists, in a fragment of changed source text."""
    assigned: set[str] = set()
    passed: set[str] = set()
    toks = lex(SourceFile.from_text("<chunk>", chunk)).tokens
    for idx, tok in enumerate(toks):
        if tok.kind == TokenKind.OPERATOR and tok.lexeme in ASSIGN_OPS:
            j = idx - 1
            while j >= 0:
                prev = toks[j]
                if prev.kind == TokenKind.PUNCT and prev.lexeme in ";,{}()":
                    break
                if prev.kind == TokenKind.IDENTIFIER:
                    assigned.add(prev.lexeme)
                j -= 1
        elif tok.kind == TokenKind.OPERATOR and tok.lexeme in ("++", "--"):
            for j in (idx - 1, idx + 1):
                if 0 <= j < len(toks) and toks[j].kind == TokenKind.IDENTIFIER:
                    assigned.add(toks[j].lexeme)
        elif tok.kind == TokenKind.IDENTIFIER and idx + 1 < len(toks) and \
                toks[idx + 1].kind == TokenKind.PUNCT and \
                toks[idx + 1].lexeme == "(":
            depth = 0
            for j in range(idx + 1, len(toks)):
                t = toks[j]
                if t.kind == TokenKind.PUNCT and t.lexeme == "(":
                    depth += 1
                elif t.kind == TokenKind.PUNCT and t.lexeme == ")":
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


def is_emit_only_revision(rev: Revision) -> bool:
    """True when every changed line in the revision is an emit line, a blank
    line, or a comment line."""
    return RevisionAnalysis.build(rev).emit_only


def passes_variable_kill_test(rev: Revision, change: EventUseChange,
                              whole_file: bool = False) -> bool:
    """True when none of the change's argument tokens is reassigned or passed
    to a call on the revision's changed lines (whole files in whole-file
    mode). Vacuously true when the change has no identifier tokens."""
    return RevisionAnalysis.build(rev, whole_file).passes_kill_test(change)


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
