"""Revision analysis: line diffing, churn rates, and classification of emit
modifications.

A revision is a set of before/after file pairs. The diff is a minimal
longest-common-subsequence edit script (Myers), so a modified line appears as
one deleted plus one added line. It is the greedy forward Myers diff: for N
and M lines and D deleted plus added lines it takes O((N + M) * D) time and
keeps about D * D / 2 frontier entries for the traceback. A 2,000-line
whole-file rewrite with every line distinct (D = 4,000) takes about 0.5 s and
peaks at 79 MB of process memory (Python 3.11, 2 vCPUs).

Churn counts added and deleted code lines (comments and blanks excluded)
against the after side's total; emit churn uses the textual matcher on both
sides, consistent with how totals are counted.

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
the emit lines and the kill scan all read that one extent. Tokens are read
as the lexer's columns, by index: a match's tokens and a line's tokens are
found by bisecting the start offsets, and the kill scan reads the lexeme and
kind columns of the tokens outside the closed matches.

Each revision is analyzed once. `RevisionAnalysis.build` diffs every file
pair once. It lexes the after side in full and re-lexes the before side from
the after side's tokens: the edit script's keep runs, taken as character
ranges, are copied and only the edited lines are lexed again (`lexer._relex`).
A side without a partner is lexed in full. It keeps only the answers: the
churn report, the classified changes, whether the revision changes emit lines
only, and the kill sets. Each side is summed up in a `SideAnalysis`: its
churned and total code lines, its emit total, its matches on changed lines
with their first lines, its emit-only flag and its kill sets.
`analyze_revision` builds one per revision; `churn`, `pair_emit_changes` and
`classify_independence` each build one and read a single answer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
import re

from .lexer import ASSIGN_OPS, LexResult, TokenKind, _relex, lex
from .scan import (
    LINE_CODE, RegexEmitMatch, classify_lines, extract_emits_regex,
)
from .source import SourceFile

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


def _myers(a: list[str], b: list[str]
           ) -> list[tuple[str, int | None, int | None]]:
    """The greedy forward Myers edit script from a to b, as (kind,
    before_line, after_line) steps; a step's missing side is None. Each pass
    d reaches diagonal k down from diagonal k + 1, or right from k - 1 when
    that reaches at least as far; this tie-break decides which of several
    minimal scripts is returned.

    The common prefix is the snake at d = 0, so it is kept at once; the
    common suffix is not, since the tie-break may keep an earlier copy of a
    repeated line. Lines are coded as ints, a line of b that a lacks as -1,
    and both code lists are padded with two sentinels that match nothing, so
    a snake stops without bounds tests. The trace keeps, for each d, only the
    d frontier entries of pass d - 1 that the traceback reads."""
    n, m = len(a), len(b)
    p = 0
    while p < n and p < m and a[p] == b[p]:
        p += 1
    script: list[tuple[str, int | None, int | None]] = [
        ("keep", i, i) for i in range(1, p + 1)]
    if p == n or p == m:
        script += [("delete", i, None) for i in range(p + 1, n + 1)]
        script += [("add", None, j) for j in range(p + 1, m + 1)]
        return script
    codes: dict[str, int] = {}
    ca = [codes.setdefault(line, len(codes)) for line in a[p:]]
    cb = [codes.get(line, -1) for line in b[p:]]
    n -= p
    m -= p
    # No point of a path before (n, m) lies past n + m on either axis.
    off = n + m + 1
    ca += [-2] * (off + 1 - n)
    cb += [-3] * (off + 1 - m)
    v = [-1] * (2 * off + 1)  # furthest x on diagonal k, at v[k + off]
    v[off + 1] = 0
    trace: list[list[int]] = []
    end = off + n - m  # (n, m) lies on this diagonal
    d = 0
    while True:
        lo, hi = off - d, off + d
        trace.append(v[lo + 1:hi:2])
        for i in range(lo, hi + 1, 2):
            # Diagonals -d - 1 and d + 1 are not reached yet and read -1, so
            # diagonal -d goes down and diagonal d goes right.
            x = v[i + 1]
            if v[i - 1] >= x:
                x = v[i - 1] + 1
            y = x - i + off
            while ca[x] == cb[y]:
                x += 1
                y += 1
            v[i] = x
        # (n, m) is the first point with x >= n and y >= m that a pass
        # reaches: every other one takes more steps.
        if v[end] >= n:
            break
        d += 1
    tail: list[tuple[str, int | None, int | None]] = []
    x, y = n, m
    for d in range(d, 0, -1):
        row = trace[d]  # diagonals -d + 1, -d + 3, ..., d - 1
        k = x - y
        j = (k + d) >> 1
        if j == 0 or (j != d and row[j - 1] < row[j]):
            prev_x = row[j]
            prev_y = prev_x - k - 1
        else:
            prev_x = row[j - 1]
            prev_y = prev_x - k + 1
        while x > prev_x and y > prev_y:
            tail.append(("keep", x + p, y + p))
            x -= 1
            y -= 1
        if x == prev_x:
            tail.append(("add", None, y + p))
        else:
            tail.append(("delete", x + p, None))
        x, y = prev_x, prev_y
    tail.reverse()
    return script + tail


def diff_lines(before: SourceFile | None, after: SourceFile | None) -> LineDiff:
    """Minimal LCS line diff; replaying keeps and adds reproduces the after
    text exactly."""
    a, b = _split_lines(before), _split_lines(after)
    return LineDiff([DiffOp(kind, old, new,
                            b[new - 1] if old is None else a[old - 1])
                     for kind, old, new in _myers(a, b)])


def _edits(before: SourceFile | None, after: SourceFile | None
           ) -> tuple[set[int], set[int], list[tuple[int, int, int]]]:
    """The deleted lines, the added lines and the keep runs of the edit
    script from before to after. A keep run is given as (start, end, shift):
    before's text [start, end) is after's [start + shift, end + shift). It
    takes the newline after its last line only when both sides have one."""
    a, b = _split_lines(before), _split_lines(after)
    deleted: set[int] = set()
    added: set[int] = set()
    runs: list[tuple[int, int, int]] = []
    i = j = 0  # lines of each side the script has passed

    def keep(count: int) -> None:
        start = before.line_starts[i]
        last = i + count  # the line past the run, 0-based
        end = before.line_starts[last] - 1 if last < len(a) \
            else len(before.text)
        if last < len(a) and j + count < len(b):
            end += 1  # the newline both sides have
        runs.append((start, end, after.line_starts[j] - start))

    for kind, old, new in _myers(a, b):
        if kind == "keep":
            continue
        count = old - 1 - i if kind == "delete" else new - 1 - j
        if count:
            keep(count)
            i += count
            j += count
        if kind == "delete":
            deleted.add(old)
            i += 1
        else:
            added.add(new)
            j += 1
    if i < len(a):
        keep(len(a) - i)
    return deleted, added, runs


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

@dataclass(frozen=True)
class SideAnalysis:
    """What churn, pairing and independence read from one side of a file
    pair. The file is lexed once; its comment and string ranges feed the line
    kinds and the regex emit matches, and its token columns close the
    matches and feed the emit lines and the kill sets. Only the answers are
    kept."""
    churned_loc: int  # changed code lines
    total_loc: int | None  # None when not counted
    total_emits: int  # matches in comments and strings included
    changed_emits: tuple[tuple[RegexEmitMatch, int], ...]  # first lines
    emit_only: bool  # every changed code line is an emit line
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, file: SourceFile, lexed: LexResult, changed: set[int],
              whole_file: bool, count_total: bool) -> SideAnalysis:
        """lexed is lex(file). changed holds the deleted lines of a before
        side, or the added lines of an after side. Kill sets are scanned per
        run of consecutive changed non-emit lines (every non-emit line in
        whole-file mode), over the tokens that start on the run's lines and
        lie outside emits. Without count_total, only the changed lines are
        classified, and total_loc is None."""
        starts = file.line_starts
        matches = extract_emits_regex(file, lexed)
        changed_emits: list[tuple[RegexEmitMatch, int]] = []
        # The start, end, lexeme and kind columns of the tokens outside the
        # closed matches.
        columns = (lexed.starts, lexed.ends, lexed.lexemes, lexed.kinds)
        kept: tuple[list, ...] = ([], [], [], [])
        touched: set[int] = set()  # lines a closed match touches
        prev = 0
        for m in matches:
            if not m.in_comment_or_string:
                m, lo, hi = _close(m, lexed)
                for column, kept_column in zip(columns, kept):
                    kept_column += column[prev:lo]
                prev = max(prev, hi)
            first = bisect_right(starts, m.start)
            lines = range(first, bisect_right(starts, m.end - 1) + 1)
            if not m.in_comment_or_string:
                touched.update(lines)
            if not changed.isdisjoint(lines):
                changed_emits.append((m, first))
        for column, kept_column in zip(columns, kept):
            kept_column += column[prev:]
        kept_starts, kept_ends, kept_lexemes, kept_kinds = kept

        def line_bounds(first: int, last: int) -> tuple[int, int]:
            """Index range of the kept tokens that start on these lines."""
            end = starts[last] if last < len(starts) else len(file.text)
            lo = bisect_left(kept_starts, starts[first - 1])
            return lo, bisect_left(kept_starts, end, lo)

        lines = set(range(1, file.line_count + 1)) if whole_file \
            else changed
        emit_lines: set[int] = set()
        for line in touched & lines:
            lo, hi = line_bounds(line, line)
            # No code or string besides the emits and ';'.
            if all(lexeme == ";" for lexeme in kept_lexemes[lo:hi]) and not (
                    lo and kept_ends[lo - 1] > starts[line - 1]):
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
            a, p = _scan_kill_sets(kept_lexemes[lo:hi], kept_kinds[lo:hi])
            assigned |= a
            passed |= p
        # A changed line past the last one, empty after a final newline, is
        # blank.
        ordered = sorted(line for line in changed if line <= file.line_count)
        if count_total:
            kinds = classify_lines(file, lexed)
            total_loc = kinds.count(LINE_CODE)
            changed_kinds = [kinds[line - 1] for line in ordered]
        else:
            total_loc = None
            changed_kinds = classify_lines(file, lexed,
                                           [line - 1 for line in ordered])
        code_changed = {line for line, kind in zip(ordered, changed_kinds)
                        if kind == LINE_CODE}
        return cls(len(code_changed), total_loc, len(matches),
                   tuple(changed_emits), code_changed <= emit_lines,
                   frozenset(assigned), frozenset(passed))


def _pair_changes(path: str, before: SideAnalysis | None,
                  after: SideAnalysis | None) -> list[EventUseChange]:
    """Match a file pair's deleted-side and added-side emits into classified
    changes. Emits inside comments and strings are not paired.

    Each (deleted, added) pair fits exactly one rule, ranked by whether the
    names and the arguments differ, so one greedy pass over all pairs in
    (rank, line distance, source order) order matches what a pass per rule,
    most specific first, would."""
    gone, new = ([e for e in side.changed_emits
                  if not e[0].in_comment_or_string] if side else []
                 for side in (before, after))
    gone_args = [_norm_args(d) for d, _ in gone]
    new_args = [_norm_args(a) for a, _ in new]
    candidates = sorted(
        (2 * (d.event_name != a.event_name) + (gone_args[di] != new_args[ai]),
         abs(d_line - a_line), di, ai)
        for di, (d, d_line) in enumerate(gone)
        for ai, (a, a_line) in enumerate(new))
    changes: list[EventUseChange] = []

    def change(category, before, after):
        changes.append(EventUseChange(
            path, category, before, after,
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
    """The answers churn, pairing and independence give for one revision:
    the churn report, the classified changes, whether the revision changes
    emit lines only, and the kill sets unioned over all sides."""
    churn: ChurnReport
    changes: list[EventUseChange]
    emit_only: bool
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, rev: Revision,
              whole_file: bool = False) -> RevisionAnalysis:
        """Each file pair is diffed once. Its after side is lexed in full;
        its before side is re-lexed from the after side's tokens, copied
        across the keep runs of the edit script, or lexed in full when it is
        alone or either side has a lex error. A pair's totals are read from
        its after side, or from the before side of a deleted file; a before
        side with an after side classifies only its deleted lines."""
        sides: list[SideAnalysis] = []
        changes: list[EventUseChange] = []
        total_loc = total_emits = 0
        for pair in rev.file_pairs:
            deleted, added, runs = _edits(pair.before, pair.after)
            before = after = None
            if pair.after is not None:
                lexed = lex(pair.after)
                after = SideAnalysis.build(pair.after, lexed, added,
                                           whole_file, True)
            if pair.before is not None:
                lexed = lex(pair.before) if after is None else _relex(
                    pair.before, lexed, len(pair.after.text), runs)
                before = SideAnalysis.build(pair.before, lexed, deleted,
                                            whole_file, after is None)
            primary = after if after is not None else before
            total_loc += primary.total_loc
            total_emits += primary.total_emits
            sides += [s for s in (before, after) if s is not None]
            changes += _pair_changes(pair.path, before, after)
        churned_loc = sum(side.churned_loc for side in sides)
        churned_emits = sum(len(side.changed_emits) for side in sides)
        churn = ChurnReport(
            churned_loc, total_loc,
            Fraction(churned_loc, total_loc) if total_loc else Fraction(0),
            churned_emits, total_emits,
            Fraction(churned_emits, total_emits) if total_emits
            else Fraction(0))
        return cls(churn, changes, all(side.emit_only for side in sides),
                   frozenset().union(*(side.assigned for side in sides)),
                   frozenset().union(*(side.passed for side in sides)))

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


def _close(m: RegexEmitMatch, lexed: LexResult
           ) -> tuple[RegexEmitMatch, int, int]:
    """The match m, outside comments and strings, closed; and the index range
    of its tokens in lexed, the file's columns. The match stops at the first
    ')', so a nested call or cast, or a ')' in a string or comment, leaves
    the argument list open: carry on to the ')' that closes it, but not past
    a ';', '{' or '}'. The closed match runs to its last token, and its
    raw_args hold the whole argument list."""
    starts, lexemes = lexed.starts, lexed.lexemes
    lo = bisect_left(starts, m.start)
    hi = bisect_left(starts, m.end, lo)
    # With no '(' in its arguments and its ')' a token, the match already
    # closes the argument list.
    if "(" not in m.raw_args and starts[hi - 1] == m.end - 1:
        return m, lo, hi
    inside = lexemes[lo:hi]
    depth = inside.count("(") - inside.count(")")
    while depth > 0 and hi < len(lexemes):
        lexeme = lexemes[hi]
        if lexeme in (";", "{", "}"):
            break
        depth += (lexeme == "(") - (lexeme == ")")
        hi += 1
    end = lexed.ends[hi - 1]
    args = m.end - 1 - len(m.raw_args)  # just past the '('
    raw_args = m.file.text[args:starts[hi - 1] if depth == 0 else end]
    return replace(m, raw_args=raw_args, end=end), lo, hi


def _scan_kill_sets(lexemes: list[str], kinds: list[TokenKind]
                    ) -> tuple[set[str], set[str]]:
    """Identifiers assigned to, and identifiers passed inside call argument
    lists, in a run of a file's tokens, given as its lexeme and kind
    columns."""
    assigned: set[str] = set()
    passed: set[str] = set()
    identifier = TokenKind.IDENTIFIER
    n = len(lexemes)
    for idx, lexeme in enumerate(lexemes):
        if lexeme in ASSIGN_OPS:
            j = idx - 1
            while j >= 0:
                prev = lexemes[j]
                if prev in (";", ",", "{", "}", "(", ")"):
                    break
                if kinds[j] is identifier:
                    assigned.add(prev)
                j -= 1
        elif lexeme in ("++", "--"):
            for j in (idx - 1, idx + 1):
                if 0 <= j < n and kinds[j] is identifier:
                    assigned.add(lexemes[j])
        elif kinds[idx] is identifier and idx + 1 < n and \
                lexemes[idx + 1] == "(":
            depth = 0
            for j in range(idx + 1, n):
                word = lexemes[j]
                if word == "(":
                    depth += 1
                elif word == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif kinds[j] is identifier and j > idx + 1:
                    passed.add(word)
    return assigned, passed


# ----------------------------------------------------------- public readers

def churn(rev: Revision) -> ChurnReport:
    return RevisionAnalysis.build(rev).churn


def pair_emit_changes(rev: Revision) -> list[EventUseChange]:
    """Match deleted-side and added-side emits into classified changes."""
    return RevisionAnalysis.build(rev).changes


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
    for change in analysis.changes:
        change.independence = analysis.independence(change)
    return RevisionReport(rev.id, analysis.churn, analysis.changes)
