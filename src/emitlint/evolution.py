"""Revision analysis: line diffing, churn rates, and classification of emit
modifications.

A revision is a set of before/after file pairs. The diff is a minimal
longest-common-subsequence edit script (Myers), so a modified line appears as
one deleted plus one added line. It is the greedy forward Myers diff, run
past the common prefix over only the lines that both sides hold, since a
line that one side lacks is deleted or added by every script. For N and M
such lines and D deleted plus added among them, the search takes
O((N + M) * D) time and keeps about D * D / 2 frontier entries for the
traceback; the rest of the diff is linear in the lines. A 4,000-line
whole-file rewrite with every line distinct, or 4,000 lines inserted into a
4-line file, searches at most 4 lines and takes a few milliseconds. A
rewrite whose lines recur on the other side stays quadratic: reversing a
2,000-line file (D = 3,998) takes about 1 s and peaks at 79 MB of process
memory (Python 3.11, 2 vCPUs).

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
the emit lines and the kill scan all read that one extent. A match with no
'(' in its arguments and its ')' outside comments and strings is closed
already; any other is open, and is closed from the tokens up to its stop,
the first ';', '{' or '}' outside comments and strings. The open matches
that share a stop share one lex, from the first one's emit keyword to the
stop, and one pass that pairs its parentheses. A side's other tokens are
lexed only outside its closed matches, so the emit lines and the kill scan
read the lexer's columns as they come, by index: a line's tokens are found
by bisecting the start offsets.

Each revision is analyzed once. `RevisionAnalysis.build` diffs every file
pair once and builds each side's `SideAnalysis` the same way, from that side
alone. One scan of the side's text finds its comment and string ranges
(`lexer.scan_ranges`), which give the side's code rows and its regex
matches; its tokens are lexed only on the lines read, the changed lines or
every line in whole-file mode, outside the closed matches. The code rows
are `scan`'s one code-line rule, built once per side: a changed line is a
code line when its row is filled. The side that gives a pair's totals, the
after side or a lone side, counts its filled rows and finds every match; a
before side with an after side counts nothing, builds rows only from its
first to its last deleted line, and finds only the matches that can reach
its windows, those whose keyword lies between a safe start before its first
window and the end of its last (see `scan`). The analysis
keeps only the answers: the churn report, the classified changes, each
labelled with its independence, whether the revision changes emit lines
only, and the kill sets. Each side is summed up in a `SideAnalysis`: its
churned and total code lines, its emit total, its changed matches with their
first lines, its emit-only flag and kill sets. `analyze_revision` returns
the one analysis of a revision; `churn`, `pair_emit_changes` and
`classify_independence` each build one and read a single answer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import compress, count
import re

from .lexer import ASSIGN_OPS, Ranges, TokenKind, _scan, scan_ranges
from .scan import (
    STOPS, RegexEmitMatch, _code_rows, _filled, extract_emits_regex, range_at,
)
from .source import SourceFile

_IDENT_TOKEN_RE = re.compile(r"[A-Za-z_]\w*")
# The characters at which `_close` stops, outside comments and strings.
_STOP_RE = re.compile(f"[{re.escape(STOPS)}]")
# The tokens past which an assignment operator reaches no identifier.
_KILL_BOUNDS = frozenset(";,{}()")


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


def _kept_runs(a: list[str], b: list[str]) -> list[tuple[int, int, int]]:
    """The lines that the greedy forward Myers edit script from a to b
    keeps, as runs (x, y, length): a[x:x + length] is kept as
    b[y:y + length]. The runs come in order and end with (len(a), len(b),
    0). Between two runs the script deletes the lines of a, then adds the
    lines of b: an add that ends no snake is never followed by a delete,
    since if pass d reaches diagonal k by an add from x on diagonal k + 1,
    it takes diagonal k + 2 past x, so pass d + 1 reaches diagonal k + 1
    down from k + 2.

    The common prefix is kept at once. Past it, a line that only one side
    holds is deleted or added by every script, so the search runs over the
    lines that both sides hold; the tests check that it keeps what a search
    over every line keeps, on every short pair and on seeded ones. A snake
    whose lines are not consecutive on both sides, since a dropped line
    lies between two of them, is halved until its pieces are, and the
    pieces are joined back where they meet."""
    n, m = len(a), len(b)
    p = 0
    while p < n and p < m and a[p] == b[p]:
        p += 1
    runs = [(0, 0, p)] if p else []
    if p == n or p == m:  # no line past the prefix is on both sides
        return runs + [(n, m, 0)]
    ta, tb = a[p:], b[p:]
    xs, sa = _shared(ta, set(tb), p)
    ys, sb = _shared(tb, set(ta), p)
    for snake in _myers(sa, sb):
        pieces = [snake]
        while pieces:
            i, j, size = pieces.pop()
            x, y = xs[i], ys[j]
            if xs[i + size - 1] - x != size - 1 or \
                    ys[j + size - 1] - y != size - 1:
                half = size >> 1
                pieces += [(i + half, j + half, size - half), (i, j, half)]
            elif runs and runs[-1][0] + runs[-1][2] == x \
                    and runs[-1][1] + runs[-1][2] == y:
                runs[-1] = (runs[-1][0], runs[-1][1], runs[-1][2] + size)
            else:
                runs.append((x, y, size))
    runs.append((n, m, 0))
    return runs


def _shared(lines: list[str], other: set[str], start: int
            ) -> tuple[list[int], list[str]]:
    """The lines that other holds, with their indexes counted from
    start."""
    held = list(map(other.__contains__, lines))
    return list(compress(count(start), held)), list(compress(lines, held))


def _myers(a: list[str], b: list[str]) -> list[tuple[int, int, int]]:
    """The snakes (x, y, length) of the greedy forward Myers path from a to
    b, in order, those of length 0 left out. Each pass d reaches diagonal k
    down from diagonal k + 1, or right from k - 1 when that reaches at least
    as far; this tie-break decides which of several minimal scripts is
    returned, so the common suffix is not trimmed: the tie-break may keep an
    earlier copy of a repeated line.

    Both lists are padded with sentinels that match nothing, so a snake
    stops without bounds tests. The trace keeps, for each d, only the d
    frontier entries of pass d - 1 that the traceback reads. For N and M
    lines and D deleted plus added ones, the search takes O((N + M) * D)
    time and keeps about D * D / 2 entries."""
    n, m = len(a), len(b)
    # No point of a path before (n, m) lies past n + m on either axis.
    off = n + m + 1
    ca = a + [-1] * (off + 1 - n)
    cb = b + [-2] * (off + 1 - m)
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
    snakes: list[tuple[int, int, int]] = []
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
        length = min(x - prev_x, y - prev_y)
        if length:
            snakes.append((x - length, y - length, length))
        x, y = prev_x, prev_y
    if x:  # the snake at d = 0
        snakes.append((0, 0, x))
    snakes.reverse()
    return snakes


def _ops(a: list[str], b: list[str]) -> list[DiffOp]:
    """The edit script from a to b, in hunk order: deletes, adds, keeps."""
    ops: list[DiffOp] = []
    x = y = 0
    for rx, ry, length in _kept_runs(a, b):
        ops += [DiffOp("delete", i + 1, None, a[i]) for i in range(x, rx)]
        ops += [DiffOp("add", None, j + 1, b[j]) for j in range(y, ry)]
        ops += [DiffOp("keep", rx + i + 1, ry + i + 1, a[rx + i])
                for i in range(length)]
        x, y = rx + length, ry + length
    return ops


def diff_lines(before: SourceFile | None, after: SourceFile | None) -> LineDiff:
    """Minimal LCS line diff; replaying keeps and adds reproduces the after
    text exactly."""
    return LineDiff(_ops(_split_lines(before), _split_lines(after)))


def _edits(before: SourceFile | None, after: SourceFile | None
           ) -> tuple[set[int], set[int]]:
    """The deleted lines and the added lines of the edit script from before
    to after: those between the kept runs."""
    deleted: set[int] = set()
    added: set[int] = set()
    x = y = 0
    for rx, ry, length in _kept_runs(_split_lines(before),
                                     _split_lines(after)):
        deleted.update(range(x + 1, rx + 1))
        added.update(range(y + 1, ry + 1))
        x, y = rx + length, ry + length
    return deleted, added


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
    if not tokens or not other:
        return tokens
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
    pair. One scan of the file finds its comment and string ranges, which
    feed the code rows and the regex emit matches; the matches are closed
    from their own tokens, one lex per stop, and the token columns that
    feed the emit lines and the kill sets are lexed only outside the closed
    matches, on the lines they are read on. Only the answers are kept. A
    side that gives no totals, a before side with an after side, counts
    none: its total_loc and total_emits are None."""
    churned_loc: int  # changed code lines
    total_loc: int | None  # None when not counted
    total_emits: int | None  # matches in comments and strings included
    changed_emits: tuple[tuple[RegexEmitMatch, int], ...]  # first lines
    emit_only: bool  # every changed code line is an emit line
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, file: SourceFile, changed: set[int], whole_file: bool,
              count_total: bool) -> SideAnalysis:
        """changed holds the deleted lines of a before side, or the added
        lines of an after side. The matches are closed first; the tokens
        are then lexed over the gaps that the closed matches leave in
        `_windows`, the changed lines or every line in whole-file mode
        (`_lex_gaps`). Kill sets are scanned per run of consecutive changed
        non-emit lines (every non-emit line in whole-file mode), over the
        tokens that start on the run's lines. The side's code rows are
        built once: each changed line reads its own row, and with
        count_total the rows cover the whole text, the filled ones are the
        code lines, as `count_loc` counts them, and every match is found;
        without it, the rows run from the first to the last changed line,
        only the matches that can reach the windows are found (see the
        module docstring of `scan`), and the totals are None."""
        text = file.text
        ranges = scan_ranges(text)
        lines = set(range(1, file.line_count + 1)) if whole_file \
            else changed
        windows = _windows(file, ranges, lines)
        if count_total:
            window = None
        else:  # no keyword is tried where there is no window
            window = (windows[0][0], windows[-1][1]) if windows else (0, 0)
        matches = _close(text, extract_emits_regex(file, ranges, window),
                         ranges)
        starts = file.line_starts
        changed_emits: list[tuple[RegexEmitMatch, int]] = []
        closed = [m for m in matches if not m.in_comment_or_string]
        touched: set[int] = set()  # lines a closed match touches
        for m in matches:
            first = bisect_right(starts, m.start)
            own = range(first, bisect_right(starts, m.end - 1) + 1)
            if not m.in_comment_or_string:
                touched.update(own)
            if not changed.isdisjoint(own):
                changed_emits.append((m, first))
        kinds, lexemes, tok_starts = _lex_gaps(text, windows, closed)

        def line_bounds(first: int, last: int) -> tuple[int, int]:
            """Index range of the tokens that start on these lines."""
            end = starts[last] if last < len(starts) else len(text)
            lo = bisect_left(tok_starts, starts[first - 1])
            return lo, bisect_left(tok_starts, end, lo)

        emit_lines: set[int] = set()
        for line in touched & lines:
            lo, hi = line_bounds(line, line)
            # No code or string besides the emits and ';'.
            if all(lexeme == ";" for lexeme in lexemes[lo:hi]) and not (
                    lo and tok_starts[lo - 1] + len(lexemes[lo - 1])
                    > starts[line - 1]):
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
            a, p = _scan_kill_sets(lexemes[lo:hi], kinds[lo:hi])
            assigned |= a
            passed |= p
        # No changed line gives an empty slice.
        first, last = (1, len(starts)) if count_total else (
            min(changed, default=1), max(changed, default=0))
        rows = _code_rows(text, ranges, starts[first - 1],
                          starts[last] if last < len(starts) else len(text))
        code_changed = {line for line in changed if rows[line - first]}
        return cls(len(code_changed),
                   _filled(rows) if count_total else None,
                   len(matches) if count_total else None,
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
    the churn report, the classified changes with their independence
    labels, whether the revision changes emit lines only, and the kill sets
    unioned over all sides."""
    revision_id: str
    churn: ChurnReport
    changes: list[EventUseChange]
    emit_only: bool
    assigned: frozenset[str]
    passed: frozenset[str]

    @classmethod
    def build(cls, rev: Revision,
              whole_file: bool = False) -> RevisionAnalysis:
        """Each file pair is diffed once, and each side is analyzed from its
        own text and changed lines. A pair's totals are read from its after
        side, or from the before side of a deleted file; a before side with
        an after side counts none. Each change is labelled once the
        emit-only flag and the kill sets are known."""
        sides: list[SideAnalysis] = []
        changes: list[EventUseChange] = []
        total_loc = total_emits = 0
        for pair in rev.file_pairs:
            deleted, added = _edits(pair.before, pair.after)
            before = after = None
            if pair.after is not None:
                after = SideAnalysis.build(pair.after, added, whole_file, True)
            if pair.before is not None:
                before = SideAnalysis.build(pair.before, deleted, whole_file,
                                            after is None)
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
        analysis = cls(rev.id, churn, changes,
                       all(side.emit_only for side in sides),
                       frozenset().union(*(side.assigned for side in sides)),
                       frozenset().union(*(side.passed for side in sides)))
        for change in changes:
            change.independence = analysis.independence(change)
        return analysis

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


def _windows(file: SourceFile, ranges: Ranges, lines: set[int]
             ) -> list[list[int]]:
    """The character windows [a, b) of file that hold the given lines, in
    order and merged where they touch; ranges are the file's comment and
    string ranges, searched in place by `range_at`. Each line runs from its
    start to the next line start or EOF, and an edge that falls inside a
    comment or string moves out to that range's own edge, its start for a
    window's start and its end for a window's end.
    Every edge is then a token boundary of a full lex, where `_scan` gives
    that lex's tokens."""
    text, starts = file.text, file.line_starts
    windows: list[list[int]] = []
    for line in sorted(lines):
        a = starts[line - 1]
        b = starts[line] if line < len(starts) else len(text)
        if (r := range_at(ranges, a)) is not None:
            a = r[0]
        if (r := range_at(ranges, b)) is not None:
            b = r[1]
        if windows and a <= windows[-1][1]:
            windows[-1][1] = b
        else:
            windows.append([a, b])
    return windows


def _lex_gaps(text: str, windows: list[list[int]],
              closed: list[RegexEmitMatch]) -> tuple[list, ...]:
    """The kinds, lexemes and starts columns of the tokens in the windows
    outside the closed matches, in source order; a token ends at its start
    plus its lexeme's length. A gap resumes at the latest end so far, since
    one closed match may hold another."""
    columns: tuple[list, ...] = ([], [], [], [])
    i = pos = 0
    for a, b in windows:
        pos = max(pos, a)
        while i < len(closed) and closed[i].start < b:
            if closed[i].start > pos:
                _scan(text, pos, closed[i].start, columns, [])
            pos = max(pos, closed[i].end)
            i += 1
        if pos < b:
            _scan(text, pos, b, columns, [])
    return columns[:3]


def _close(text: str, matches: list[RegexEmitMatch], ranges: Ranges
           ) -> list[RegexEmitMatch]:
    """The matches of text, in source order, with each one outside comments
    and strings closed; ranges are the text's comment and string ranges,
    searched in place by `range_at`. A match stops at the first ')', so a
    nested call or cast, or a ')' in a string or comment, leaves its
    argument list open: carry on to the ')' that closes it, but not past its
    stop, the first of `scan.STOPS` (';', '{' or '}') outside comments and
    strings. The closed match runs to its last token, and its raw_args hold
    the whole argument list.

    The open matches that share a stop share one lex, from the first one's
    emit keyword to the stop, and one pass pairs each '(' of it with its
    ')'. A match is closed by the ')' paired with its own '(': a walk from
    its keyword, counting parentheses, ends there, since no ')' lies in the
    match before its last character. With no such ')', it runs to the last
    token before the stop."""
    closed = list(matches)
    groups: list[tuple[int, list[int]]] = []  # (stop, open match indexes)
    stop = -1
    for i, m in enumerate(matches):
        # With no '(' in its arguments and its ')' a token, a match already
        # closes the argument list.
        if m.in_comment_or_string or ("(" not in m.raw_args
                                      and range_at(ranges, m.end - 1) is None):
            continue
        # Matches come in source order, so a stop at or past this match's
        # end is its stop too.
        if stop < m.end:
            pos = m.end
            while (found := _STOP_RE.search(text, pos)) is not None and \
                    (r := range_at(ranges, found.start())) is not None:
                pos = r[1]
            stop = len(text) if found is None else found.start()
            groups.append((stop, []))
        groups[-1][1].append(i)
    for stop, group in groups:
        columns: tuple[list, ...] = ([], [], [], [])
        _scan(text, matches[group[0]].start, stop, columns, [])
        _, lexemes, starts, _ = columns
        pairs: dict[int, int] = {}  # '(' index -> its ')' index
        opened: list[int] = []
        for j, lexeme in enumerate(lexemes):
            if lexeme == "(":
                opened.append(j)
            elif lexeme == ")" and opened:
                pairs[opened.pop()] = j
        for i in group:
            m = matches[i]
            # The emit keyword and the name come before the '('.
            lo = lexemes.index("(", bisect_left(starts, m.start))
            last = pairs.get(lo, len(lexemes) - 1)
            args = m.end - 1 - len(m.raw_args)  # just past the '('
            end = starts[last] + len(lexemes[last])
            raw_args = text[args:starts[last] if lo in pairs else end]
            closed[i] = replace(m, raw_args=raw_args, end=end)
    return closed


def _scan_kill_sets(lexemes: list[str], kinds: list[TokenKind]
                    ) -> tuple[set[str], set[str]]:
    """Identifiers assigned to, and identifiers passed inside call argument
    lists, in a run of a file's tokens, given as its lexeme and kind
    columns.

    An identifier is assigned when an assignment operator follows it with
    no ';', ',', brace or parenthesis between, or when '++' or '--' stands
    next to it. It is passed when it lies inside the parentheses of a call,
    an identifier followed by '(', up to the ')' that closes them or the end
    of the run. One pass from the end finds the assignments, and one pass
    from the start pairs the parentheses on a stack that counts the calls
    still open."""
    assigned: set[str] = set()
    passed: set[str] = set()
    identifier = TokenKind.IDENTIFIER
    n = len(lexemes)
    pending = False  # an assignment operator follows, in the same part
    for idx in range(n - 1, -1, -1):
        lexeme = lexemes[idx]
        if lexeme in ASSIGN_OPS:
            pending = True
        elif lexeme in _KILL_BOUNDS:
            pending = False
        elif lexeme in ("++", "--"):
            for j in (idx - 1, idx + 1):
                if 0 <= j < n and kinds[j] is identifier:
                    assigned.add(lexemes[j])
        elif pending and kinds[idx] is identifier:
            assigned.add(lexeme)
    calls: list[bool] = []  # per open '(', whether a call opened it
    open_calls = 0
    for idx, lexeme in enumerate(lexemes):
        if lexeme == "(":
            call = idx > 0 and kinds[idx - 1] is identifier
            calls.append(call)
            open_calls += call
        elif lexeme == ")":
            if calls:
                open_calls -= calls.pop()
        elif open_calls and kinds[idx] is identifier:
            passed.add(lexeme)
    return assigned, passed


# ----------------------------------------------------------- public readers

def churn(rev: Revision) -> ChurnReport:
    return RevisionAnalysis.build(rev).churn


def pair_emit_changes(rev: Revision) -> list[EventUseChange]:
    """Match deleted-side and added-side emits into classified changes,
    labelled as in the default kill mode."""
    return RevisionAnalysis.build(rev).changes


def classify_independence(rev: Revision, change: EventUseChange,
                          whole_file: bool = False) -> Independence:
    return RevisionAnalysis.build(rev, whole_file).independence(change)


def analyze_revision(rev: Revision,
                     whole_file_kill: bool = False) -> RevisionAnalysis:
    return RevisionAnalysis.build(rev, whole_file_kill)
