"""Tokenizer for the supported Solidity subset.

One regex walks the text with `finditer`, one match per token: each match
takes the whitespace before its token, and the number of the group that
matched names the token's class. Keywords are decided by the regex too: a
keyword alternative, built from KEYWORDS and the elementary type names,
comes before the word alternative, so no word is looked up afterwards.

Comments and whitespace are consumed, never emitted as tokens. The tokens
are kept as four parallel columns, `kinds`, `lexemes`, `starts` and `ends`,
with no object per token; `LexResult.tokens` builds `Token`s from them on
each read, for callers that want objects. Comment and string ranges are kept
on the side so later passes can classify lines and decide whether a textual
match falls inside a comment or a string literal.

Recovery: an unterminated string abandons the current line and resumes at the
next one; an unterminated block comment swallows the rest of the file. Both
are recorded as lex errors rather than raised.

Re-lexing: `lex` runs the one token loop, `_scan`, over the whole text. The
private `_relex` builds the same LexResult for a text that shares runs of
characters with one already lexed, such as the before side of an edit and
its after side: it copies the lexed side's matches across the shared runs,
shifted, and runs `_scan` only over bounded windows around the edits. A
match that ends at e reads at most 3 characters past e; the worst case is a
number followed by `e`, a sign and a non-digit, as `1` in `1e+x`. So a
copied match ends at least 3 characters before its run does, unless the
run reaches the end of both texts; and of a window's matches only those
that end 3 characters before the window does are kept, unless the window
reaches the end of the text.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter

from .source import SourceFile, Span


class TokenKind(Enum):
    KEYWORD = "Keyword"
    IDENTIFIER = "Identifier"
    NUMBER = "NumberLit"
    STRING = "StringLit"
    PUNCT = "Punct"
    OPERATOR = "Operator"


@dataclass(slots=True)
class Token:
    """A token with its half-open character-offset range. Line and column
    are computed only where a span is kept: `file.span_from_offsets(start,
    end)`.

    The lexeme decides the kind: a word is a keyword exactly when it is in
    KEYWORDS or an elementary type, and punctuation, operators, numbers and
    quoted strings share no lexeme. So a fixed token is recognized by its
    lexeme alone."""
    kind: TokenKind
    lexeme: str
    start: int
    end: int


@dataclass(frozen=True)
class LexError:
    kind: str  # UnterminatedString | UnterminatedComment | UnexpectedCharacter
    span: Span


@dataclass
class LexResult:
    """Token i has kind kinds[i], text lexemes[i] and the half-open
    character-offset range [starts[i], ends[i])."""
    kinds: list[TokenKind]
    lexemes: list[str]
    starts: list[int]
    ends: list[int]
    errors: list[LexError]
    # Half-open character-offset ranges, in source order.
    comment_ranges: list[tuple[int, int]]
    string_ranges: list[tuple[int, int]]

    @property
    def tokens(self) -> list[Token]:
        """The columns as Token objects, built afresh on each read."""
        return list(map(Token, self.kinds, self.lexemes, self.starts,
                        self.ends))


KEYWORDS = frozenset({
    "abstract", "anonymous", "assembly", "break", "calldata", "catch",
    "constant", "constructor", "continue", "contract", "delete", "do",
    "else", "emit", "enum", "event", "external", "fallback", "false", "for",
    "function", "if", "immutable", "import", "indexed", "interface",
    "internal", "is", "library", "mapping", "memory", "modifier", "new",
    "override", "payable", "pragma", "private", "public", "pure", "receive",
    "return", "returns", "storage", "struct", "true", "try", "unchecked",
    "using", "view", "virtual", "while",
})

# The elementary type names, ASCII digits only. The one rule for which
# words are keywords: KEYWORDS and these.
_ELEMENTARY = (r"u?int(?:[0-9]+)?|bytes(?:[1-9]|[12][0-9]|3[0-2])?|byte|bool"
               r"|address|string|u?fixed(?:[0-9]+x[0-9]+)?")

# Longest-match-first operator table.
_OPERATORS = (
    ">>=", "<<=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "<<", ">>", "**", "=>",
    "=", "+", "-", "*", "/", "%", "!", "<", ">", "&", "|", "^", "~",
)

ASSIGN_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
})


def _first_letter_alternation(words) -> str:
    """`a(?:bstract|nonymous|…)|b(?:reak)|…`. The engine drops an
    alternative whose first letter differs at once, so grouping by first
    letter leaves fewer alternatives to try per word."""
    return "|".join(
        first + "(?:" + "|".join(w[1:] for w in group) + ")"
        for first, group in groupby(sorted(words), key=itemgetter(0)))


# One group per token class, numbered from 1 in this order; a match's
# `lastindex` names its class, so no alternative may hold a capturing group
# of its own. Each match takes the whitespace before its token; at each
# offset the first alternative that matches wins, and every character
# starts some match, so `finditer` walks the whole text with no gaps. Its
# last match is the trailing whitespace, if any, and `\Z` (lastindex None).
(_COMMENT, _OPEN_COMMENT, _STRING, _OPEN_STRING, _KEYWORD, _WORD, _NUMBER,
 _OPERATOR, _PUNCT, _BAD) = range(1, 11)
_TOKEN_RE = re.compile("[ \t\r\n]*(?:" + "|".join(f"({p})" for p in (
    r"//[^\n]*|/\*(?s:.*?)\*/",
    r"/\*(?s:.*)",
    # A backslash escapes any next character, a newline included.
    r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*'",
    # Reached only when no closing quote matched, so it runs to the next
    # unescaped newline or to EOF, taking a trailing backslash with it.
    r"""["'][^\\\n]*(?:\\(?s:.)[^\\\n]*)*\\?""",
    # A keyword is a whole word: the lookahead rejects `uint256x`, `bytes33`.
    f"(?:{_first_letter_alternation(KEYWORDS)}|{_ELEMENTARY})"
    r"(?![A-Za-z0-9_$])",
    r"[A-Za-z_$][A-Za-z0-9_$]*",
    # Solidity numbers are ASCII: `\d` would also take other scripts' digits.
    r"0[xX][0-9a-fA-F_]+|[0-9][0-9_]*(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?",
    "|".join(map(re.escape, _OPERATORS)),
    r"[(){}\[\];,.?:]",
    # Characters that start none of the classes above.
    r"""[^ \t\r\n"'A-Za-z_$0-9=+\-*/%!<>&|^~(){}\[\];,.?:]+""",
)) + r"|\Z)")

_TOKEN_KINDS = {
    _KEYWORD: TokenKind.KEYWORD, _WORD: TokenKind.IDENTIFIER,
    _STRING: TokenKind.STRING, _NUMBER: TokenKind.NUMBER,
    _OPERATOR: TokenKind.OPERATOR, _PUNCT: TokenKind.PUNCT,
}
_ERROR_KINDS = {
    _OPEN_COMMENT: "UnterminatedComment",
    _OPEN_STRING: "UnterminatedString",
    _BAD: "UnexpectedCharacter",
}


def _scan(text: str, pos: int, endpos: int, columns: tuple[list, ...],
          errors: list[tuple[int, int, int]]) -> None:
    """Append the matches of text[pos:endpos] to columns, the lists kinds,
    lexemes, starts, ends, comments and strings of a LexResult; an error is
    appended to errors as its group and offsets."""
    kinds, lexemes, starts, ends, comments, strings = columns
    token_kind = _TOKEN_KINDS.get
    for m in _TOKEN_RE.finditer(text, pos, endpos):
        group = m.lastindex
        kind = token_kind(group)
        if kind is not None:
            a, b = m.span(group)
            kinds.append(kind)
            lexemes.append(m[group])
            starts.append(a)
            ends.append(b)
            if group == _STRING:
                strings.append((a, b))
        elif group == _COMMENT:
            comments.append(m.span(group))
        elif group is not None:
            a, b = m.span(group)
            if group == _OPEN_COMMENT:
                comments.append((a, b))
            elif group == _OPEN_STRING:
                strings.append((a, b))
            errors.append((group, a, b))


def lex(file: SourceFile) -> LexResult:
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    errors: list[tuple[int, int, int]] = []
    _scan(file.text, 0, len(file.text), columns, errors)
    kinds, lexemes, starts, ends, comments, strings = columns
    return LexResult(kinds, lexemes, starts, ends,
                     [LexError(_ERROR_KINDS[group],
                               file.span_from_offsets(a, b))
                      for group, a, b in errors], comments, strings)


# A match that ends at e reads at most this many characters from e on: `1`
# in `1e+x` reads `e`, `+` and `x` before it settles for `1`.
_READ_PAST = 3
# How far a re-lex window reaches after one that found no way back to
# copying; it doubles after each such window.
_REACH = 48
_END = itemgetter(1)


def _relex(file: SourceFile, base: LexResult, base_size: int,
           runs: list[tuple[int, int, int]]) -> LexResult:
    """lex(file), built from base, the LexResult of a text of base_size
    characters that holds each run (start, end, shift) of file's text at
    [start + shift, end + shift). The runs are disjoint and in order.

    A match depends on nothing before its start. So where a match of file's
    text ends at e inside a run and e + shift is a token end of base, the
    two walks go on alike, and base's matches are copied, shifted, up to the
    run's copy limit. The rest is lexed in windows, each reaching just past
    the end of base's first token in the next run, and keeping the matches
    that end _READ_PAST characters before the window does. Copying resumes
    at the first kept token end that maps into base; failing that, the next
    window starts at the last kept match and reaches _REACH characters,
    then twice as far each time. A lex error on either side falls back to
    lex(file)."""
    text = file.text
    n = len(text)
    if base.errors:
        return lex(file)
    spans = []  # (start, copy limit, shift) of the runs that can be copied
    for start, end, shift in runs:
        limit = n if end == n and end + shift == base_size \
            else end - _READ_PAST
        if limit > start:
            spans.append((start, limit, shift))
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    kinds, lexemes, starts, ends, comments, strings = columns
    errors: list[tuple[int, int, int]] = []
    b_ends = base.ends
    pos = ri = reach = 0
    synced = bool(spans) and spans[0][0] == 0 and spans[0][2] == 0
    while True:
        if synced:
            # pos and pos + shift end a match on both sides: copy.
            _, limit, shift = spans[ri]
            q, q_limit = pos + shift, limit + shift
            i = bisect_left(base.starts, q)
            j = bisect_right(b_ends, q_limit, i)
            kinds += base.kinds[i:j]
            lexemes += base.lexemes[i:j]
            if shift:
                starts += [b - shift for b in base.starts[i:j]]
                ends += [b - shift for b in b_ends[i:j]]
            else:
                starts += base.starts[i:j]
                ends += b_ends[i:j]
            comments += _shifted(base.comment_ranges, q, q_limit, shift)
            strings += _shifted(base.string_ranges, q, q_limit, shift)
            if limit == n:
                break
            pos = max(pos, ends[-1] if ends else 0,
                      comments[-1][1] if comments else 0)
            ri += 1
            reach = 0
            synced = False
        while ri < len(spans) and spans[ri][1] <= pos:
            ri += 1
        if ri == len(spans):
            window = n
        elif reach:
            window = min(n, max(pos, spans[ri][0]) + reach)
        else:
            # Reach just past the end of base's first token in the run.
            start, limit, shift = spans[ri]
            k = bisect_left(b_ends, start + shift)
            window = min(n, _READ_PAST + min(
                limit, b_ends[k] - shift if k < len(b_ends) else n))
        t0 = len(ends)
        _scan(text, pos, window, columns, errors)
        cutoff = window if window == n else max(pos, window - _READ_PAST)
        if any(b <= cutoff for _, _, b in errors):
            return lex(file)
        errors.clear()
        t = _truncate(columns, cutoff)
        found = _sync_point(ends, t0, t, spans, ri, b_ends)
        if found is not None:
            k, ri = found
            pos = ends[k]
            _truncate(columns, pos)
            synced = True
        elif window == n:
            break
        else:
            pos = max(pos, ends[-1] if ends else 0,
                      comments[-1][1] if comments else 0)
            reach = 2 * reach or _REACH
    return LexResult(kinds, lexemes, starts, ends, [], comments, strings)


def _shifted(ranges: list[tuple[int, int]], lo: int, hi: int, shift: int
             ) -> list[tuple[int, int]]:
    """The ranges that lie in [lo, hi], moved back by shift."""
    i = bisect_left(ranges, (lo,))
    j = bisect_right(ranges, hi, i, key=_END)
    return [(a - shift, b - shift) for a, b in ranges[i:j]]


def _truncate(columns: tuple[list, ...], cutoff: int) -> int:
    """Drop the tokens, comments and strings that end past cutoff from the
    columns (kinds, lexemes, starts, ends, comments, strings); the number of
    tokens left."""
    kinds, lexemes, starts, ends, comments, strings = columns
    t = bisect_right(ends, cutoff)
    for column in (kinds, lexemes, starts, ends):
        del column[t:]
    del comments[bisect_right(comments, cutoff, key=_END):]
    del strings[bisect_right(strings, cutoff, key=_END):]
    return t


def _sync_point(ends: list[int], lo: int, hi: int,
                spans: list[tuple[int, int, int]], ri: int,
                base_ends: list[int]) -> tuple[int, int] | None:
    """The first k in [lo, hi) and the index of its span, from ri on, such
    that ends[k] lies in the span before its copy limit and maps to a token
    end in base_ends; None if there is none."""
    while lo < hi and ri < len(spans):
        start, limit, shift = spans[ri]
        k = bisect_left(ends, start, lo, hi)
        while k < hi and ends[k] < limit:
            q = ends[k] + shift
            i = bisect_left(base_ends, q)
            if i < len(base_ends) and base_ends[i] == q:
                return k, ri
            k += 1
        lo = k
        ri += 1
    return None


def tokenize(file: SourceFile) -> list[Token]:
    """Token stream with comments and whitespace dropped."""
    return lex(file).tokens
