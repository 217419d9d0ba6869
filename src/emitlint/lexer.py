"""Tokenizer for the supported Solidity subset.

One regex walks the text with `finditer`, one match per token: each match
takes the whitespace before its token, and the number of the group that
matched names the token's class. Keywords are decided by the regex too: a
keyword alternative, built from KEYWORDS and the elementary type names,
comes before the word alternative, so no word is looked up afterwards.
The alternatives come commonest first, punctuation and words; the order
changes no match, because a token's first character names its class (the
comment above `_TOKEN_RE` gives the rule and its two shared characters).

Comments and whitespace are consumed, never emitted as tokens. The tokens
are kept as three parallel columns, `kinds`, `lexemes` and `starts`, with no
object per token; a token ends at `starts[i] + len(lexemes[i])`, so no end
column is kept. One scan keeps one string object per distinct lexeme, so a
name used a thousand times is stored once. `LexResult.tokens` builds
`Token`s from the columns on each read, for callers that want objects. The
comment and string ranges are kept on the side as one list in source order,
so later passes can classify lines and decide whether a textual match falls
inside a comment or a string literal.

Recovery: an unterminated string abandons the current line and resumes at the
next one; an unterminated block comment swallows the rest of the file. Both
are recorded as lex errors rather than raised.

Partial lexing: `diff` lexes only the tokens each side reads, by one
rule: `_scan` started at a token boundary of a full lex, and stopped at
another, gives exactly that lex's tokens between the two. Outside comments
and strings, every `/` and every quote starts a token, since no other token
class holds one; so `scan_ranges` finds the comment and string ranges with
no tokens, by skipping everything else. The boundaries `diff` starts and
stops at are these: a line start outside every range, since only comments
and strings hold a newline; a comment or string's own start or end; an emit
keyword outside every range, which starts a token; a stop, a `;`, `{` or `}`
outside every range, which is a token of one character; and a closed emit's
end, which is a token's end."""

from __future__ import annotations

import re
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


# The half-open character-offset ranges of the comments and strings of a
# text, in source order; a range is a comment when its text starts with '/'.
Ranges = list[tuple[int, int]]


@dataclass(frozen=True)
class LexError:
    kind: str  # UnterminatedString | UnterminatedComment | UnexpectedCharacter
    span: Span


@dataclass
class LexResult:
    """Token i has kind kinds[i], text lexemes[i] and the half-open
    character-offset range [starts[i], starts[i] + len(lexemes[i])): the
    lexeme is the token's text, so its length gives the end."""
    kinds: list[TokenKind]
    lexemes: list[str]
    starts: list[int]
    errors: list[LexError]
    ranges: Ranges

    @property
    def tokens(self) -> list[Token]:
        """The columns as Token objects, built afresh on each read."""
        return [Token(kind, lexeme, start, start + len(lexeme))
                for kind, lexeme, start in zip(self.kinds, self.lexemes,
                                               self.starts)]


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
#
# The commonest tokens come first, and the order changes no match: the
# first character of a token names its class. Punctuation starts with one
# of `(){}[];,.?:`, a keyword or word with a letter, `_` or `$`, a comment
# with `/`, a string with a quote, a number with a digit, and an operator or
# bad character with none of these. Only keyword and word share a first
# character, and `/` starts both comments and operators; there the keyword
# and the comment classes come first.
(_PUNCT, _KEYWORD, _WORD, _COMMENT, _OPEN_COMMENT, _STRING, _OPEN_STRING,
 _NUMBER, _OPERATOR, _BAD) = range(1, 11)
# The comment and string classes, shared with _RANGE_RE.
_RANGES = (
    r"//[^\n]*|/\*(?s:.*?)\*/",
    r"/\*(?s:.*)",
    # A backslash escapes any next character, a newline included.
    r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*'",
    # Reached only when no closing quote matched, so it runs to the next
    # unescaped newline or to EOF, taking a trailing backslash with it.
    r"""["'][^\\\n]*(?:\\(?s:.)[^\\\n]*)*\\?""",
)
_TOKEN_RE = re.compile("[ \t\r\n]*(?:" + "|".join(f"({p})" for p in (
    r"[(){}\[\];,.?:]",
    # A keyword is a whole word: the lookahead rejects `uint256x`, `bytes33`.
    f"(?:{_first_letter_alternation(KEYWORDS)}|{_ELEMENTARY})"
    r"(?![A-Za-z0-9_$])",
    r"[A-Za-z_$][A-Za-z0-9_$]*",
    *_RANGES,
    # Solidity numbers are ASCII: `\d` would also take other scripts' digits.
    r"0[xX][0-9a-fA-F_]+|[0-9][0-9_]*(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?",
    "|".join(map(re.escape, _OPERATORS)),
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
    lexemes, starts and ranges of a LexResult; an error is appended to
    errors as its group and offsets. Equal lexemes of one scan are one
    string object."""
    kinds, lexemes, starts, ranges = columns
    token_kind = _TOKEN_KINDS.get
    shared = {}.setdefault
    for m in _TOKEN_RE.finditer(text, pos, endpos):
        group = m.lastindex
        kind = token_kind(group)
        if kind is not None:
            lexeme = m[group]
            a = m.start(group)
            kinds.append(kind)
            lexemes.append(shared(lexeme, lexeme))
            starts.append(a)
            if group == _STRING:
                ranges.append((a, a + len(lexeme)))
        elif group is not None:
            span = m.span(group)
            if group != _BAD:
                ranges.append(span)
            if group != _COMMENT:
                errors.append((group, *span))


# Text free of '/' and quotes, a comment or string class, or a '/' that
# starts no comment; only the classes hold a group.
_RANGE_RE = re.compile("[^/\"']+|" + "|".join(f"({p})" for p in _RANGES)
                       + "|/")


def scan_ranges(text: str) -> Ranges:
    """The ranges of lex on text, found without its tokens."""
    return [m.span() for m in _RANGE_RE.finditer(text)
            if m.lastindex is not None]


def lex(file: SourceFile) -> LexResult:
    columns: tuple[list, ...] = ([], [], [], [])
    errors: list[tuple[int, int, int]] = []
    _scan(file.text, 0, len(file.text), columns, errors)
    kinds, lexemes, starts, ranges = columns
    return LexResult(kinds, lexemes, starts,
                     [LexError(_ERROR_KINDS[group],
                               file.span_from_offsets(a, b))
                      for group, a, b in errors], ranges)
