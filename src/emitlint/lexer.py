"""Tokenizer for the supported Solidity subset.

Comments and whitespace are consumed, never emitted as tokens. Their source
ranges are kept on the side so later passes can classify lines and decide
whether a textual match falls inside a comment or a string literal.

Recovery: an unterminated string abandons the current line and resumes at the
next one; an unterminated block comment swallows the rest of the file. Both
are recorded as lex errors rather than raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .source import SourceFile, Span


class TokenKind(Enum):
    KEYWORD = "Keyword"
    IDENTIFIER = "Identifier"
    NUMBER = "NumberLit"
    STRING = "StringLit"
    PUNCT = "Punct"
    OPERATOR = "Operator"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    span: Span


@dataclass(frozen=True)
class LexError:
    kind: str  # UnterminatedString | UnterminatedComment | UnexpectedCharacter
    span: Span


@dataclass
class LexResult:
    tokens: list[Token]
    errors: list[LexError]
    # Half-open character-offset ranges, in source order.
    comment_ranges: list[tuple[int, int]]
    string_ranges: list[tuple[int, int]]


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

_ELEMENTARY_RE = re.compile(
    r"^(u?int(\d+)?|bytes([1-9]|[12]\d|3[0-2])?|byte|bool|address|string"
    r"|u?fixed(\d+x\d+)?)$"
)

_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F_]+|\d[\d_]*(\.\d+)?([eE][+-]?\d+)?")

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

# One named alternative per token class. At each offset the first
# alternative that matches wins, and every character starts some match, so
# `finditer` walks the whole text with no gaps.
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in (
    ("space", r"[ \t\r\n]+"),
    ("comment", r"//[^\n]*|/\*(?s:.*?)\*/"),
    ("open_comment", r"/\*(?s:.*)"),
    # A backslash escapes any next character, a newline included.
    ("string", r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*"'
               r"|'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*'"),
    # Reached only when no closing quote matched, so it runs to the next
    # unescaped newline or to EOF, taking a trailing backslash with it.
    ("open_string", r"""["'][^\\\n]*(?:\\(?s:.)[^\\\n]*)*\\?"""),
    ("word", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    ("number", _NUMBER_RE.pattern),
    ("operator", "|".join(map(re.escape, _OPERATORS))),
    ("punct", r"[(){}\[\];,.?:]"),
    # Characters that start none of the classes above.
    ("bad", r"""[^ \t\r\n"'A-Za-z_$\d=+\-*/%!<>&|^~(){}\[\];,.?:]+"""),
)))

_TOKEN_KINDS = {
    "string": TokenKind.STRING, "number": TokenKind.NUMBER,
    "operator": TokenKind.OPERATOR, "punct": TokenKind.PUNCT,
}
_ERROR_KINDS = {
    "open_comment": "UnterminatedComment",
    "open_string": "UnterminatedString",
    "bad": "UnexpectedCharacter",
}


def is_elementary_type(word: str) -> bool:
    return bool(_ELEMENTARY_RE.match(word))


def classify_word(word: str) -> TokenKind:
    if word in KEYWORDS or is_elementary_type(word):
        return TokenKind.KEYWORD
    return TokenKind.IDENTIFIER


def lex(file: SourceFile) -> LexResult:
    tokens: list[Token] = []
    errors: list[LexError] = []
    comments: list[tuple[int, int]] = []
    strings: list[tuple[int, int]] = []
    span = file.span_from_offsets
    for m in _TOKEN_RE.finditer(file.text):
        group = m.lastgroup
        if group == "space":
            continue
        a, b = m.span()
        if group == "word":
            word = m.group()
            tokens.append(Token(classify_word(word), word, span(a, b)))
            continue
        if group in ("comment", "open_comment"):
            comments.append((a, b))
        elif group in ("string", "open_string"):
            strings.append((a, b))
        if group in _TOKEN_KINDS:
            tokens.append(Token(_TOKEN_KINDS[group], m.group(), span(a, b)))
        elif group in _ERROR_KINDS:
            errors.append(LexError(_ERROR_KINDS[group], span(a, b)))
    return LexResult(tokens, errors, comments, strings)


def tokenize(file: SourceFile) -> list[Token]:
    """Token stream with comments and whitespace dropped."""
    return lex(file).tokens
