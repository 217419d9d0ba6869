"""Shared test utilities: structural AST comparison, deterministic snippet
corpus, random straight-line function generation, revision builders, and the
independent oracles the analyses are checked against."""

from __future__ import annotations

import random
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Mapping

from emitlint.evolution import FilePair, LineDiff, Revision
from emitlint.lexer import (
    _NUMBER_RE, _OPERATORS, LexError, LexResult, Token, TokenKind,
    classify_word,
)
from emitlint.nodes import (
    Assignment, EmitStmt, Expr, ExprStmt, FunctionDef, Identifier, Literal,
    LiteralKind, LocalVarDecl, Stmt, walk_statements,
)
from emitlint.parser import parse_file
from emitlint.source import SourceFile, Span
from emitlint.symbols import (
    LocationClass, ScopeTree, Symbol, SymbolKind, _visible_in_scope,
    build_symbols,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(*parts: str) -> Path:
    return FIXTURES.joinpath(*parts)


def fixture_file(*parts: str) -> SourceFile:
    return SourceFile.load(fixture_path(*parts))


def src(text: str, path: str = "test.sol") -> SourceFile:
    return SourceFile.from_text(path, text)


def parsed(text: str, path: str = "test.sol"):
    """(file, unit, tree) for inline source text."""
    file = src(text, path)
    unit = parse_file(file)
    tree = build_symbols(unit)
    return file, unit, tree


def emits_of(fn) -> list[EmitStmt]:
    if fn.body is None:
        return []
    return [s for s in walk_statements(fn.body) if isinstance(s, EmitStmt)]


def structural_eq(a, b) -> bool:
    """Dataclass-tree equality ignoring span fields."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        for f in fields(a):
            if f.name == "span":
                continue
            if not structural_eq(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            structural_eq(x, y) for x, y in zip(a, b))
    return a == b


def make_revision(rev_id: str, *pairs, message: str | None = None) -> Revision:
    """pairs: (path, before_text_or_None, after_text_or_None)"""
    file_pairs = []
    for path, before, after in pairs:
        file_pairs.append(FilePair(
            path,
            src(before, path) if before is not None else None,
            src(after, path) if after is not None else None,
        ))
    return Revision(rev_id, message, tuple(file_pairs))


# ------------------------------------------------------------ snippet corpus

_ARG_CHOICES = (
    "",
    "a",
    "a, b",
    "msg.sender, a",
    "a + b, 1",
    "balances[a], b",
    '"tag", a',
    "a, true, 0x2A",
    "wrap(a), b",
)

_FILLERS = (
    "uint local = a;",
    "b = a + 1;",
    "require(a > 0);",
    "// bookkeeping note",
    "uint other = b * 2;",
    "",
)


def _emit_block(event: str, args: str, wrapper: int, indent: str) -> list[str]:
    stmt = f"emit {event}({args});"
    if wrapper == 0:
        return [indent + stmt]
    if wrapper == 1:
        return [indent + "if (a > b) {",
                indent + "    " + stmt,
                indent + "}"]
    if wrapper == 2:
        return [indent + "if (a > b) {",
                indent + "    " + stmt,
                indent + "} else {",
                indent + f"    emit {event}({args or '0'});",
                indent + "}"]
    if wrapper == 3:
        return [indent + "for (uint i = 0; i < a; i++) {",
                indent + "    " + stmt,
                indent + "}"]
    if wrapper == 4:
        return [indent + "while (a > 0) {",
                indent + "    " + stmt,
                indent + "    a = a - 1;",
                indent + "}"]
    return [indent + "{",
            indent + "    " + stmt,
            indent + "}"]


def make_snippet(index: int) -> str:
    """Deterministic small contract; the index steers the shapes used. Every
    snippet parses cleanly with emits outside comments and strings."""
    n_functions = 1 + index % 3
    lines = [
        "pragma solidity ^0.8.0;",
        "",
        f"contract Snippet{index} {{",
        "    mapping(address => uint) public balances;",
        "    uint public total;",
        "",
        "    event Moved(uint a, uint b);",
        "    event Noted(string tag, uint a);",
        "    event Checked(address who, uint a);",
        "    event Plain();",
        "",
    ]
    for fi in range(n_functions):
        args = _ARG_CHOICES[(index + 3 * fi) % len(_ARG_CHOICES)]
        wrapper = (index + fi) % 6
        event = ("Moved", "Noted", "Checked", "Plain")[(index + fi) % 4]
        if event == "Noted" and '"' not in args:
            args = '"step", ' + (args or "0")
        if event == "Plain":
            args = ""
        lines.append(f"    function f{fi}(address a, uint b) public {{")
        filler = _FILLERS[(index + fi) % len(_FILLERS)]
        if filler:
            lines.append("        " + filler)
        lines.extend(_emit_block(event, args, wrapper, "        "))
        if (index + fi) % 2 == 0:
            lines.append("        total = b;")
        lines.append("    }")
        lines.append("")
    lines.append("}")
    return "\n".join(lines) + "\n"


def snippet_corpus(count: int = 50) -> list[SourceFile]:
    return [src(make_snippet(i), f"snippet_{i:02}.sol") for i in range(count)]


# ------------------------------------------- straight-line function generator

def gen_straight_line_contract(rng: random.Random, index: int):
    """Random straight-line function over storage and memory variables with an
    emit probe after every statement. Returns (source_text, input_names)."""
    n_state = rng.randint(1, 2)
    n_params = rng.randint(1, 2)
    n_locals = rng.randint(0, min(2, 5 - n_state - n_params))
    state = [f"s{i}" for i in range(n_state)]
    params = [f"m{i}" for i in range(n_params)]
    local_pool = [f"v{i}" for i in range(n_locals)]
    literals = ["3", "7", "11", "0x2A"]

    declared = state + params
    body: list[str] = []
    n_stmts = rng.randint(2, 5)
    pending_locals = list(local_pool)
    for _ in range(n_stmts):
        if pending_locals and rng.random() < 0.4:
            name = pending_locals.pop(0)
            rhs = rng.choice(declared + literals)
            body.append(f"uint {name} = {rhs};")
            declared.append(name)
        else:
            target = rng.choice(declared)
            rhs = rng.choice(declared + literals)
            body.append(f"{target} = {rhs};")
        body.append(f"emit P({declared[0]});")

    lines = [f"contract Gen{index} {{"]
    for name in state:
        lines.append(f"    uint {name};")
    lines.append("    event P(uint v);")
    lines.append(f"    function f({', '.join('uint ' + p for p in params)}) public {{")
    for stmt in body:
        lines.append("        " + stmt)
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n", state + params


def distinct_inputs(names: list[str], salt: int) -> dict[str, int]:
    """Pairwise-distinct values, also distinct from the generator literals."""
    base = 1000 + 97 * salt
    return {name: base + 13 * i for i, name in enumerate(names)}


# --------------------------------------------------- shared revision fixtures

_CTX_HEADER = [
    "pragma solidity ^0.8.0;",
    "",
    "contract Shop {",
    "    uint public stock;",
    "    uint public price;",
    "",
    "    event Priced(uint value);",
    "    event Restocked(uint count, uint level);",
    "    event Sold(address to, uint amount);",
    "    event Opened();",
    "    event Closed();",
    "",
    "    function act(address to, uint amount, uint value) public {",
]
_CTX_FOOTER = ["    }", "}"]


def shop(body_lines) -> str:
    """Contract text with the given statement lines inside one function."""
    inner = ["        " + line if line else "" for line in body_lines]
    return "\n".join(_CTX_HEADER + inner + _CTX_FOOTER) + "\n"


def shop_revision(before_body, after_body, rev_id: str = "r") -> Revision:
    return make_revision(rev_id, ("shop.sol", shop(before_body),
                                  shop(after_body)))


# ------------------------------------------------------------------ oracles

def replay(diff: LineDiff) -> str:
    """The after text rebuilt from a diff's kept and added lines."""
    return "\n".join(op.text for op in diff.ops if op.kind in ("keep", "add"))


def in_scope_memory_symbols(at: Span, tree: ScopeTree) -> list[Symbol]:
    """Memory-class parameters and locals visible at the position: innermost
    scope first, declaration order within each scope, shadowed names omitted."""
    result: list[Symbol] = []
    seen: set[str] = set()
    scope = tree.innermost_scope_at(at.start_line, at.start_col)
    while scope is not None:
        for sym in scope.symbols:
            if sym.kind not in (SymbolKind.PARAM, SymbolKind.LOCAL_VAR):
                continue
            if sym.location_class != LocationClass.MEMORY:
                continue
            if not _visible_in_scope(sym, at):
                continue
            if sym.name in seen:
                continue
            seen.add(sym.name)
            result.append(sym)
        scope = tree.scopes[scope.parent_id] if scope.parent_id is not None else None
    return result


class UnsupportedConstruct(Exception):
    """The function body exceeds the straight-line fragment the concrete
    interpreter handles."""


def _eval(expr: Expr, store: dict[str, int]) -> int:
    if isinstance(expr, Identifier):
        if expr.name not in store:
            raise UnsupportedConstruct(f"unknown variable {expr.name!r}")
        return store[expr.name]
    if isinstance(expr, Literal) and expr.kind == LiteralKind.NUMBER:
        return int(expr.text.replace("_", ""), 0)
    raise UnsupportedConstruct("expression beyond identifiers and literals")


def _exec(stmt: Stmt, store: dict[str, int]) -> None:
    if isinstance(stmt, EmitStmt):
        return  # probes are no-ops
    if isinstance(stmt, LocalVarDecl):
        store[stmt.name] = _eval(stmt.init, store) if stmt.init is not None else 0
        return
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assignment):
        assign = stmt.expr
        if assign.op != "=" or not isinstance(assign.lhs, Identifier):
            raise UnsupportedConstruct("only plain assignments are supported")
        if assign.lhs.name not in store:
            raise UnsupportedConstruct(
                f"assignment to undeclared variable {assign.lhs.name!r}")
        store[assign.lhs.name] = _eval(assign.rhs, store)
        return
    raise UnsupportedConstruct(f"unsupported statement {type(stmt).__name__}")


def _equal_pairs(store: dict[str, int]) -> set[tuple[str, str]]:
    names = sorted(store)
    return {
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if store[a] == store[b]
    }


def brute_force_equalities(fn: FunctionDef,
                           inputs: Mapping[str, int]) -> list[set[tuple[str, str]]]:
    """Concretely interpret a straight-line body and report the exact
    variable equalities holding before each top-level statement; the final
    entry is the state after the last statement. Emit statements act as
    probes. Raises UnsupportedConstruct beyond assignments among declared
    variables and number literals.
    """
    if fn.body is None:
        raise UnsupportedConstruct("function has no body")
    store = dict(inputs)
    tables: list[set[tuple[str, str]]] = []
    for stmt in fn.body.stmts:
        tables.append(_equal_pairs(store))
        _exec(stmt, store)
    tables.append(_equal_pairs(store))
    return tables


# ------------------------------------------------------- reference lexer

_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_PUNCT = frozenset("(){}[];,.?:")


def reference_lex(file: SourceFile) -> LexResult:
    """The hand-written per-character lexer that `lexer.lex` replaced; the
    differential lexer test compares the two."""
    text = file.text
    n = len(text)
    tokens: list[Token] = []
    errors: list[LexError] = []
    comments: list[tuple[int, int]] = []
    strings: list[tuple[int, int]] = []

    def span(a: int, b: int) -> Span:
        return file.span_from_offsets(a, b)

    i = 0
    bad_start = -1

    def flush_bad(end: int) -> None:
        nonlocal bad_start
        if bad_start >= 0:
            errors.append(LexError("UnexpectedCharacter", span(bad_start, end)))
            bad_start = -1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            flush_bad(i)
            i += 1
            continue
        if text.startswith("//", i):
            flush_bad(i)
            j = text.find("\n", i)
            j = n if j == -1 else j
            comments.append((i, j))
            i = j
            continue
        if text.startswith("/*", i):
            flush_bad(i)
            j = text.find("*/", i + 2)
            if j == -1:
                errors.append(LexError("UnterminatedComment", span(i, n)))
                comments.append((i, n))
                i = n
            else:
                comments.append((i, j + 2))
                i = j + 2
            continue
        if ch in "'\"":
            flush_bad(i)
            j = i + 1
            closed = False
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    j += 2
                    continue
                if c == ch:
                    closed = True
                    j += 1
                    break
                if c == "\n":
                    break
                j += 1
            if closed:
                tokens.append(Token(TokenKind.STRING, text[i:j], span(i, j)))
                strings.append((i, j))
            else:
                errors.append(LexError("UnterminatedString", span(i, j)))
                strings.append((i, j))
            i = j
            continue
        m = _WORD_RE.match(text, i)
        if m:
            flush_bad(i)
            word = m.group(0)
            tokens.append(Token(classify_word(word), word, span(i, m.end())))
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            flush_bad(i)
            tokens.append(Token(TokenKind.NUMBER, m.group(0), span(i, m.end())))
            i = m.end()
            continue
        op = next((o for o in _OPERATORS if text.startswith(o, i)), None)
        if op:
            flush_bad(i)
            tokens.append(Token(TokenKind.OPERATOR, op, span(i, i + len(op))))
            i += len(op)
            continue
        if ch in _PUNCT:
            flush_bad(i)
            tokens.append(Token(TokenKind.PUNCT, ch, span(i, i + 1)))
            i += 1
            continue
        if bad_start < 0:
            bad_start = i
        i += 1
    flush_bad(n)
    return LexResult(tokens, errors, comments, strings)
