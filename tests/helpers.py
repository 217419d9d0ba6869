"""Shared test utilities: structural AST comparison, deterministic snippet
corpus, random straight-line function generation, revision builders, and the
independent oracles the analyses are checked against."""

from __future__ import annotations

import functools
import importlib.util
import operator
import random
import re
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from collections import Counter
from typing import Callable, Mapping, NamedTuple

from emitlint.checks import (
    SLOAD_GAS, TRANSFER_LIKE_CALLEES, CheckConfig, CheckId, Diagnostic,
    Severity, Suggestion, _arg_key, _arg_names, _debug_forms, _sort_key,
    check_overuse,
)
from emitlint.dataflow import (
    EqualityFact, _apply_stmt, _kill_own_effects, has_call, kill_names,
    resolve_variable, writes,
)
from emitlint.evolution import DiffOp, FilePair, LineDiff, Revision
from emitlint.lexer import (
    _COMMENT, _ELEMENTARY, _ERROR_KINDS, _OPEN_COMMENT, _OPEN_STRING,
    _OPERATORS, _STRING, _TOKEN_KINDS, _TOKEN_RE, ASSIGN_OPS, KEYWORDS,
    LexError, LexResult, Token, TokenKind, lex,
)
from emitlint.metrics import FileAnalysis
from emitlint.nodes import (
    Assignment, Binary, Block, Call, Conditional, EmitStmt, Expr, ExprStmt,
    For, FunctionDef, Identifier, If, IndexAccess, Literal, LiteralKind,
    LocalVarDecl, MemberAccess, Node, SourceUnit, Stmt, Unary, While,
    iter_functions, root_identifier, walk_statements,
)
from emitlint.parser import (
    _BINARY_PREC, _CLOSERS, _HEX_ADDRESS_LEN, _MAX_CHAIN_DEPTH,
    _MAX_EXPR_DEPTH, _OPENERS, _UNARY_OPS, Parser, _Fail, parse_file,
)
from emitlint.scan import (
    _IDENT_RE, EMIT_PATTERN, RegexEmitMatch, extract_emits_regex,
)
from emitlint.source import SourceFile, Span
from emitlint.symbols import (
    BUILTINS, LocationClass, Scope, ScopeTree, Symbol, SymbolKind,
    build_symbols, resolve_at,
)

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_CORPUS = Path(__file__).parents[1] / "perfbench" / "corpus.py"


def fixture_path(*parts: str) -> Path:
    return FIXTURES.joinpath(*parts)


def fixture_file(*parts: str) -> SourceFile:
    return SourceFile.load(fixture_path(*parts))


def src(text: str, path: str = "test.sol") -> SourceFile:
    return SourceFile.from_text(path, text)


@functools.lru_cache(maxsize=None)
def _bench_corpus(workload: str, seed: int):
    """A perfbench workload's generated corpus (perfbench/corpus.py)."""
    spec = importlib.util.spec_from_file_location("_bench_corpus",
                                                  BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # dataclasses look their module up
    spec.loader.exec_module(corpus)
    return corpus.WORKLOADS[workload](seed)


def bench_tree(workload: str, seed: int) -> tuple[SourceFile, ...]:
    """The lint tree of a perfbench workload, as source files."""
    return tuple(src(s.text, s.path)
                 for s in _bench_corpus(workload, seed).files)


def write_bench_corpus(workload: str, seed: int,
                       root: Path) -> tuple[Path, Path]:
    """Write a perfbench workload's lint tree and revision manifest under
    root; their paths."""
    return _bench_corpus(workload, seed).write(root)


def bench_history_sides(workload: str, seed: int) -> list[SourceFile]:
    """Every before and after file of a perfbench workload's revisions."""
    return [src(side.text, side.path)
            for _, plans in _bench_corpus(workload, seed).revisions
            for plan in plans
            for side in (plan.before, plan.after) if side is not None]


def bench_revisions(workload: str, seed: int) -> list[Revision]:
    """The revisions of a perfbench workload's manifest."""
    return [make_revision(rev_id, *((plan.path,
                                     plan.before and plan.before.text,
                                     plan.after and plan.after.text)
                                    for plan in plans))
            for rev_id, plans in _bench_corpus(workload, seed).revisions]


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


def count_ast_emits(unit: SourceUnit) -> int:
    """The AST emit count, walked apart from `metrics`."""
    return sum(len(emits_of(fn)) for fn in iter_functions(unit))


def counted_emits(file: SourceFile) -> tuple[int, str]:
    """The file's emit count and counting method, as `metrics` reports
    them."""
    analysis = FileAnalysis.build(file)
    return analysis.emit_count, analysis.method


def span_text(file: SourceFile, span: Span) -> str:
    a = file.linecol_to_offset(span.start_line, span.start_col)
    b = file.linecol_to_offset(span.end_line, span.end_col)
    return file.text[a:b]


def line_text(file: SourceFile, line: int) -> str:
    """The line's text without its newline."""
    start = file.line_starts[line - 1]
    if line < len(file.line_starts):
        end = file.line_starts[line] - 1
    else:
        end = len(file.text)
    return file.text[start:end]


def contains_point(span: Span, line: int, col: int) -> bool:
    return span.start <= (line, col) < span.end


def span_contains(outer: Span, inner: Span) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def spans_in(obj, found: list[Span] | None = None) -> list[Span]:
    """Every Span in a tree of dataclasses, lists and tuples, each node's
    and regex match's `span` and each symbol's `decl_span` read once; source
    files are not entered."""
    found = [] if found is None else found
    if isinstance(obj, Span):
        found.append(obj)
    elif isinstance(obj, Symbol):
        found.append(obj.decl_span)
    elif isinstance(obj, (Node, RegexEmitMatch)):
        found.append(obj.span)
        for f in fields(obj):
            spans_in(getattr(obj, f.name), found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            spans_in(item, found)
    elif is_dataclass(obj) and not isinstance(obj, SourceFile):
        for f in fields(obj):
            spans_in(getattr(obj, f.name), found)
    return found


_LOCATION_FIELDS = frozenset({"span", "start", "end", "file"})


def nodes_in(obj) -> list[Node]:
    """Every node in a tree of nodes, lists and tuples, preorder."""
    if isinstance(obj, Node):
        return [obj] + [n for child in child_nodes(obj)
                        for n in nodes_in(child)]
    if isinstance(obj, (list, tuple)):
        return [n for item in obj for n in nodes_in(item)]
    return []


def child_nodes(node: Node) -> list[Node]:
    """The nodes that node's fields hold, directly or in a list."""
    children = []
    for f in fields(node):
        value = getattr(node, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, Node):
                children.append(item)
    return children


class SpanCounts:
    """Counts position conversions (`SourceFile.span_from_offsets`) and node
    span reads while the monkeypatch is in place."""

    def __init__(self, monkeypatch):
        self.conversions = self.reads = 0
        convert = SourceFile.span_from_offsets
        read = Node.span.fget

        def counted_convert(file, start, end):
            self.conversions += 1
            return convert(file, start, end)

        def counted_read(node):
            self.reads += 1
            return read(node)

        monkeypatch.setattr(SourceFile, "span_from_offsets", counted_convert)
        monkeypatch.setattr(Node, "span", property(counted_read))


def structural_eq(a, b) -> bool:
    """Dataclass-tree equality ignoring where the nodes are: spans, offsets
    and files."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        for f in fields(a):
            if f.name in _LOCATION_FIELDS:
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


# ------------------------------------------------------ robustness sweep

SWEEP_SEED = 20261018
SOUP_INPUTS = 600
MUTATED_INPUTS = 1340

_SOUP = (
    "pragma", "solidity", "^0.8.0", "import", '"./a.sol"', "contract", "C",
    "interface", "library", "abstract", "is", "{", "}", "(", ")", "[", "]",
    ";", ",", ".", "?", ":", "=", "+=", "++", "==", "=>", "&&", "-", "*",
    "function", "f", "public", "view", "returns", "modifier", "event", "E",
    "indexed", "emit", "uint", "address", "mapping", "memory", "storage",
    "if", "else", "for", "while", "return", "try", "catch", "assembly",
    "unchecked", "new", "x", "y", "msg.sender", "0", "42", "0x1", "'s'",
    "\"t\"", "// note\n", "/* block */", "\n", "emit E(x);", "uint x = y;",
)
_FRAGMENTS = ("{", "}", "(", ")", "[", "]", ";", "emit E(a[1], b);",
              "uint[2][] v;", "mapping(uint => uint[]) m;",
              "try c.f() returns (uint v) { emit A(v); } catch { emit B(); }",
              "pragma solidity ^0.8.0", "import \"./x.sol\"", "/*", "\"",
              "// c", "contract", "function g() public {", "x = y;")


def _soup(rng: random.Random) -> str:
    return " ".join(rng.choice(_SOUP) for _ in range(rng.randint(1, 60)))


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        pos = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:pos] + " " + rng.choice(_FRAGMENTS) + " " + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + rng.randint(1, 12):]
        elif op == 2 and ";" in text:
            # Drop one ';' (a directive's among them).
            cut = rng.choice([i for i, ch in enumerate(text) if ch == ";"])
            text = text[:cut] + text[cut + 1:]
        else:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1),
                         lines[rng.randrange(len(lines))])
            text = "\n".join(lines)
    return text


# The fixture directories, relative to FIXTURES, whose files the robustness
# sweep mutates: those that held fixtures when its draws were set. Files in
# any other directory are swept as they are, so a new fixture directory
# shifts no seeded draw.
SWEEP_MUTATED_DIRS = (
    ".", "gas", "lint_rules", "lint_tree", "robust", "manifests/basic",
    "manifests/extent", "manifests/relex", "manifests/rewrite",
)


def sweep_inputs() -> list[str]:
    """The robustness sweep's seeded inputs: every fixture and snippet, token
    soup, and mutated fixtures and snippets. Only the fixtures under
    SWEEP_MUTATED_DIRS are mutated."""
    rng = random.Random(SWEEP_SEED)
    paths = sorted(FIXTURES.rglob("*.sol"))
    mutated = {p: p.parent.relative_to(FIXTURES).as_posix()
               in SWEEP_MUTATED_DIRS for p in paths}
    bases = [p.read_text(encoding="utf-8") for p in paths if mutated[p]]
    bases += [f.text for f in snippet_corpus()]
    texts = list(bases)
    texts += [p.read_text(encoding="utf-8") for p in paths
              if not mutated[p]]
    texts += [_soup(rng) for _ in range(SOUP_INPUTS)]
    texts += [_mutate(rng, rng.choice(bases)) for _ in range(MUTATED_INPUTS)]
    return texts


# Front-end edge cases: an empty file, a BOM, whitespace at EOF,
# unterminated comments and strings, strings continued by an escaped
# newline, each of `/`, `//` and `/*`, code right after a comment, and
# words at the edge of the keyword rule (`$`, digits after a type name, a
# type's width out of range, a fixed-point type, a non-ASCII digit).
FRONT_END_EDGE_CASES = (
    "", "\ufeff", "\ufeffcontract C {}\n", "uint a;   \n\t \r\n  ",
    "emit E(1); /* open", "/* open\n\n emit E(1);\n", "x = 'open;\ny;",
    'x = "open\\', 'x = "a\\\nb";\ny = "c\\\r\nd";',
    "a / b; // c\n/* d */ e /= f;/", "//", "/*", "/", "*/",
    "/* a */b\n/* c */\n/**/ //d\n  /* e */ /**/f\n/* g\n h */i",
    "$x = $; x$ = 1;", "uint256x a; uint256 b; uint8$ c;",
    "bytes33 a; bytes32 b; bytes0 c; bytes d; byte e;",
    "ufixed128x18 a; fixed8x1 b; fixed128x c; ufixed d;",
    "int\u0663 a; uint\u0663 b;", "\u00a0uint\u2028a;\f\n",
)


def front_end_inputs() -> list[SourceFile]:
    """The robustness sweep, the edge cases, and the perfbench corpora of
    seeds 1-5 (lint trees and history sides)."""
    files = [src(text) for text in sweep_inputs()]
    files += [src(text, "edge.sol") for text in FRONT_END_EDGE_CASES]
    for workload in ("project", "monolith"):
        for seed in range(1, 6):
            files += bench_tree(workload, seed)
            files += bench_history_sides(workload, seed)
    return files


# Characters that `\s` and str.isspace take as whitespace, and the lexer
# does not.
_UNICODE_SPACES = ("\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
                   "\u3000")
_EMIT_SPLICES = (
    *_UNICODE_SPACES, *(f"{ws}emit{ws}E{ws}(x)" for ws in _UNICODE_SPACES),
    " ", "\n", "(", ")", ";", "{", "}", '"', "'", "//", "/*", "*/", "\\", "@",
    "emit", "emitemit", " emitemit F(y)", " emit ", " emit F(", " emit F x",
    " emit F;", ")emit F(1)", ") emit F(1)", "emit F(1)emit G(2)",
)


@functools.lru_cache(maxsize=None)
def emit_splice_inputs() -> tuple[SourceFile, ...]:
    """20,000 seeded pieces of fixture text around an emit, each with one
    to four splices: Unicode whitespace, `emitemit`, emits nested in
    another's arguments, a name with no `(`, a `)` that the next `emit`
    follows, parentheses, stops, quotes and comment marks. One piece in ten
    starts with `emit`, one has no `)` at all, and one has a `)` only
    before its last `emit`."""
    rng = random.Random(30)
    pieces = [text[max(0, m.start() - 80):m.start() + 160]
              for path in sorted(FIXTURES.rglob("*.sol"))
              for text in [path.read_text(encoding="utf-8")]
              for m in re.finditer(r"\bemit\b", text)]
    files = []
    for _ in range(20_000):
        text = rng.choice(pieces)
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_EMIT_SPLICES) + \
                text[at + rng.choice((0, 0, 1)):]
        shape = rng.randrange(10)
        if shape == 0:
            text = "emit " + text
        elif shape == 1:
            text = text.replace(")", "")
        elif shape == 2:
            last = text.rfind("emit")
            text = text[:last] + text[last:].replace(")", "")
        files.append(src(text))
    return tuple(files)


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


def gen_branching_contract(rng: random.Random, index: int):
    """Random loop-free function like gen_straight_line_contract's, whose
    statements may also be `if`/`else` nested up to two deep. A condition
    compares a variable with a variable or a literal, and sometimes assigns
    inside the comparison. Every branch opens with an emit probe and every
    statement is followed by one. Returns (source_text, input_names)."""
    state = [f"s{i}" for i in range(rng.randint(1, 2))]
    params = [f"m{i}" for i in range(rng.randint(1, 2))]
    literals = ["3", "7", "11", "0x2A"]
    probe = f"emit P({state[0]});"
    n_locals = 0

    def block(declared: list[str], depth: int, indent: str) -> list[str]:
        nonlocal n_locals
        declared = list(declared)
        lines = [indent + probe] if depth else []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if depth < 2 and roll < 0.35:
                lhs, rhs = rng.choice(declared), rng.choice(declared + literals)
                if rng.random() < 0.3:
                    lhs = f"({lhs} = {rng.choice(declared + literals)})"
                op = rng.choice(("==", "!=", "<", ">="))
                lines.append(f"{indent}if ({lhs} {op} {rhs}) {{")
                lines += block(declared, depth + 1, indent + "    ")
                if rng.random() < 0.6:
                    lines.append(f"{indent}}} else {{")
                    lines += block(declared, depth + 1, indent + "    ")
                lines.append(f"{indent}}}")
            elif roll < 0.5:
                name = f"v{n_locals}"
                n_locals += 1
                lines.append(f"{indent}uint {name} = "
                             f"{rng.choice(declared + literals)};")
                declared.append(name)
            else:
                lines.append(f"{indent}{rng.choice(declared)} = "
                             f"{rng.choice(declared + literals)};")
            lines.append(indent + probe)
        return lines

    lines = [f"contract Gen{index} {{"]
    lines += [f"    uint {name};" for name in state]
    lines.append("    event P(uint v);")
    lines.append(f"    function f({', '.join('uint ' + p for p in params)}) "
                 "public {")
    lines += block(state + params, 0, "        ")
    lines += ["    }", "}"]
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

_NEG = -(10 ** 9)


def reference_myers(a: list[str], b: list[str]) -> list[DiffOp]:
    """The greedy forward Myers diff, kept as the oracle for the
    integer-coded one in evolution.py: each pass copies the whole frontier
    dict into the trace."""
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


def replay(diff: LineDiff) -> str:
    """The after text rebuilt from a diff's kept and added lines."""
    return "\n".join(op.text for op in diff.ops if op.kind in ("keep", "add"))


def in_scope_memory_symbols(at: int, tree: ScopeTree) -> list[Symbol]:
    """Memory-class parameters and locals visible at the offset: innermost
    scope first, declaration order within each scope, shadowed names omitted."""
    result: list[Symbol] = []
    seen: set[str] = set()
    scope = tree.scope_at(at)
    while scope is not None:
        for sym in scope.symbols:
            if sym.kind not in (SymbolKind.PARAM, SymbolKind.LOCAL_VAR):
                continue
            if sym.location_class != LocationClass.MEMORY:
                continue
            if sym.kind == SymbolKind.LOCAL_VAR and sym.decl_start > at:
                continue
            if sym.name in seen:
                continue
            seen.add(sym.name)
            result.append(sym)
        scope = tree.scopes[scope.parent_id] if scope.parent_id is not None else None
    return result


def reference_scope_at(tree: ScopeTree, line: int, col: int) -> Scope:
    """The linear scan over every scope's line and column span that the tree
    descent `ScopeTree.scope_at` replaced; the differential scope test
    compares the two."""
    best = tree.scopes[0]
    for scope in tree.scopes:
        if contains_point(scope.span, line, col) and \
                scope.depth >= best.depth:
            best = scope
    return best


def reference_resolve_at(name: str, offset: int,
                         tree: ScopeTree) -> Symbol | None:
    """The scan over each enclosing scope's whole symbol list that the
    by-name index `Scope.named` replaced in `symbols.resolve_at`; the
    differential resolution test compares the two."""
    scope = tree.scope_at(offset)
    while scope is not None:
        for sym in scope.symbols:
            if sym.name == name and (sym.kind != SymbolKind.LOCAL_VAR
                                     or sym.decl_start <= offset):
                return sym
        scope = tree.scopes[scope.parent_id] \
            if scope.parent_id is not None else None
    return BUILTINS.get(name)


class UnsupportedConstruct(Exception):
    """The function body exceeds the loop-free, call-free fragment the
    concrete interpreter handles."""


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _eval(expr: Expr, store: dict[str, int]) -> int:
    if isinstance(expr, Identifier):
        if expr.name not in store:
            raise UnsupportedConstruct(f"unknown variable {expr.name!r}")
        return store[expr.name]
    if isinstance(expr, Literal) and expr.kind == LiteralKind.NUMBER:
        return int(expr.text.replace("_", ""), 0)
    if isinstance(expr, Assignment):
        if expr.op != "=" or not isinstance(expr.lhs, Identifier):
            raise UnsupportedConstruct("only plain assignments are supported")
        if expr.lhs.name not in store:
            raise UnsupportedConstruct(
                f"assignment to undeclared variable {expr.lhs.name!r}")
        store[expr.lhs.name] = _eval(expr.rhs, store)
        return store[expr.lhs.name]
    if isinstance(expr, Binary) and expr.op in _COMPARE:
        # Left operand first, as the generated conditions assume.
        left = _eval(expr.lhs, store)
        return int(_COMPARE[expr.op](left, _eval(expr.rhs, store)))
    raise UnsupportedConstruct("expression beyond identifiers, literals, "
                               "assignments and comparisons")


def _exec(stmt: Stmt, store: dict[str, int],
          probes: dict[int, set[tuple[str, str]]]) -> None:
    """Execute stmt on store; each emit reached records the equalities
    holding just before it in probes, by the emit's id()."""
    if isinstance(stmt, EmitStmt):
        probes[id(stmt)] = _equal_pairs(store)
        return
    if isinstance(stmt, LocalVarDecl):
        store[stmt.name] = _eval(stmt.init, store) if stmt.init is not None else 0
        return
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assignment):
        _eval(stmt.expr, store)
        return
    if isinstance(stmt, If):
        branch = stmt.then if _eval(stmt.cond, store) else stmt.otherwise
        if branch is not None:
            _exec(branch, store, probes)
        return
    if isinstance(stmt, Block):
        # Locals declared in the block go out of scope at its end.
        outer = set(store)
        for inner in stmt.stmts:
            _exec(inner, store, probes)
        for name in set(store) - outer:
            del store[name]
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


def _interpret(fn: FunctionDef, inputs: Mapping[str, int]):
    if fn.body is None:
        raise UnsupportedConstruct("function has no body")
    store = dict(inputs)
    tables: list[set[tuple[str, str]]] = []
    probes: dict[int, set[tuple[str, str]]] = {}
    for stmt in fn.body.stmts:
        tables.append(_equal_pairs(store))
        _exec(stmt, store, probes)
    tables.append(_equal_pairs(store))
    return tables, probes


def brute_force_equalities(fn: FunctionDef,
                           inputs: Mapping[str, int]) -> list[set[tuple[str, str]]]:
    """Concretely interpret a loop-free body and report the exact variable
    equalities holding before each top-level statement; the final entry is
    the state after the last statement. `if`/`else` runs the branch its
    condition selects. Raises UnsupportedConstruct beyond assignments among
    declared variables and number literals, comparisons, blocks and emits.
    """
    return _interpret(fn, inputs)[0]


def reached_equalities(fn: FunctionDef, inputs: Mapping[str, int]
                       ) -> dict[int, set[tuple[str, str]]]:
    """The equalities holding just before each emit the run reaches, keyed
    by the emit's id(); emits in branches not taken are absent."""
    return _interpret(fn, inputs)[1]


# -------------------------------------------------- reference kill scan

def reference_kill_sets(chunk: str) -> tuple[set[str], set[str]]:
    """The kill scan `evolution` ran before it read a side's own tokens:
    each run of changed lines is joined into a chunk and lexed on its own,
    with no surrounding context. The tokens of the chunk's own emits outside
    comments and strings, each from its match through the ')' closing its
    arguments, are left out: an emit's arguments kill nothing."""
    assigned: set[str] = set()
    passed: set[str] = set()
    file = SourceFile.from_text("<chunk>", chunk)
    lexed = lex(file)
    tokens = lexed.tokens
    dropped: set[int] = set()
    for m in extract_emits_regex(file, lexed.ranges):
        if m.in_comment_or_string:
            continue
        a, b = m.start, m.end
        depth = 0
        for idx, tok in enumerate(tokens):
            if tok.start < a:
                continue
            punct = tok.lexeme if tok.kind == TokenKind.PUNCT else ""
            if tok.start >= b and (depth <= 0 or punct in (";", "{", "}")):
                break
            depth += (punct == "(") - (punct == ")")
            dropped.add(idx)
    toks = [tok for idx, tok in enumerate(tokens) if idx not in dropped]
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


def reference_scan_kill_sets(lexemes: list[str], kinds: list[TokenKind]
                             ) -> tuple[set[str], set[str]]:
    """`evolution._scan_kill_sets` as it was before it took one pass per
    set: each assignment operator walks back to the nearest ';', ',', brace
    or parenthesis, and each call walks on to the ')' that closes it."""
    assigned: set[str] = set()
    passed: set[str] = set()
    identifier = TokenKind.IDENTIFIER
    n = len(lexemes)
    for idx, lexeme in enumerate(lexemes):
        if lexeme in ASSIGN_OPS:
            j = idx - 1
            while j >= 0 and lexemes[j] not in (";", ",", "{", "}", "(", ")"):
                if kinds[j] is identifier:
                    assigned.add(lexemes[j])
                j -= 1
        elif lexeme in ("++", "--"):
            for j in (idx - 1, idx + 1):
                if 0 <= j < n and kinds[j] is identifier:
                    assigned.add(lexemes[j])
        elif kinds[idx] is identifier and idx + 1 < n and \
                lexemes[idx + 1] == "(":
            depth = 0
            for j in range(idx + 1, n):
                if lexemes[j] == "(":
                    depth += 1
                elif lexemes[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif kinds[j] is identifier:
                    passed.add(lexemes[j])
    return assigned, passed


# ------------------------------------------------------- reference lexer

_ELEMENTARY_RE = re.compile(f"(?:{_ELEMENTARY})\\Z")


def is_elementary_type(word: str) -> bool:
    """The elementary type names as a regex test on the word; the parser
    reads the token kind instead."""
    return bool(_ELEMENTARY_RE.match(word))


def classify_word(word: str) -> TokenKind:
    """The keyword rule as a function: a word is a keyword exactly when it
    is in KEYWORDS or an elementary type. `lex` decides it in its regex."""
    if word in KEYWORDS or is_elementary_type(word):
        return TokenKind.KEYWORD
    return TokenKind.IDENTIFIER


def reference_line_starts(text: str) -> list[int]:
    """The per-character loop `SourceFile.from_text` used to build its line
    index with; text is taken after the BOM is stripped."""
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
# Its own copy of the number pattern, so the differential test also checks
# the lexer's: ASCII digits only.
_NUMBER_RE = re.compile(
    r"0[xX][0-9a-fA-F_]+|[0-9][0-9_]*(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_PUNCT = frozenset("(){}[];,.?:")


class SpanToken(NamedTuple):
    """A token as the reference lexer builds it, with a span where `lex`
    keeps offsets; `with_token_spans` converts `lex`'s result to this."""
    kind: TokenKind
    lexeme: str
    span: Span


class TokenLexResult(NamedTuple):
    """A lex result with one object per token, as the reference lexers
    build it; `lex` keeps token columns instead. The reference lexers
    collect the comment and the string ranges apart; `ranges` merges them
    in source order, as `lex` keeps them."""
    tokens: list
    errors: list[LexError]
    ranges: list[tuple[int, int]]


def with_token_spans(file: SourceFile, result: LexResult) -> TokenLexResult:
    """result with each token's offsets converted to a SpanToken."""
    tokens = [SpanToken(kind, lexeme,
                        file.span_from_offsets(start, start + len(lexeme)))
              for kind, lexeme, start in zip(
                  result.kinds, result.lexemes, result.starts)]
    return TokenLexResult(tokens, result.errors, result.ranges)


def columns_of(result: TokenLexResult) -> LexResult:
    """result, whose tokens are Token objects, with its tokens as the
    columns `lex` returns."""
    tokens = result.tokens
    return LexResult([tok.kind for tok in tokens],
                     [tok.lexeme for tok in tokens],
                     [tok.start for tok in tokens], result.errors,
                     result.ranges)


def reference_token_lex(file: SourceFile) -> TokenLexResult:
    """`lex` as it was before it kept token columns: the same regex walk,
    one Token built per token."""
    tokens: list[Token] = []
    errors: list[LexError] = []
    comments: list[tuple[int, int]] = []
    strings: list[tuple[int, int]] = []
    token_kind = _TOKEN_KINDS.get
    for m in _TOKEN_RE.finditer(file.text):
        group = m.lastindex
        kind = token_kind(group)
        if kind is not None:
            a, b = m.span(group)
            tokens.append(Token(kind, m[group], a, b))
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
            errors.append(LexError(_ERROR_KINDS[group],
                                   file.span_from_offsets(a, b)))
    return TokenLexResult(tokens, errors, sorted(comments + strings))


def reference_lex(file: SourceFile) -> TokenLexResult:
    """The hand-written per-character lexer that `lexer.lex` replaced; the
    differential lexer test compares the two."""
    text = file.text
    n = len(text)
    tokens: list[SpanToken] = []
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
                tokens.append(SpanToken(TokenKind.STRING, text[i:j],
                                        span(i, j)))
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
            tokens.append(SpanToken(classify_word(word), word,
                                    span(i, m.end())))
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            flush_bad(i)
            tokens.append(SpanToken(TokenKind.NUMBER, m.group(0),
                                    span(i, m.end())))
            i = m.end()
            continue
        op = next((o for o in _OPERATORS if text.startswith(o, i)), None)
        if op:
            flush_bad(i)
            tokens.append(SpanToken(TokenKind.OPERATOR, op,
                                    span(i, i + len(op))))
            i += len(op)
            continue
        if ch in _PUNCT:
            flush_bad(i)
            tokens.append(SpanToken(TokenKind.PUNCT, ch, span(i, i + 1)))
            i += 1
            continue
        if bad_start < 0:
            bad_start = i
        i += 1
    flush_bad(n)
    return TokenLexResult(tokens, errors, sorted(comments + strings))


# The lexer before it folded whitespace into each token's match and decided
# keywords in its regex: one named alternative per class, and
# `classify_word` per word.
_GROUP_TOKEN_RE = re.compile("|".join(
    f"(?P<{name}>{pattern})" for name, pattern in (
        ("space", r"[ \t\r\n]+"),
        ("comment", r"//[^\n]*|/\*(?s:.*?)\*/"),
        ("open_comment", r"/\*(?s:.*)"),
        ("string", r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*"'
                   r"|'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*'"),
        ("open_string", r"""["'][^\\\n]*(?:\\(?s:.)[^\\\n]*)*\\?"""),
        ("word", _WORD_RE.pattern),
        ("number", _NUMBER_RE.pattern),
        ("operator", "|".join(map(re.escape, _OPERATORS))),
        ("punct", r"[(){}\[\];,.?:]"),
        ("bad", r"""[^ \t\r\n"'A-Za-z_$0-9=+\-*/%!<>&|^~(){}\[\];,.?:]+"""),
    )))
_GROUP_TOKEN_KINDS = {
    "string": TokenKind.STRING, "number": TokenKind.NUMBER,
    "operator": TokenKind.OPERATOR, "punct": TokenKind.PUNCT,
}
_GROUP_ERROR_KINDS = {
    "open_comment": "UnterminatedComment",
    "open_string": "UnterminatedString",
    "bad": "UnexpectedCharacter",
}


def reference_group_lex(file: SourceFile) -> LexResult:
    """The one-alternative-per-class lexer that `lexer.lex` replaced; the
    front-end differential tests compare the two."""
    tokens: list[Token] = []
    errors: list[LexError] = []
    comments: list[tuple[int, int]] = []
    strings: list[tuple[int, int]] = []
    for m in _GROUP_TOKEN_RE.finditer(file.text):
        group = m.lastgroup
        if group == "space":
            continue
        a, b = m.span()
        if group == "word":
            word = m.group()
            tokens.append(Token(classify_word(word), word, a, b))
            continue
        if group in ("comment", "open_comment"):
            comments.append((a, b))
        elif group in ("string", "open_string"):
            strings.append((a, b))
        if group in _GROUP_TOKEN_KINDS:
            tokens.append(Token(_GROUP_TOKEN_KINDS[group], m.group(), a, b))
        elif group in _GROUP_ERROR_KINDS:
            errors.append(LexError(_GROUP_ERROR_KINDS[group],
                                   file.span_from_offsets(a, b)))
    return columns_of(TokenLexResult(tokens, errors,
                                     sorted(comments + strings)))


LINE_CODE = "code"
LINE_COMMENT = "comment"
LINE_BLANK = "blank"


def reference_classify_lines(file: SourceFile,
                             ranges: list[tuple[int, int]]) -> list[str]:
    """The kind of every line, index 0 = line 1, from a per-character
    classifier: it steps through every character of each line, comments
    included. It reads the comment ranges of ranges only."""
    ranges = [(a, b) for a, b in ranges if file.text[a] == "/"]
    kinds: list[str] = []
    ci = 0
    for line in range(1, file.line_count + 1):
        start = file.line_starts[line - 1]
        if line < len(file.line_starts):
            end = file.line_starts[line] - 1
        else:
            end = len(file.text)
        kind = LINE_BLANK
        for off in range(start, end):
            if file.text[off] in " \t\r":
                continue
            while ci < len(ranges) and ranges[ci][1] <= off:
                ci += 1
            if ci < len(ranges) and ranges[ci][0] <= off < ranges[ci][1]:
                kind = LINE_COMMENT
                continue
            kind = LINE_CODE
            break
        kinds.append(kind)
    return kinds


def reference_extract_emits_regex(file: SourceFile,
                                  ranges: list[tuple[int, int]]
                                  ) -> list[RegexEmitMatch]:
    """The emit matcher as it was before it bisected: each match's flag
    tests every comment and string range in turn. Each search starts at
    the previous match's `)`."""
    padded = "\n" + file.text
    matches: list[RegexEmitMatch] = []
    pos = 0
    while m := EMIT_PATTERN.search(padded, pos):
        pos = m.end(2)
        name = m.group(1)
        if not _IDENT_RE.match(name):
            continue
        whole = m.group(0)
        emit_off = m.start() + len(whole) - len(whole.lstrip()) - 1
        flagged = any(a <= emit_off < b for a, b in ranges)
        matches.append(RegexEmitMatch(name, m.group(2), emit_off, m.end(2),
                                      flagged, file))
    return matches


def reference_close(m: RegexEmitMatch, lexed: LexResult) -> RegexEmitMatch:
    """`evolution._close` as it was when each side was lexed over windows
    that held every emit's extent: the match m, outside comments and
    strings, closed by a walk over lexed, the file's full columns, from the
    first token past the match to the ')' that closes its arguments, but
    not past a ';', '{' or '}' token."""
    starts, lexemes = lexed.starts, lexed.lexemes
    lo = bisect_left(starts, m.start)
    hi = bisect_left(starts, m.end, lo)
    if "(" not in m.raw_args and starts[hi - 1] == m.end - 1:
        return m
    inside = lexemes[lo:hi]
    depth = inside.count("(") - inside.count(")")
    while depth > 0 and hi < len(lexemes):
        lexeme = lexemes[hi]
        if lexeme in (";", "{", "}"):
            break
        depth += (lexeme == "(") - (lexeme == ")")
        hi += 1
    end = starts[hi - 1] + len(lexemes[hi - 1])
    args = m.end - 1 - len(m.raw_args)  # just past the '('
    raw_args = m.file.text[args:starts[hi - 1] if depth == 0 else end]
    return replace(m, raw_args=raw_args, end=end)


def reference_token_cut(file: SourceFile, windows: list[list[int]],
                        closed: list[RegexEmitMatch]) -> tuple[list, ...]:
    """The kinds, lexemes and starts columns that `SideAnalysis.build`
    kept before it lexed only the gaps between its closed matches: the
    tokens of a full lex that start in the windows, less those that start
    inside a closed match, cut by bisecting each match's offsets."""
    lexed = lex(file)
    full = (lexed.kinds, lexed.lexemes, lexed.starts)
    columns: tuple[list, ...] = ([], [], [])
    for a, b in windows:
        lo = bisect_left(lexed.starts, a)
        hi = bisect_left(lexed.starts, b, lo)
        for column, whole in zip(columns, full):
            column += whole[lo:hi]
    starts = columns[2]
    kept: tuple[list, ...] = ([], [], [])
    prev = 0
    for m in closed:
        lo = bisect_left(starts, m.start)
        for column, kept_column in zip(columns, kept):
            kept_column += column[prev:lo]
        prev = max(prev, bisect_left(starts, m.end, lo))
    for column, kept_column in zip(columns, kept):
        kept_column += column[prev:]
    return kept


class ReferenceSkipParser(Parser):
    """The parser with the five recovery loops that `Parser._skip_to`
    replaced, each tracking bracket depth its own way, and a loop of the
    same kind for `Parser._skip_damage`; the recovery differential test
    compares the two."""

    def _skip_to(self, stops, openers=_OPENERS, closers=_CLOSERS) -> None:
        raise AssertionError("the reference parser has its own loops")

    def _skip_group(self, open_: str, close: str) -> bool:
        if not self._is(open_):
            return False
        depth = 0
        while not self._at_end():
            lexeme = self._advance()
            if lexeme == open_:
                depth += 1
            elif lexeme == close:
                depth -= 1
                if depth == 0:
                    return True
        return False

    def _skip_to_semicolon(self) -> None:
        depth = 0
        while not self._at_end():
            lexeme = self._peek()
            if lexeme in _OPENERS:
                depth += 1
            elif lexeme in _CLOSERS:
                if depth == 0 and lexeme == "}":
                    return
                if depth > 0:
                    depth -= 1
            elif lexeme == ";" and depth == 0:
                self._advance()
                return
            self._advance()

    def _skip_top_level(self) -> None:
        depth = 0
        progressed = False
        while not self._at_end():
            if depth == 0 and progressed and self._is(
                    "pragma", "import", "contract", "interface", "library",
                    "abstract"):
                return
            lexeme = self._advance()
            if lexeme == "{":
                depth += 1
            elif lexeme == "}":
                depth = max(0, depth - 1)
            progressed = True

    def _skip_param(self) -> None:
        depth = 0
        while not self._at_end():
            lexeme = self._peek()
            if lexeme == "(":
                depth += 1
            elif lexeme == ")":
                if depth == 0:
                    return
                depth -= 1
            elif lexeme == "," and depth == 0:
                return
            self._advance()

    def _param_list(self, what: str, where: str,
                    param: Callable[[int, str], Node]) -> list:
        params = []
        while not self._is(")") and not self._at_end():
            start = self.i
            try:
                type_name = self._parse_type_name()
            except _Fail:
                self._record(f"unsupported {what} type", "warning")
                self._skip_param()
            else:
                params.append(param(start, type_name))
            if not self._eat(","):
                break
        if self._eat(")") is None:
            self._record(f"expected ')' in {where}")
        return params

    def _skip_try(self) -> None:
        while True:
            while not self._at_end() and not self._is("{"):
                self._advance()
            self._skip_group("{", "}")
            if not self._is("catch"):
                return

    def _skip_damage(self) -> None:
        if not self._is("{"):
            self._skip_to_semicolon()
            return
        self._advance()
        depth = 0
        while not self._at_end():
            lexeme = self._advance()
            if lexeme in _OPENERS:
                depth += 1
            elif lexeme in _CLOSERS:
                if depth == 0:
                    return
                depth -= 1

    def _skip_call_arg(self) -> str:
        start = self.i
        depth = 0
        while not self._at_end():
            lexeme = self._peek()
            if lexeme in _OPENERS:
                depth += 1
            elif lexeme in _CLOSERS:
                if depth == 0:
                    break
                depth -= 1
            elif lexeme in (",", ";") and depth == 0:
                break
            self._advance()
        return self._raw_text(start) if self.i > start else ""


class ReferenceExprParser(Parser):
    """The parser's expression path before its fast paths and its one
    precedence loop: five methods, one per level (assignment, conditional,
    binary, prefix, postfix), every operand through `_parse_postfix` and
    `_parse_primary`, each chain link through a context manager, every
    statement that starts with an identifier through a type-name parse and
    a backtrack, and elementary type names through a regex. The expression
    differential test compares the two."""

    def _at(self, start_idx: int) -> tuple[int, int, SourceFile]:
        return (*self._offsets_from(start_idx), self.file)

    def _parse_block(self) -> Block:
        start = self.i
        self._advance()  # '{'
        stmts: list[Stmt] = []
        while not self._at_end() and not self._is("}"):
            stmts.append(self._parse_stmt())
        if self._eat("}") is None:
            self._record("expected '}' to close block")
        return Block(*self._at(start), stmts)

    def _parse_type_name(self) -> str:
        word = self._peek()
        if word == "mapping":
            self._advance()
            self._expect("(")
            with self._chain_link():
                key = self._parse_type_name()
            self._expect("=>")
            with self._chain_link():
                value = self._parse_type_name()
            self._expect(")")
            base = f"mapping({key} => {value})"
        elif is_elementary_type(word):
            self._advance()
            base = word
            if base == "address" and self._eat("payable"):
                base = "address payable"
        elif (base := self._dotted_name()) is None:
            raise _Fail()
        while self._is("["):
            start = self.i
            if not self._skip_group("[", "]"):
                raise _Fail()
            base += "".join(self.lx[start:self.i])
        return base

    def _try_local_decl(self) -> LocalVarDecl | None:
        mark = self.i
        try:
            type_name = self._parse_type_name()
            location = self._location()
            name = self._match(TokenKind.IDENTIFIER)
            if name is None or not self._is(";", "="):
                raise _Fail()
        except _Fail:
            self.i = mark
            return None
        init: Expr | None = None
        if self._eat("="):
            init = self._expr_or_damage("unsupported initializer expression")
        self._expect_punct(";", "after variable declaration")
        return LocalVarDecl(*self._at(mark), name, type_name,
                            location, init)

    @contextmanager
    def _chain_link(self):
        if self.chain_depth >= _MAX_CHAIN_DEPTH:
            raise _Fail()
        self.chain_depth += 1
        try:
            yield
        finally:
            self.chain_depth -= 1

    def _parse_expression(self) -> Expr:
        if self.expr_depth >= _MAX_EXPR_DEPTH:
            raise _Fail()
        self.expr_depth += 1
        try:
            return self._parse_assignment()
        finally:
            self.expr_depth -= 1

    def _parse_assignment(self) -> Expr:
        start = self.i
        lhs = self._parse_conditional()
        op = self._peek()
        if op in ASSIGN_OPS:
            self._advance()
            with self._chain_link():
                rhs = self._parse_assignment()
            return Assignment(*self._at(start), lhs, rhs, op)
        return lhs

    def _parse_conditional(self) -> Expr:
        start = self.i
        cond = self._parse_binary(1)
        if self._eat("?"):
            then = self._parse_expression()
            self._expect(":")
            with self._chain_link():
                otherwise = self._parse_conditional()
            return Conditional(*self._at(start), cond, then, otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        start = self.i
        lhs = self._parse_unary()
        while True:
            op = self._peek()
            prec = _BINARY_PREC.get(op)
            if prec is None or prec < min_prec:
                return lhs
            self._advance()
            with self._chain_link():
                rhs = self._parse_binary(prec if op == "**" else prec + 1)
            lhs = Binary(*self._at(start), op, lhs, rhs)

    def _parse_unary(self) -> Expr:
        op = self._peek()
        if op in _UNARY_OPS:
            start = self.i
            self._advance()
            with self._chain_link():
                operand = self._parse_unary()
            return Unary(*self._at(start), op, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        start = self.i
        expr = self._parse_primary()
        while True:
            word = self._peek()
            if word == ".":
                if self.kd[self.i + 1] not in (TokenKind.IDENTIFIER,
                                               TokenKind.KEYWORD):
                    return expr
                self._advance()
                member = self._advance()
                expr = MemberAccess(*self._at(start), expr, member)
                continue
            if word == "[":
                self._advance()
                index = None
                if not self._is("]"):
                    index = self._parse_expression()
                self._expect("]")
                expr = IndexAccess(*self._at(start), expr, index)
                continue
            if word in ("(", "{"):
                options = [] if word == "(" else self._try_call_options()
                if options is None:
                    return expr
                self._expect("(")
                args = options + self._parse_call_args()
                expr = Call(*self._at(start), expr, args)
                continue
            if word in ("++", "--"):
                self._advance()
                expr = Unary(*self._at(start), word, expr)
                continue
            return expr

    def _parse_primary(self) -> Expr:
        i = self.i
        kind, text = self.kd[i], self.lx[i]
        if kind is TokenKind.IDENTIFIER or text == "payable" or \
                is_elementary_type(text):
            self.i = i + 1
            return Identifier(self.starts[i], self.starts[i] + len(text),
                              self.file, text)
        if kind is TokenKind.NUMBER:
            literal = LiteralKind.NUMBER
            if len(text) == _HEX_ADDRESS_LEN and text.lower().startswith("0x"):
                literal = LiteralKind.HEX_ADDRESS
        elif kind is TokenKind.STRING:
            literal = LiteralKind.STRING
        elif text in ("true", "false"):
            literal = LiteralKind.BOOL
        elif text == "new":
            self._advance()
            type_name = self._parse_type_name()
            return Identifier(*self._at(i), "new " + type_name)
        elif text == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect(")")
            return expr
        else:
            raise _Fail()
        self.i = i + 1
        return Literal(self.starts[i], self.starts[i] + len(text), self.file,
                       literal, text)


# ------------------------------------------------ reference lint rules

def _reference_flow(stmts: list[Stmt], facts, tree: ScopeTree,
                    before_emit: dict) -> None:
    """The equality flow before it yielded: one whole pass recording, by
    id(), the facts holding just before every emit of the function."""
    for stmt in stmts:
        if isinstance(stmt, EmitStmt):
            before_emit[id(stmt)] = facts
        elif isinstance(stmt, Block):
            _reference_flow(stmt.stmts, facts, tree, before_emit)
        elif isinstance(stmt, If):
            branch_facts = _kill_own_effects(stmt, facts, tree)
            for branch in (stmt.then, stmt.otherwise):
                if branch is not None:
                    _reference_flow([branch], branch_facts, tree, before_emit)
        elif isinstance(stmt, (For, While)):
            _reference_flow([stmt.body], {}, tree, before_emit)
        facts = _apply_stmt(stmt, facts, tree)


def reference_equalities_at(emit: EmitStmt, fn: FunctionDef,
                            tree: ScopeTree) -> list[EqualityFact]:
    """`equalities_at` as it ran the whole function's flow for each query."""
    if fn.body is None:
        return []
    before_emit: dict = {}
    _reference_flow(fn.body.stmts, {}, tree, before_emit)
    return list(before_emit.get(id(emit), {}).values())


def reference_storage_reads(fn: FunctionDef, emits, tree: ScopeTree,
                            path: str) -> list[Diagnostic]:
    """GAS_STORAGE_PARAM with one `reference_equalities_at` query per emit
    that reads storage."""
    diags: list[Diagnostic] = []
    for emit in emits:
        facts = None
        for arg in emit.args:
            if not isinstance(arg, Identifier):
                continue
            sym = resolve_at(arg.name, arg.start, tree)
            if sym is None or sym.location_class != LocationClass.STORAGE:
                continue
            if facts is None:
                facts = reference_equalities_at(emit, fn, tree)
            candidates = [f for f in facts if f.storage_sym == sym]
            if not candidates:
                continue
            best = min(candidates, key=lambda f: f.memory_sym.decl_start)
            mem = best.memory_sym.name
            message = (
                f"emit {emit.event_name} logs storage variable "
                f"'{sym.name}', which costs an extra Sload "
                f"(~{SLOAD_GAS} gas); in-scope memory variable '{mem}' "
                f"holds the same value here"
            )
            diags.append(Diagnostic(
                CheckId.GAS_STORAGE_PARAM, Severity.WARNING, path,
                emit.span, message, Suggestion(arg.span, mem)))
    return diags


def _reference_operation_touching(stmt: Stmt, emit_syms: set[Symbol],
                                  tree: ScopeTree) -> str | None:
    for write, root in writes(stmt):
        if isinstance(write, Assignment):
            what = f"assignment to '{root.name}'"
        elif isinstance(write, Call) and \
                isinstance(write.callee, MemberAccess) and \
                write.callee.member in TRANSFER_LIKE_CALLEES and \
                root is not root_identifier(write.callee.base):
            what = f"{write.callee.member} call using '{root.name}'"
        else:
            continue
        if resolve_at(root.name, root.start, tree) in emit_syms:
            return what
    return None


def reference_placements(blocks: list[Block], tree: ScopeTree,
                         path: str) -> list[Diagnostic]:
    """EMIT_BEFORE_OP walking every later statement of the block for each
    emit, in emit order."""
    diags: list[Diagnostic] = []
    for block in blocks:
        for idx, stmt in enumerate(block.stmts):
            if not isinstance(stmt, EmitStmt):
                continue
            emit_syms = {resolve_variable(name, stmt.start, tree)
                         for name in _arg_names(stmt)} - {None}
            if not emit_syms:
                continue
            for later in block.stmts[idx + 1:]:
                hit = _reference_operation_touching(later, emit_syms, tree)
                if hit is None:
                    continue
                message = (
                    f"emit {stmt.event_name} comes before a later {hit} at "
                    f"line {later.span.start_line}; move the emit after the "
                    f"operation so the log records the final value"
                )
                diags.append(Diagnostic(CheckId.EMIT_BEFORE_OP,
                                        Severity.WARNING, path, stmt.span,
                                        message))
                break
    return diags


def reference_redundancies(blocks: list[Block], tree: ScopeTree, path: str,
                           file: SourceFile) -> list[Diagnostic]:
    """REDUNDANT_EVENT over every pair of pairable emits, walking the
    statements between the two for kills; pairs come in the order of their
    later emit, then of their earlier one."""
    diags: list[Diagnostic] = []
    for block in blocks:
        emits = [(i, s, Counter(_arg_key(arg, s, tree, file)
                                for arg in s.args), _arg_names(s))
                 for i, s in enumerate(block.stmts)
                 if isinstance(s, EmitStmt)
                 and not has_call(s) and not kill_names(s)]
        for n, (j, second, second_args, second_names) in enumerate(emits):
            for i, first, first_args, first_names in emits[:n]:
                if first.args and not (first_args - second_args):
                    subset, superset = first, second
                elif second.args and not (second_args - first_args):
                    subset, superset = second, first
                else:
                    continue
                killed: set[str] = set()
                for between in block.stmts[i + 1:j]:
                    for nested in walk_statements(between):
                        killed |= kill_names(nested)
                if first_names & second_names & killed:
                    continue
                message = (
                    f"emit {subset.event_name} logs values that emit "
                    f"{superset.event_name} at line "
                    f"{superset.span.start_line} already records; the "
                    f"duplicate log costs gas"
                )
                diags.append(Diagnostic(CheckId.REDUNDANT_EVENT,
                                        Severity.INFO, path, subset.span,
                                        message))
    return diags


def reference_run_checks(file: SourceFile,
                         cfg: CheckConfig | None = None) -> list[Diagnostic]:
    """`run_checks`' diagnostics with the storage-read, placement and
    redundancy rules above in place of the forward passes. Every check
    runs: cfg sets only the threshold and debug form B."""
    cfg = cfg or CheckConfig()
    analysis = FileAnalysis.build(file)
    tree = build_symbols(analysis.unit)
    diags = check_overuse(analysis.loc, analysis.emit_count, cfg, file.path)
    for walk in analysis.functions:
        diags += reference_storage_reads(walk.fn, walk.emits, tree, file.path)
        diags += reference_placements(walk.blocks, tree, file.path)
        diags += reference_redundancies(walk.blocks, tree, file.path, file)
        diags += _debug_forms(walk.emits, cfg, file.path)
    diags.sort(key=_sort_key)
    return diags
