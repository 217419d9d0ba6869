"""AST node definitions for the supported contract subset, plus tree walkers.

Every node carries the half-open character offsets of its text; its span is
built from them when read. Constructs outside the subset survive as Unparsed
statements that record the skipped text verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Union

from .source import SourceFile, Span


class DataLocation(Enum):
    DEFAULT = "default"
    MEMORY = "memory"
    STORAGE = "storage"
    CALLDATA = "calldata"


class LiteralKind(Enum):
    NUMBER = "Number"
    STRING = "String"
    BOOL = "Bool"
    HEX_ADDRESS = "HexAddress"


@dataclass(slots=True)
class Node:
    """Base of every node: the offsets [start, end) of its text in file.
    Most spans are never read, so a span is converted only on read."""
    start: int
    end: int
    file: SourceFile = field(repr=False, compare=False)

    @property
    def span(self) -> Span:
        return self.file.span_from_offsets(self.start, self.end)


# ---------------------------------------------------------------- expressions

@dataclass(slots=True)
class Identifier(Node):
    name: str


@dataclass(slots=True)
class MemberAccess(Node):
    base: "Expr"
    member: str


@dataclass(slots=True)
class IndexAccess(Node):
    base: "Expr"
    index: Optional["Expr"]


@dataclass(slots=True)
class Call(Node):
    callee: "Expr"
    args: list["Expr"]


@dataclass(slots=True)
class Literal(Node):
    kind: LiteralKind
    text: str


@dataclass(slots=True)
class Binary(Node):
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(slots=True)
class Unary(Node):
    op: str
    operand: "Expr"


@dataclass(slots=True)
class Assignment(Node):
    lhs: "Expr"
    rhs: "Expr"
    op: str


@dataclass(slots=True)
class Conditional(Node):
    cond: "Expr"
    then: "Expr"
    otherwise: "Expr"


Expr = Union[
    Identifier, MemberAccess, IndexAccess, Call, Literal, Binary, Unary,
    Assignment, Conditional,
]


# ----------------------------------------------------------------- statements

@dataclass(slots=True)
class Block(Node):
    stmts: list["Stmt"]


@dataclass(slots=True)
class If(Node):
    cond: Expr
    then: "Stmt"
    otherwise: Optional["Stmt"]


@dataclass(slots=True)
class For(Node):
    init: Optional["Stmt"]
    cond: Optional[Expr]
    post: Optional[Expr]
    body: "Stmt"


@dataclass(slots=True)
class While(Node):
    cond: Expr
    body: "Stmt"


@dataclass(slots=True)
class EmitStmt(Node):
    event_name: str
    args: list[Expr]


@dataclass(slots=True)
class LocalVarDecl(Node):
    name: str
    type_name: str
    data_location: DataLocation
    init: Optional[Expr]


@dataclass(slots=True)
class ExprStmt(Node):
    expr: Expr


@dataclass(slots=True)
class Return(Node):
    expr: Optional[Expr]


@dataclass(slots=True)
class Unparsed(Node):
    raw_text: str


Stmt = Union[
    Block, If, For, While, EmitStmt, LocalVarDecl, ExprStmt, Return, Unparsed,
]


# --------------------------------------------------------------- declarations

@dataclass(slots=True)
class Param(Node):
    name: str
    type_name: str
    data_location: DataLocation


@dataclass(slots=True)
class EventParam(Node):
    name: Optional[str]
    type_name: str
    indexed: bool


@dataclass(slots=True)
class EventDef(Node):
    name: str
    params: list[EventParam]


@dataclass(slots=True)
class FunctionDef(Node):
    name: str  # empty for constructor/fallback/receive
    kind: str  # function | constructor | fallback | receive | modifier
    params: list[Param]
    returns_params: list[Param]
    visibility: str
    mutability: str
    body: Optional[Block]


@dataclass(slots=True)
class StateVarDecl(Node):
    name: str
    type_name: str
    visibility: str
    is_constant: bool
    is_immutable: bool
    init: Optional[Expr]


class ContractKind(Enum):
    CONTRACT = "contract"
    INTERFACE = "interface"
    LIBRARY = "library"
    ABSTRACT = "abstract"


@dataclass(slots=True)
class ContractDef(Node):
    name: str
    kind: ContractKind
    bases: list[str]
    state_vars: list[StateVarDecl]
    events: list[EventDef]
    functions: list[FunctionDef]


@dataclass(slots=True)
class Directive(Node):
    kind: str  # pragma | import
    text: str


@dataclass(slots=True)
class ParseError:
    message: str
    span: Span
    severity: str = "error"  # error | warning


@dataclass(slots=True)
class SourceUnit(Node):
    pragmas: list[Directive]
    contracts: list[ContractDef]
    parse_errors: list[ParseError]


# -------------------------------------------------------------------- walkers

def statement_children(stmt: Stmt) -> list[Stmt]:
    if isinstance(stmt, Block):
        return list(stmt.stmts)
    if isinstance(stmt, If):
        return [s for s in (stmt.then, stmt.otherwise) if s is not None]
    if isinstance(stmt, For):
        return [s for s in (stmt.init, stmt.body) if s is not None]
    if isinstance(stmt, While):
        return [stmt.body]
    return []


def walk_statements(root: Stmt) -> Iterator[Stmt]:
    """The statement itself and all nested statements, preorder."""
    stack = [root]
    while stack:
        stmt = stack.pop()
        yield stmt
        stack.extend(reversed(statement_children(stmt)))


def iter_functions(unit: SourceUnit) -> Iterator[FunctionDef]:
    for contract in unit.contracts:
        yield from contract.functions


def iter_emits(fn: FunctionDef) -> Iterator[EmitStmt]:
    return iter(walk_function(fn).emits)


@dataclass(frozen=True)
class FunctionWalk:
    """One walk of a function's statements: its blocks and its emits, each
    in preorder."""
    fn: FunctionDef
    blocks: list[Block]
    emits: list[EmitStmt]


def walk_function(fn: FunctionDef) -> FunctionWalk:
    blocks: list[Block] = []
    emits: list[EmitStmt] = []
    if fn.body is not None:
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, Block):
                blocks.append(stmt)
            elif isinstance(stmt, EmitStmt):
                emits.append(stmt)
    return FunctionWalk(fn, blocks, emits)


def own_expressions(stmt: Stmt) -> list[Expr]:
    """Expressions attached directly to the statement (child statements'
    expressions are not included)."""
    if isinstance(stmt, ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, EmitStmt):
        return list(stmt.args)
    if isinstance(stmt, LocalVarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Return):
        return [stmt.expr] if stmt.expr is not None else []
    if isinstance(stmt, (If, While)):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [e for e in (stmt.cond, stmt.post) if e is not None]
    return []


def expr_children(expr: Expr) -> list[Expr]:
    if isinstance(expr, MemberAccess):
        return [expr.base]
    if isinstance(expr, IndexAccess):
        return [expr.base] + ([expr.index] if expr.index is not None else [])
    if isinstance(expr, Call):
        return [expr.callee] + list(expr.args)
    if isinstance(expr, (Binary, Assignment)):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Conditional):
        return [expr.cond, expr.then, expr.otherwise]
    return []


def walk_expr(expr: Expr) -> Iterator[Expr]:
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(expr_children(e)))


def walk_stmt_expressions(stmt: Stmt) -> Iterator[Expr]:
    """Every expression node attached directly to the statement, recursively
    through subexpressions."""
    for root in own_expressions(stmt):
        yield from walk_expr(root)


def identifier_names(expr: Expr) -> list[str]:
    return [e.name for e in walk_expr(expr) if isinstance(e, Identifier)]


def root_identifier(expr: Expr) -> Optional[Identifier]:
    """Peel member and index accesses down to the base identifier, if any."""
    while isinstance(expr, (MemberAccess, IndexAccess)):
        expr = expr.base
    return expr if isinstance(expr, Identifier) else None
