"""AST node definitions for the supported contract subset, plus tree walkers.

Every node carries a span. Constructs outside the subset survive as Unparsed
statements that record the skipped text verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

from .source import Span


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


# ---------------------------------------------------------------- expressions

@dataclass
class Identifier:
    name: str
    span: Span


@dataclass
class MemberAccess:
    base: "Expr"
    member: str
    span: Span


@dataclass
class IndexAccess:
    base: "Expr"
    index: Optional["Expr"]
    span: Span


@dataclass
class Call:
    callee: "Expr"
    args: list["Expr"]
    span: Span


@dataclass
class Literal:
    kind: LiteralKind
    text: str
    span: Span


@dataclass
class Binary:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span


@dataclass
class Unary:
    op: str
    operand: "Expr"
    span: Span


@dataclass
class Assignment:
    lhs: "Expr"
    rhs: "Expr"
    op: str
    span: Span


@dataclass
class Conditional:
    cond: "Expr"
    then: "Expr"
    otherwise: "Expr"
    span: Span


Expr = Union[
    Identifier, MemberAccess, IndexAccess, Call, Literal, Binary, Unary,
    Assignment, Conditional,
]


# ----------------------------------------------------------------- statements

@dataclass
class Block:
    stmts: list["Stmt"]
    span: Span


@dataclass
class If:
    cond: Expr
    then: "Stmt"
    otherwise: Optional["Stmt"]
    span: Span


@dataclass
class For:
    init: Optional["Stmt"]
    cond: Optional[Expr]
    post: Optional[Expr]
    body: "Stmt"
    span: Span


@dataclass
class While:
    cond: Expr
    body: "Stmt"
    span: Span


@dataclass
class EmitStmt:
    event_name: str
    args: list[Expr]
    span: Span


@dataclass
class LocalVarDecl:
    name: str
    type_name: str
    data_location: DataLocation
    init: Optional[Expr]
    span: Span


@dataclass
class ExprStmt:
    expr: Expr
    span: Span


@dataclass
class Return:
    expr: Optional[Expr]
    span: Span


@dataclass
class Unparsed:
    raw_text: str
    span: Span


Stmt = Union[
    Block, If, For, While, EmitStmt, LocalVarDecl, ExprStmt, Return, Unparsed,
]


# --------------------------------------------------------------- declarations

@dataclass
class Param:
    name: str
    type_name: str
    data_location: DataLocation
    span: Span


@dataclass
class EventParam:
    name: Optional[str]
    type_name: str
    indexed: bool
    span: Span


@dataclass
class EventDef:
    name: str
    params: list[EventParam]
    span: Span


@dataclass
class FunctionDef:
    name: str  # empty for constructor/fallback/receive
    kind: str  # function | constructor | fallback | receive | modifier
    params: list[Param]
    returns_params: list[Param]
    visibility: str
    mutability: str
    body: Optional[Block]
    span: Span


@dataclass
class StateVarDecl:
    name: str
    type_name: str
    visibility: str
    is_constant: bool
    is_immutable: bool
    init: Optional[Expr]
    span: Span


class ContractKind(Enum):
    CONTRACT = "contract"
    INTERFACE = "interface"
    LIBRARY = "library"
    ABSTRACT = "abstract"


@dataclass
class ContractDef:
    name: str
    kind: ContractKind
    bases: list[str]
    state_vars: list[StateVarDecl]
    events: list[EventDef]
    functions: list[FunctionDef]
    span: Span


@dataclass
class Directive:
    kind: str  # pragma | import
    text: str
    span: Span


@dataclass
class ParseError:
    message: str
    span: Span
    severity: str = "error"  # error | warning


@dataclass
class SourceUnit:
    pragmas: list[Directive]
    contracts: list[ContractDef]
    parse_errors: list[ParseError]
    span: Span


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
    if fn.body is None:
        return
    for stmt in walk_statements(fn.body):
        if isinstance(stmt, EmitStmt):
            yield stmt


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
    if isinstance(expr, Binary):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Assignment):
        return [expr.lhs, expr.rhs]
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
