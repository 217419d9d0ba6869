"""Conservative intra-procedural value-equality analysis.

At an emit statement, the analysis reports which memory-class variables
provably hold the same value as a storage-backed variable. Facts are
established only by direct identifier-to-identifier assignments on the
straight-line path from function entry to the emit; they die on any
reassignment, compound assignment, increment/decrement, or use as a call
argument of either variable, on any call at all (a callee can write storage),
at every loop header, and after any compound or unparsed statement that does
not itself contain the emit. Dropping everything at those points is stricter
than necessary but never claims a false equality.

Every write notion (the facts a statement kills, the name-level kill sets
that REDUNDANT_EVENT uses, the effects of a branch condition and the
operations EMIT_BEFORE_OP looks for) derives from one walker over a
statement's own expressions: writes().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .nodes import (
    Assignment, Block, Call, EmitStmt, Expr, ExprStmt, For, FunctionDef,
    Identifier, If, LocalVarDecl, MemberAccess, Stmt, Unary, Unparsed, While,
    root_identifier, walk_expr, walk_stmt_expressions,
)
from .source import SourceFile, Span
from .symbols import LocationClass, ScopeTree, Symbol, SymbolKind, resolve_at


@dataclass(slots=True, unsafe_hash=True)
class EqualityFact:
    """storage_sym and memory_sym hold the same value from the statement at
    the offsets [start, end) of file on."""
    storage_sym: Symbol
    memory_sym: Symbol
    start: int
    end: int
    file: SourceFile = field(repr=False, compare=False)

    @property
    def established_at(self) -> Span:
        return self.file.span_from_offsets(self.start, self.end)


_VARIABLE_KINDS = (SymbolKind.STATE_VAR, SymbolKind.PARAM, SymbolKind.LOCAL_VAR)


def resolve_variable(name: str, offset: int,
                     tree: ScopeTree) -> Symbol | None:
    """resolve_at(), kept only when it finds a state variable, a parameter or
    a local variable."""
    sym = resolve_at(name, offset, tree)
    if sym is not None and sym.kind in _VARIABLE_KINDS:
        return sym
    return None


def writes(stmt: Stmt) -> Iterator[tuple[Expr, Identifier]]:
    """The expression making each write the statement's own expressions may
    make (an assignment, a ++/-- or a call), and the root identifier it
    writes, in walk order. A call writes every identifier in its arguments
    and then the receiver of a member call."""
    for expr in walk_stmt_expressions(stmt):
        if isinstance(expr, Assignment):
            targets = [expr.lhs]
        elif isinstance(expr, Unary) and expr.op in ("++", "--"):
            targets = [expr.operand]
        elif isinstance(expr, Call):
            targets = [node for arg in expr.args for node in walk_expr(arg)
                       if isinstance(node, Identifier)]
            if isinstance(expr.callee, MemberAccess):
                targets.append(expr.callee.base)
        else:
            continue
        for target in targets:
            root = root_identifier(target)
            if root is not None:
                yield expr, root


def kill_names(stmt: Stmt) -> set[str]:
    """Raw identifier names a statement may invalidate (the name-level
    suppression in checks)."""
    return {root.name for _, root in writes(stmt)}


def has_call(stmt: Stmt) -> bool:
    return any(isinstance(e, Call) for e in walk_stmt_expressions(stmt))


def _gen_pair(stmt: Stmt, tree: ScopeTree) -> tuple[Symbol, Symbol] | None:
    """(storage, memory) symbol pair made equal by a direct assignment."""
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assignment):
        assign = stmt.expr
        if assign.op != "=":
            return None
        if not isinstance(assign.lhs, Identifier) or \
                not isinstance(assign.rhs, Identifier):
            return None
        left = resolve_variable(assign.lhs.name, assign.lhs.start, tree)
        right = resolve_variable(assign.rhs.name, assign.rhs.start, tree)
    elif isinstance(stmt, LocalVarDecl) and isinstance(stmt.init, Identifier):
        left = resolve_variable(stmt.name, stmt.start, tree)
        right = resolve_variable(stmt.init.name, stmt.init.start, tree)
    else:
        return None
    if left is None or right is None:
        return None
    classes = {left.location_class, right.location_class}
    if classes != {LocationClass.STORAGE, LocationClass.MEMORY}:
        return None
    if left.location_class == LocationClass.STORAGE:
        return left, right
    return right, left


_FactMap = dict[tuple[Symbol, Symbol], EqualityFact]


def _kill_own_effects(stmt: Stmt, facts: _FactMap,
                      tree: ScopeTree) -> _FactMap:
    """A copy of facts without those the statement's own expressions kill;
    empty when they contain a call (a callee can write storage)."""
    if not facts or has_call(stmt):
        return {}
    victims = {resolve_variable(root.name, root.start, tree)
               for _, root in writes(stmt)}
    return {key: fact for key, fact in facts.items()
            if fact.storage_sym not in victims
            and fact.memory_sym not in victims}


def _apply_stmt(stmt: Stmt, facts: _FactMap, tree: ScopeTree) -> _FactMap:
    if isinstance(stmt, (Unparsed, Block, If, For, While)):
        # Opaque or compound statement on the path: drop everything.
        return {}
    facts = _kill_own_effects(stmt, facts, tree)
    pair = _gen_pair(stmt, tree)
    if pair is not None:
        facts[pair] = EqualityFact(pair[0], pair[1], stmt.start, stmt.end,
                                   stmt.file)
    return facts


def _flow(stmts: list[Stmt], facts: _FactMap,
          tree: ScopeTree) -> Iterator[tuple[EmitStmt, _FactMap]]:
    """One forward pass from facts holding before stmts. Yields each emit,
    in nested blocks, branches and loop bodies too, with the facts holding
    just before it, in preorder (the order of FunctionWalk.emits)."""
    for stmt in stmts:
        if isinstance(stmt, EmitStmt):
            yield stmt, facts
        elif isinstance(stmt, Block):
            yield from _flow(stmt.stmts, facts, tree)
        elif isinstance(stmt, If):
            # The condition is the if statement's own expression.
            branch_facts = _kill_own_effects(stmt, facts, tree)
            for branch in (stmt.then, stmt.otherwise):
                if branch is not None:
                    yield from _flow([branch], branch_facts, tree)
        elif isinstance(stmt, (For, While)):
            # Loop header joins the back edge: facts cannot cross it.
            yield from _flow([stmt.body], {}, tree)
        facts = _apply_stmt(stmt, facts, tree)


def equalities_at(emit: EmitStmt, fn: FunctionDef,
                  tree: ScopeTree) -> list[EqualityFact]:
    """Equality facts holding immediately before the emit executes. The
    flow runs only up to the emit."""
    if fn.body is None:
        return []
    facts = next((facts for seen, facts in _flow(fn.body.stmts, {}, tree)
                  if seen is emit), {})
    return list(facts.values())
