"""Per-contract symbol tables with lexical scoping and data-location classes.

Every named declaration is classified as storage-backed (state variables and
explicitly storage-located parameters/locals of reference type) or
memory-class (everything a function can touch without an Sload: value-typed
parameters and locals, and memory/calldata reference values). Event, function,
and contract names carry no data location.

State variables of base contracts declared in the same file are imported into
the derived contract's scope; cross-file inheritance is out of scope.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from .nodes import (
    Block, ContractDef, DataLocation, For, FunctionDef, If, LocalVarDecl,
    SourceUnit, Stmt, While,
)
from .source import Span


class SymbolKind(Enum):
    STATE_VAR = "StateVar"
    LOCAL_VAR = "LocalVar"
    PARAM = "Param"
    EVENT_NAME = "EventName"
    FUNCTION_NAME = "FunctionName"
    CONTRACT_NAME = "ContractName"
    BUILTIN = "Builtin"


class LocationClass(Enum):
    STORAGE = "StorageClass"
    MEMORY = "MemoryClass"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: SymbolKind
    declared_type: str
    location_class: LocationClass
    decl_span: Span
    scope_id: int


@dataclass
class DuplicateDeclaration:
    name: str
    span: Span
    original_span: Span


@dataclass
class Scope:
    scope_id: int
    parent_id: int | None
    span: Span
    depth: int
    symbols: list[Symbol] = field(default_factory=list)
    # Child scopes in source order and their start positions, for bisection.
    children: list[Scope] = field(default_factory=list, repr=False,
                                  compare=False)
    child_starts: list[tuple[int, int]] = field(default_factory=list,
                                                repr=False, compare=False)


@dataclass
class ScopeTree:
    scopes: list[Scope]
    warnings: list[DuplicateDeclaration] = field(default_factory=list)

    def innermost_scope_at(self, line: int, col: int) -> Scope:
        """Deepest scope whose span holds the point; the root when none does.
        Each scope's span lies inside its parent's, and siblings cover
        disjoint token ranges in source order, so one bisection per level
        finds the only child that can hold the point."""
        scope = self.scopes[0]
        while scope.children:
            i = bisect_right(scope.child_starts, (line, col)) - 1
            if i < 0 or not scope.children[i].span.contains_point(line, col):
                break
            scope = scope.children[i]
        return scope


_ZERO_SPAN = Span(0, 0, 0, 0)

BUILTIN_NAMES = ("msg", "block", "tx", "this", "address", "abi")

BUILTINS = {
    name: Symbol(name, SymbolKind.BUILTIN, "", LocationClass.NOT_APPLICABLE,
                 _ZERO_SPAN, -1)
    for name in BUILTIN_NAMES
}


def is_reference_type(type_name: str) -> bool:
    """Reference types live in a data location; value types are copied.
    Unknown named types are treated as value types (enums and contract
    references behave that way, and structs carry an explicit location in
    code that compiles)."""
    t = type_name.strip()
    if t.startswith("mapping("):
        return True
    if t.endswith("]"):
        return True
    if t in ("string", "bytes"):
        return True
    return False


def location_class_for(kind: SymbolKind, type_name: str,
                       data_location: DataLocation) -> LocationClass:
    if kind == SymbolKind.STATE_VAR:
        return LocationClass.STORAGE
    if kind in (SymbolKind.PARAM, SymbolKind.LOCAL_VAR):
        if data_location == DataLocation.STORAGE and is_reference_type(type_name):
            return LocationClass.STORAGE
        # Explicit memory/calldata, value types, and location-defaulted
        # reference values (memory for internal, calldata for external
        # parameters) all stay off storage.
        return LocationClass.MEMORY
    return LocationClass.NOT_APPLICABLE


class _Builder:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.tree = ScopeTree(scopes=[])

    def _new_scope(self, parent: Scope | None, span: Span) -> Scope:
        scope = Scope(
            scope_id=len(self.tree.scopes),
            parent_id=parent.scope_id if parent else None,
            span=span,
            depth=parent.depth + 1 if parent else 0,
        )
        self.tree.scopes.append(scope)
        if parent is not None:
            parent.children.append(scope)
            parent.child_starts.append(span.start)
        return scope

    def _add(self, scope: Scope, sym: Symbol, unique: bool = True) -> None:
        if unique:
            for existing in scope.symbols:
                if existing.name == sym.name and existing.kind == sym.kind:
                    self.tree.warnings.append(
                        DuplicateDeclaration(sym.name, sym.decl_span,
                                             existing.decl_span))
                    return
        scope.symbols.append(sym)

    def build(self) -> ScopeTree:
        root = self._new_scope(None, self.unit.span)
        by_name = {c.name: c for c in self.unit.contracts}
        for contract in self.unit.contracts:
            self._add(root, Symbol(contract.name, SymbolKind.CONTRACT_NAME, "",
                                   LocationClass.NOT_APPLICABLE, contract.span,
                                   root.scope_id))
        for contract in self.unit.contracts:
            self._build_contract(root, contract, by_name)
        return self.tree

    def _build_contract(self, root: Scope, contract: ContractDef,
                        by_name: dict[str, ContractDef]) -> None:
        scope = self._new_scope(root, contract.span)
        for var in contract.state_vars:
            self._add(scope, Symbol(var.name, SymbolKind.STATE_VAR,
                                    var.type_name, LocationClass.STORAGE,
                                    var.span, scope.scope_id))
        for parent in self._linearized_bases(contract, by_name):
            for var in parent.state_vars:
                if any(s.name == var.name for s in scope.symbols):
                    continue  # derived declaration wins
                scope.symbols.append(
                    Symbol(var.name, SymbolKind.STATE_VAR, var.type_name,
                           LocationClass.STORAGE, var.span, scope.scope_id))
        for event in contract.events:
            self._add(scope, Symbol(event.name, SymbolKind.EVENT_NAME, "",
                                    LocationClass.NOT_APPLICABLE, event.span,
                                    scope.scope_id))
        for fn in contract.functions:
            if fn.name:
                self._add(scope, Symbol(fn.name, SymbolKind.FUNCTION_NAME, "",
                                        LocationClass.NOT_APPLICABLE, fn.span,
                                        scope.scope_id), unique=False)
        for fn in contract.functions:
            self._build_function(scope, fn)

    def _linearized_bases(self, contract: ContractDef,
                          by_name: dict[str, ContractDef]):
        seen = {contract.name}
        queue = list(contract.bases)
        while queue:
            base = queue.pop(0).split(".")[-1]
            if base in seen or base not in by_name:
                continue
            seen.add(base)
            parent = by_name[base]
            yield parent
            queue.extend(parent.bases)

    def _build_function(self, contract_scope: Scope, fn: FunctionDef) -> None:
        scope = self._new_scope(contract_scope, fn.span)
        for param in list(fn.params) + list(fn.returns_params):
            if not param.name:
                continue
            self._add(scope, Symbol(
                param.name, SymbolKind.PARAM, param.type_name,
                location_class_for(SymbolKind.PARAM, param.type_name,
                                   param.data_location),
                param.span, scope.scope_id))
        if fn.body is not None:
            self._build_block(scope, fn.body)

    def _build_block(self, parent: Scope, block: Block) -> None:
        scope = self._new_scope(parent, block.span)
        for stmt in block.stmts:
            self._build_stmt(scope, stmt)

    def _build_stmt(self, scope: Scope, stmt: Stmt) -> None:
        if isinstance(stmt, LocalVarDecl):
            self._add(scope, Symbol(
                stmt.name, SymbolKind.LOCAL_VAR, stmt.type_name,
                location_class_for(SymbolKind.LOCAL_VAR, stmt.type_name,
                                   stmt.data_location),
                stmt.span, scope.scope_id))
            return
        if isinstance(stmt, Block):
            self._build_block(scope, stmt)
            return
        if isinstance(stmt, If):
            self._build_stmt(scope, stmt.then)
            if stmt.otherwise is not None:
                self._build_stmt(scope, stmt.otherwise)
            return
        if isinstance(stmt, For):
            inner = self._new_scope(scope, stmt.span)
            if stmt.init is not None:
                self._build_stmt(inner, stmt.init)
            self._build_stmt(inner, stmt.body)
            return
        if isinstance(stmt, While):
            self._build_stmt(scope, stmt.body)
            return


def build_symbols(unit: SourceUnit) -> ScopeTree:
    return _Builder(unit).build()


def _visible_in_scope(sym: Symbol, at: Span) -> bool:
    if sym.kind == SymbolKind.LOCAL_VAR:
        return sym.decl_span.start <= at.start
    return True


def resolve(name: str, at: Span, tree: ScopeTree) -> Symbol | None:
    """Innermost visible declaration of name at the given position; None when
    unresolved. Builtin names resolve to location-free pseudo-symbols."""
    scope = tree.innermost_scope_at(at.start_line, at.start_col)
    while scope is not None:
        for sym in scope.symbols:
            if sym.name == name and _visible_in_scope(sym, at):
                return sym
        scope = tree.scopes[scope.parent_id] if scope.parent_id is not None else None
    return BUILTINS.get(name)
