"""Per-contract symbol tables with lexical scoping and data-location classes.

Every named declaration is classified as storage-backed (state variables and
explicitly storage-located parameters/locals of reference type) or
memory-class (everything a function can touch without an Sload: value-typed
parameters and locals, and memory/calldata reference values). Event, function,
and contract names carry no data location, and neither do constant and
immutable state variables, whose values are in the code, not in storage.

State variables of base contracts declared in the same file are imported into
the derived contract's scope; cross-file inheritance is out of scope.

Each scope keeps its declarations only by name, so a lookup reads only its
own name's declarations; `Scope.symbols` lists them all, name by name.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from .nodes import (
    Block, ContractDef, DataLocation, For, FunctionDef, LocalVarDecl, Node,
    Param, SourceUnit, StateVarDecl, Stmt, statement_children,
)
from .source import SourceFile, Span


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


@dataclass(slots=True, unsafe_hash=True)
class Symbol:
    """A declaration; decl_start/decl_end are the offsets of its text.

    Like the other records built per declaration or per finding (`Span`,
    `Diagnostic`, `Suggestion`, `EqualityFact`), it is not frozen, since a
    frozen `__init__` pays one `object.__setattr__` per field; `unsafe_hash`
    gives it the hash a frozen record has. Treat it as read-only."""
    name: str
    kind: SymbolKind
    location_class: LocationClass
    decl_start: int
    decl_end: int
    scope_id: int
    file: SourceFile | None = field(default=None, repr=False, compare=False)

    @property
    def decl_span(self) -> Span:
        if self.file is None:  # a builtin
            return Span(0, 0, 0, 0)
        return self.file.span_from_offsets(self.decl_start, self.decl_end)


@dataclass
class DuplicateDeclaration:
    """symbol, skipped because original declares the same name and kind."""
    symbol: Symbol
    original: Symbol


@dataclass(slots=True)
class Scope:
    """A lexical scope over the offsets [start, end) of file."""
    scope_id: int
    parent_id: int | None
    start: int
    end: int
    depth: int
    file: SourceFile = field(repr=False, compare=False)
    # The symbols by name, each list in declaration order.
    named: dict[str, list[Symbol]] = field(default_factory=dict)

    @property
    def span(self) -> Span:
        return self.file.span_from_offsets(self.start, self.end)

    @property
    def symbols(self) -> list[Symbol]:
        """The symbols of `named`, name by name in first-declared order."""
        return [sym for same in self.named.values() for sym in same]


@dataclass
class ScopeTree:
    """The scopes in preorder, and the edges where a scope starts or a
    non-root scope ends, in source order, each with the deepest scope from
    there to the next edge."""
    scopes: list[Scope]
    warnings: list[DuplicateDeclaration] = field(default_factory=list)
    edges: list[int] = field(default_factory=list, repr=False, compare=False)
    deepest: list[Scope] = field(default_factory=list, repr=False,
                                 compare=False)

    def scope_at(self, offset: int) -> Scope:
        """Deepest scope holding the offset; the root when none does: the
        last edge's scope is the root, and an offset before the first reads
        it too."""
        return self.deepest[bisect_right(self.edges, offset) - 1]


BUILTIN_NAMES = ("msg", "block", "tx", "this", "address", "abi")

BUILTINS = {
    name: Symbol(name, SymbolKind.BUILTIN, LocationClass.NOT_APPLICABLE,
                 0, 0, -1)
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


def location_class_for(type_name: str,
                       data_location: DataLocation) -> LocationClass:
    """The class of a parameter or a local variable; a state variable's is
    decided by `_Builder._add_state_var`."""
    if data_location == DataLocation.STORAGE and is_reference_type(type_name):
        return LocationClass.STORAGE
    # Explicit memory/calldata, value types, and location-defaulted
    # reference values (memory for internal, calldata for external
    # parameters) all stay off storage.
    return LocationClass.MEMORY


class _Builder:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.tree = ScopeTree(scopes=[])

    def _new_scope(self, parent: Scope | None, node: Node) -> Scope:
        scope = Scope(len(self.tree.scopes),
                      parent.scope_id if parent else None, node.start,
                      node.end, parent.depth + 1 if parent else 0, node.file,
                      {})
        self.tree.scopes.append(scope)
        self._edge(node.start, scope)
        return scope

    def _edge(self, offset: int, scope: Scope) -> None:
        """From the offset on, up to the next edge, scope is the deepest."""
        self.tree.edges.append(offset)
        self.tree.deepest.append(scope)

    def _add(self, scope: Scope, name: str, kind: SymbolKind,
             location_class: LocationClass, decl: Node) -> None:
        """A second declaration of a name and kind in one scope is skipped
        with a warning; function names are exempt, since overloads share
        one."""
        sym = Symbol(name, kind, location_class, decl.start, decl.end,
                     scope.scope_id, decl.file)
        same_name = scope.named.setdefault(name, [])
        if kind != SymbolKind.FUNCTION_NAME:
            for existing in same_name:
                if existing.kind == kind:
                    self.tree.warnings.append(
                        DuplicateDeclaration(sym, existing))
                    return
        same_name.append(sym)

    def _add_variable(self, scope: Scope, kind: SymbolKind,
                      decl: Param | LocalVarDecl) -> None:
        self._add(scope, decl.name, kind,
                  location_class_for(decl.type_name, decl.data_location), decl)

    def _add_state_var(self, scope: Scope, var: StateVarDecl) -> None:
        """A constant or immutable is no storage slot: its value is in the
        code, so reading it costs no Sload."""
        location_class = LocationClass.NOT_APPLICABLE \
            if var.is_constant or var.is_immutable else LocationClass.STORAGE
        self._add(scope, var.name, SymbolKind.STATE_VAR, location_class, var)

    def build(self) -> ScopeTree:
        root = self._new_scope(None, self.unit)
        by_name = {c.name: c for c in self.unit.contracts}
        for contract in self.unit.contracts:
            self._add(root, contract.name, SymbolKind.CONTRACT_NAME,
                      LocationClass.NOT_APPLICABLE, contract)
        for contract in self.unit.contracts:
            self._build_contract(root, contract, by_name)
        return self.tree

    def _build_contract(self, root: Scope, contract: ContractDef,
                        by_name: dict[str, ContractDef]) -> None:
        scope = self._new_scope(root, contract)
        for var in contract.state_vars:
            self._add_state_var(scope, var)
        for parent in self._linearized_bases(contract, by_name):
            for var in parent.state_vars:
                if var.name not in scope.named:  # derived declaration wins
                    self._add_state_var(scope, var)
        for event in contract.events:
            self._add(scope, event.name, SymbolKind.EVENT_NAME,
                      LocationClass.NOT_APPLICABLE, event)
        for fn in contract.functions:
            if fn.name:
                self._add(scope, fn.name, SymbolKind.FUNCTION_NAME,
                          LocationClass.NOT_APPLICABLE, fn)
        for fn in contract.functions:
            self._build_function(scope, fn)
        self._edge(contract.end, root)

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
        scope = self._new_scope(contract_scope, fn)
        for param in list(fn.params) + list(fn.returns_params):
            if param.name:
                self._add_variable(scope, SymbolKind.PARAM, param)
        if fn.body is not None:
            self._build_stmt(scope, fn.body)
        self._edge(fn.end, contract_scope)

    def _build_stmt(self, scope: Scope, stmt: Stmt) -> None:
        """A block and a for loop (its initializer included) open a scope."""
        if isinstance(stmt, LocalVarDecl):
            self._add_variable(scope, SymbolKind.LOCAL_VAR, stmt)
        opens = isinstance(stmt, (Block, For))
        inner = self._new_scope(scope, stmt) if opens else scope
        for child in statement_children(stmt):
            self._build_stmt(inner, child)
        if opens:
            self._edge(stmt.end, scope)


def build_symbols(unit: SourceUnit) -> ScopeTree:
    return _Builder(unit).build()


def resolve_at(name: str, offset: int, tree: ScopeTree) -> Symbol | None:
    """Innermost declaration of name visible at the offset; None when
    unresolved. A local variable is visible from its declaration on.
    Builtin names resolve to location-free pseudo-symbols."""
    scope = tree.scope_at(offset)
    while scope is not None:
        for sym in scope.named.get(name, ()):
            if sym.kind != SymbolKind.LOCAL_VAR or sym.decl_start <= offset:
                return sym
        scope = tree.scopes[scope.parent_id] if scope.parent_id is not None else None
    return BUILTINS.get(name)


def resolve(name: str, at: Span, tree: ScopeTree) -> Symbol | None:
    """resolve_at, at the start of a span of the tree's file."""
    root = tree.scopes[0]
    return resolve_at(name, root.file.linecol_to_offset(at.start_line,
                                                        at.start_col), tree)
