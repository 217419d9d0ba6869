"""Recursive-descent parser with panic-mode recovery.

The grammar covers what the checks need: contract scaffolding, state
variables, events, functions and modifiers, and the statement and expression
forms that carry emits and assignments. Recognized-but-unsupported constructs
(inline assembly, try/catch, tuples, ...) are preserved as Unparsed statements
and recorded as warnings; genuine syntax damage is recorded as an error and
skipped, so a malformed file still yields whatever parses around the damage.

Every skip follows one rule, `Parser._skip_to`: consume tokens up to the
first stop lexeme outside brackets and leave that stop. Each caller names its
stops and which bracket kinds count.

The parser reads the lexer's columns, not Token objects: the token at index
i has lexeme `lx[i]`, kind `kd[i]` and offsets `starts[i]`, `ends[i]`. The
helpers that consume or look at one token return its lexeme. `parse_file`
hands the parser the columns of its one lex; `parse(tokens, file)` builds
them from a token list.

Expressions take one path. `_parse_expression` reads prefix operators, or
one operand and its postfix operators, then binary operators by precedence,
then `?:` and an assignment; each nested link is one call of it, so one
frame. An identifier or number operand is built in place; any other goes
through `_parse_primary`. `_parse_stmt` dispatches on a statement's first
word itself, so a nested statement is two frames.
Statements take one pre-check, giving the node the general path would give:
a statement that starts with an identifier is no declaration when the next
token is no identifier and none of `.`, `[`, `memory`, `storage` and
`calldata`, so `_try_local_decl` returns at once, without parsing a type
name and backtracking.
An elementary type name is a keyword not in KEYWORDS, since the lexer makes
every elementary type name a keyword.
"""

from __future__ import annotations

from typing import Callable

from .lexer import ASSIGN_OPS, KEYWORDS, LexResult, Token, TokenKind, lex
from .nodes import (
    Assignment, Binary, Block, Call, Conditional, ContractDef, ContractKind,
    DataLocation, Directive, EmitStmt, EventDef, EventParam, Expr, ExprStmt,
    For, FunctionDef, Identifier, If, IndexAccess, Literal, LiteralKind,
    LocalVarDecl, MemberAccess, Node, Param, ParseError, Return, SourceUnit,
    StateVarDecl, Stmt, Unary, Unparsed, While,
)
from .source import SourceFile, Span

_VISIBILITY = frozenset({"public", "private", "internal", "external"})
_MUTABILITY = frozenset({"view", "pure", "payable", "constant"})
_BINARY_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "|": 5, "^": 6, "&": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}
# Levels of `Parser._parse_expression` outside the binary ones: an
# assignment holds every operator, a conditional all but an assignment, and
# the operand of a prefix operator no binary operator.
_ASSIGNMENT = -1
_CONDITIONAL = 0
_PREFIX = max(_BINARY_PREC.values()) + 1
_UNARY_OPS = frozenset({"!", "~", "-", "+", "++", "--"})
_POSTFIX_STARTS = frozenset({".", "[", "(", "{", "++", "--"})
# What may follow the first identifier of a local declaration's type.
_DECL_SECOND = frozenset({".", "[", "memory", "storage", "calldata"})
_OPENERS = frozenset({"(", "[", "{"})
_CLOSERS = frozenset({")", "]", "}"})
_ARG_ENDS = _CLOSERS | {",", ";"}
_FILE_LEVEL = frozenset({"pragma", "import", "contract", "interface",
                         "library", "abstract"})

_HEX_ADDRESS_LEN = 42  # 0x + 40 hex digits
_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_NUMBER = TokenKind.NUMBER

# Adversarial nesting must not exhaust the interpreter stack; beyond these
# depths the region is skipped as damage instead. Links of right-recursive
# chains (assignments, conditional else-branches, binary right operands,
# prefix operators, nested mapping types) are counted apart from nested
# expressions, so bounding them leaves the nesting limit where it was.
# Both are counted at the entry of `Parser._parse_expression`.
_MAX_STMT_DEPTH = 120
_MAX_EXPR_DEPTH = 80
_MAX_CHAIN_DEPTH = 100


class _Fail(Exception):
    """Backtracking probe failed; nothing was recorded."""


class _Damage(Exception):
    """Committed parse failed; an error was already recorded."""


class Parser:
    def __init__(self, lexed: LexResult, file: SourceFile):
        """lexed must come from file. Past the real tokens the lexeme and
        kind columns hold three end entries, which match no lexeme and no
        kind; lookahead reaches at most two tokens past the next one. The
        offset columns are read only at real tokens, so they are not
        copied."""
        self.n = len(lexed.lexemes)
        self.lx = [*lexed.lexemes, "", "", ""]
        self.kd = [*lexed.kinds, None, None, None]
        self.starts = lexed.starts
        self.ends = lexed.ends
        self.file = file
        self.i = 0
        self.errors: list[ParseError] = []
        self.stmt_depth = 0
        self.expr_depth = 0
        self.chain_depth = 0

    # ------------------------------------------------------------- utilities

    def _peek(self, ahead: int = 0) -> str:
        return self.lx[self.i + ahead]

    def _at_end(self) -> bool:
        return self.i >= self.n

    def _advance(self) -> str:
        lexeme = self.lx[self.i]
        self.i += 1
        return lexeme

    def _is(self, *lexemes: str, ahead: int = 0) -> bool:
        """A token's lexeme decides its kind, so a fixed token is tested by
        its lexeme alone."""
        return self.lx[self.i + ahead] in lexemes

    def _eat(self, *lexemes: str) -> str | None:
        """Consume the next token and return its lexeme when it is one of
        lexemes; None otherwise. No lexeme is empty, so the result is true
        exactly when a token was consumed."""
        lexeme = self.lx[self.i]
        if lexeme in lexemes:
            self.i += 1
            return lexeme
        return None

    def _expect(self, *lexemes: str) -> str:
        """Consume the next token, which must be one of lexemes."""
        lexeme = self.lx[self.i]
        if lexeme not in lexemes:
            raise _Fail()
        self.i += 1
        return lexeme

    def _check(self, kind: TokenKind, ahead: int = 0) -> bool:
        return self.kd[self.i + ahead] is kind

    def _match(self, kind: TokenKind) -> str | None:
        """Consume the next token and return its lexeme when it is of kind;
        None otherwise."""
        i = self.i
        if self.kd[i] is kind:
            self.i = i + 1
            return self.lx[i]
        return None

    def _here(self) -> tuple[int, int]:
        """Offsets of the next token; past the end, of the last token; with
        no tokens at all, of the whole text."""
        i = self.i
        if i < self.n:
            return self.starts[i], self.ends[i]
        if self.n:
            return self.starts[-1], self.ends[-1]
        return 0, len(self.file.text)

    def _offsets_from(self, start_idx: int) -> tuple[int, int]:
        """Offsets from token start_idx through the last consumed token;
        tokens are in source order, so the first starts it and the last
        ends it. Past the end, the offsets of `_here`."""
        i = self.i
        if start_idx < i <= self.n:
            return self.starts[start_idx], self.ends[i - 1]
        if start_idx >= self.n:
            return self._here()
        return (self.starts[start_idx],
                self.ends[max(start_idx, min(i, self.n) - 1)])

    def _at(self, start_idx: int) -> tuple[int, int, SourceFile]:
        """A node's leading fields: its offsets from token start_idx through
        the last consumed token, and the file."""
        i = self.i
        if start_idx < i <= self.n:
            return self.starts[start_idx], self.ends[i - 1], self.file
        return (*self._offsets_from(start_idx), self.file)

    def _span_from(self, start_idx: int) -> Span:
        return self.file.span_from_offsets(*self._offsets_from(start_idx))

    def _record(self, message: str, severity: str = "error",
                span: Span | None = None) -> None:
        span = span or self.file.span_from_offsets(*self._here())
        self.errors.append(ParseError(message, span, severity))

    def _damage(self, message: str, severity: str = "error") -> None:
        self._record(message, severity)
        raise _Damage()

    def _expect_punct(self, lexeme: str, what: str) -> None:
        if self._eat(lexeme) is None:
            self._damage(f"expected '{lexeme}' {what}")

    def _skip_to(self, stops, openers=_OPENERS, closers=_CLOSERS) -> None:
        """Consume tokens up to the first lexeme in stops outside brackets,
        which stays unconsumed. Only openers and closers count as brackets;
        a closer outside brackets that is no stop is consumed."""
        lx, i, n = self.lx, self.i, self.n
        depth = 0
        while i < n:
            lexeme = lx[i]
            if depth == 0 and lexeme in stops:
                break
            if lexeme in openers:
                depth += 1
            elif lexeme in closers and depth:
                depth -= 1
            i += 1
        self.i = i

    def _skip_group(self, open_: str, close: str) -> bool:
        """Consume an open_-opened region through its matching close; nothing
        when the next token is not open_. True when the close was found."""
        if not self._eat(open_):
            return False
        self._skip_to((close,), (open_,), (close,))
        return self._eat(close) is not None

    def _skip_to_semicolon(self) -> None:
        """Consume tokens through the next ';' outside brackets; stop before
        a '}' that would close the enclosing block. Unmatched ')' and ']'
        (recovery may start inside a broken group) are consumed."""
        self._skip_to((";", "}"))
        self._eat(";")

    def _raw_text(self, start_idx: int) -> str:
        a, b = self._offsets_from(start_idx)
        return self.file.text[a:b]

    # ------------------------------------------------------------- top level

    def parse_unit(self) -> SourceUnit:
        pragmas: list[Directive] = []
        contracts: list[ContractDef] = []
        while not self._at_end():
            if self._is("pragma", "import"):
                start = self.i
                kind = self._peek()
                if not self._skip_directive():
                    self._record(f"expected ';' after {kind} directive",
                                 span=self._span_from(start))
                pragmas.append(Directive(*self._at(start), kind,
                                         self._raw_text(start)))
                continue
            if self._is("contract", "interface", "library") or (
                    self._is("abstract") and self._is("contract", ahead=1)):
                contract = self._parse_contract()
                if contract is not None:
                    contracts.append(contract)
                continue
            self._record("unexpected token at file level")
            self._skip_top_level()
        return SourceUnit(0, len(self.file.text), self.file, pragmas,
                          contracts, self.errors)

    def _skip_directive(self) -> bool:
        """Consume a pragma or import through its ';'. No directive holds a
        keyword, so one without a ';' ends before the next keyword or at end
        of input; False then."""
        self._advance()  # 'pragma' or 'import'
        while not self._at_end() and not self._check(TokenKind.KEYWORD):
            if self._eat(";"):
                return True
            self._advance()
        return False

    def _skip_top_level(self) -> None:
        """Consume the next token, or the braced group it opens, then on to
        the next file-level keyword outside braces."""
        if not self._skip_group("{", "}") and not self._at_end():
            self._advance()
        self._skip_to(_FILE_LEVEL, ("{",), ("}",))

    def _parse_contract(self) -> ContractDef | None:
        start = self.i
        if self._eat("abstract"):
            kind = ContractKind.ABSTRACT
            self._advance()  # 'contract'
        else:
            word = self._advance()
            kind = {"contract": ContractKind.CONTRACT,
                    "interface": ContractKind.INTERFACE,
                    "library": ContractKind.LIBRARY}[word]
        name = self._match(TokenKind.IDENTIFIER)
        if name is None:
            self._record("expected contract name")
            self._skip_top_level()
            return None
        bases: list[str] = []
        if self._eat("is"):
            while True:
                path = self._match(TokenKind.IDENTIFIER)
                if path is None:
                    break
                while self._eat("."):
                    part = self._match(TokenKind.IDENTIFIER)
                    if part is None:
                        break
                    path += "." + part
                self._skip_group("(", ")")
                bases.append(path)
                if not self._eat(","):
                    break
        contract = ContractDef(*self._at(start), name, kind, bases, [], [],
                               [])
        if self._eat("{") is None:
            self._record("expected '{' to open contract body")
            self._skip_top_level()
        else:
            while not self._at_end() and not self._is("}"):
                self._parse_member(contract)
            self._eat("}")
        contract.start, contract.end = self._offsets_from(start)
        return contract

    # ---------------------------------------------------------------- members

    def _parse_member(self, contract: ContractDef) -> None:
        start = self.i
        if self._is("event"):
            event = self._parse_event()
            if event is not None:
                contract.events.append(event)
            return
        if self._is("function", "constructor", "fallback", "receive",
                    "modifier"):
            fn = self._parse_function_like()
            if fn is not None:
                contract.functions.append(fn)
            return
        if self._is("struct", "enum"):
            self._advance()
            self._match(TokenKind.IDENTIFIER)
            self._skip_group("{", "}")
            return
        # Using directives, custom errors and user-defined value types:
        # skipped silently, they cannot contain statements.
        if self._is("using") or self._check(TokenKind.IDENTIFIER, 1) and (
                self._is("error") and self._is("(", ahead=2)
                or self._is("type") and self._is("is", ahead=2)):
            self._skip_to_semicolon()
            return
        var = self._try_state_var()
        if var is not None:
            contract.state_vars.append(var)
            return
        self._record("unsupported contract member skipped", "warning")
        before = self.i
        self._skip_to_semicolon()
        if self.i == before:
            self._advance()  # guarantee progress ('}' of contract stays put)

    def _try_state_var(self) -> StateVarDecl | None:
        mark = self.i
        try:
            type_name = self._parse_type_name()
            visibility = ""
            is_constant = is_immutable = False
            while True:
                if word := self._eat(*_VISIBILITY):
                    visibility = word
                elif self._eat("constant"):
                    is_constant = True
                elif self._eat("immutable"):
                    is_immutable = True
                elif self._eat("override"):
                    self._skip_group("(", ")")
                else:
                    break
            name = self._match(TokenKind.IDENTIFIER)
            if name is None:
                raise _Fail()
            init: Expr | None = None
            if self._eat("="):
                expr_mark = self.i
                try:
                    init = self._parse_expression()
                except _Fail:
                    # An unsupported initializer ends where an argument does.
                    self.i = expr_mark
                    self._skip_call_arg()
            if self._eat(";") is None:
                self._record("expected ';' after state variable declaration")
                self._skip_to_semicolon()
            return StateVarDecl(*self._at(mark), name, type_name,
                                visibility, is_constant, is_immutable, init)
        except _Fail:
            self.i = mark
            return None

    def _parse_event(self) -> EventDef | None:
        start = self.i
        self._advance()  # 'event'
        name = self._match(TokenKind.IDENTIFIER)
        if name is None:
            self._record("expected event name")
            self._skip_to_semicolon()
            return None
        params: list[EventParam] = []
        if self._eat("("):
            params = self._param_list("event parameter", "event declaration",
                                      self._event_param)
        # A log holds 4 topics; all but an anonymous event's take the first
        # for the signature.
        topics = 4 if self._eat("anonymous") else 3
        if self._eat(";") is None:
            self._record("expected ';' after event declaration")
            self._skip_to_semicolon()
        event = EventDef(*self._at(start), name, params)
        indexed_count = sum(param.indexed for param in params)
        if indexed_count > topics:
            self._record(
                f"event {event.name} declares {indexed_count} indexed "
                f"parameters; the log format supports at most {topics} "
                "topics", "warning", event.span)
        return event

    def _parse_function_like(self) -> FunctionDef | None:
        start = self.i
        kind = self._advance()
        name = ""
        if kind in ("function", "modifier"):
            name = self._match(TokenKind.IDENTIFIER) or ""
            if not name and kind == "modifier":
                self._record("expected modifier name")
            # 'function ()' is the legacy unnamed fallback: keep name empty.
        params: list[Param] = []
        returns_params: list[Param] = []
        if self._eat("("):
            params = self._param_list("parameter", "parameter list",
                                      self._param)
        visibility = ""
        mutability = ""
        while not self._at_end() and not self._is("{", ";", "}"):
            if word := self._eat(*_VISIBILITY):
                visibility = word
            elif word := self._eat(*_MUTABILITY):
                mutability = word
            elif self._eat("override"):
                self._skip_group("(", ")")
            elif self._eat("returns"):
                if self._eat("("):
                    returns_params = self._param_list(
                        "parameter", "parameter list", self._param)
            elif self._match(TokenKind.IDENTIFIER):
                # Modifier invocation, possibly dotted, possibly with args.
                while self._eat("."):
                    self._match(TokenKind.IDENTIFIER)
                self._skip_group("(", ")")
            else:
                self._advance()  # 'virtual' and unknown header tokens
        body: Block | None = None
        if self._is("{"):
            body = self._parse_block()
        elif not self._eat(";"):
            self._record("expected function body or ';'")
        return FunctionDef(*self._at(start), name, kind, params,
                           returns_params, visibility, mutability, body)

    def _param_list(self, what: str, where: str,
                    param: Callable[[int, str], Node]) -> list:
        """The parameters after an '(', through its ')'. Each type is read
        here and the rest by param(start, type_name); a parameter whose type
        does not parse is skipped with a warning."""
        params = []
        while not self._is(")") and not self._at_end():
            start = self.i
            try:
                type_name = self._parse_type_name()
            except _Fail:
                self._record(f"unsupported {what} type", "warning")
                self._skip_to((",", ")"), ("(",), (")",))
            else:
                params.append(param(start, type_name))
            if not self._eat(","):
                break
        if self._eat(")") is None:
            self._record(f"expected ')' in {where}")
        return params

    def _param(self, start: int, type_name: str) -> Param:
        location = self._location()
        self._eat("indexed")  # tolerated if misplaced
        name = self._match(TokenKind.IDENTIFIER) or ""
        return Param(*self._at(start), name, type_name, location)

    def _event_param(self, start: int, type_name: str) -> EventParam:
        indexed = self._eat("indexed") is not None
        name = self._match(TokenKind.IDENTIFIER)
        return EventParam(*self._at(start), name, type_name, indexed)

    def _location(self) -> DataLocation:
        word = self._eat("memory", "storage", "calldata")
        return DataLocation(word) if word else DataLocation.DEFAULT

    def _parse_type_name(self) -> str:
        i = self.i
        word = self.lx[i]
        if word == "mapping":
            self.i = i + 1
            self._expect("(")
            # The key and the value are each one link; both are entered at
            # the same depth, so one test covers them.
            if self.chain_depth >= _MAX_CHAIN_DEPTH:
                raise _Fail()
            self.chain_depth += 1
            try:
                key = self._parse_type_name()
                self._expect("=>")
                value = self._parse_type_name()
            finally:
                self.chain_depth -= 1
            self._expect(")")
            base = f"mapping({key} => {value})"
        elif self.kd[i] is _KEYWORD and word not in KEYWORDS:
            self.i = i + 1
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

    def _dotted_name(self) -> str | None:
        """An identifier and the identifiers '.' joins to it; None when the
        next token is no identifier."""
        name = self._match(TokenKind.IDENTIFIER)
        if name is None:
            return None
        while self._is(".") and self._check(TokenKind.IDENTIFIER, 1):
            self._advance()
            name += "." + self._advance()
        return name

    # ------------------------------------------------------------- statements

    def _parse_block(self) -> Block:
        start = self.i
        self._advance()  # '{'
        stmts: list[Stmt] = []
        lx, n = self.lx, self.n
        while self.i < n and lx[self.i] != "}":
            stmts.append(self._parse_stmt())
        if self._eat("}") is None:
            self._record("expected '}' to close block")
        return Block(*self._at(start), stmts)

    def _parse_stmt(self) -> Stmt:
        """A statement; nested too deep or damaged, the region it covers
        survives as Unparsed."""
        start = self.i
        recorded = len(self.errors)
        self.stmt_depth += 1
        try:
            if self.stmt_depth > _MAX_STMT_DEPTH:
                self._damage("statement nesting too deep; region skipped")
            if start >= self.n:
                self._damage("unexpected end of input in block")
            word = self.lx[start]
            if word == "{":
                return self._parse_block()
            if word == "if":
                return self._parse_if()
            if word == "while":
                return self._parse_while()
            if word == "for":
                return self._parse_for()
            if word == "emit":
                return self._parse_emit()
            if word == "return":
                self._advance()
                expr = None
                if not self._is(";"):
                    try:
                        expr = self._parse_expression()
                    except _Fail:
                        # Tuple returns and other unsupported shapes.
                        self._skip_to_semicolon()
                        return self._unparsed(
                            start, "unsupported return expression skipped")
                self._expect_punct(";", "after return statement")
                return Return(*self._at(start), expr)
            if word == "unchecked":
                self._advance()
                if self._is("{"):
                    return self._parse_block()
                self._damage("expected '{' after unchecked")
            if word == "assembly":
                self._advance()
                self._match(TokenKind.STRING)
                self._skip_group("(", ")")
                self._skip_group("{", "}")
                return self._unparsed(start, "inline assembly block skipped")
            if word == "try":
                self._skip_try()
                return self._unparsed(start, "try/catch statement skipped")
            if word == "do":
                self._advance()
                self._skip_group("{", "}")
                self._skip_to_semicolon()
                return self._unparsed(start, "do/while statement skipped")
            if word in ("break", "continue"):
                self._advance()
                self._eat(";")
                # Fully understood and cannot contain an emit: no report.
                return self._unparsed(start)
            if word == "delete":
                self._skip_to_semicolon()
                return self._unparsed(start)
            decl = self._try_local_decl()
            if decl is not None:
                return decl
            if word == "revert" and self._check(TokenKind.IDENTIFIER, 1):
                # revert CustomError(args);
                self._advance()
                inner = self._expr_or_damage("unsupported revert statement")
                self._expect_punct(";", "after revert statement")
                at = self._at(start)
                callee = Identifier(self.starts[start], self.ends[start],
                                    self.file, "revert")
                return ExprStmt(*at, Call(*at, callee, [inner]))
            try:
                expr = self._parse_expression()
            except _Fail:
                if word != "(":
                    self._damage("unsupported or malformed statement")
                # Tuple assignments and other parenthesized heads.
                self.i = start
                self._skip_to_semicolon()
                return self._unparsed(start, "tuple statement skipped")
            self._expect_punct(";", "after expression statement")
            return ExprStmt(*self._at(start), expr)
        except _Damage:
            # The warnings recorded since the statement began are about text
            # that is now Unparsed; the damage's own record is the last one.
            *inner, damage = self.errors[recorded:]
            self.errors[recorded:] = [
                *(e for e in inner if e.severity != "warning"), damage]
        finally:
            self.stmt_depth -= 1
        self._skip_damage()
        if self.i == start and not self._at_end():
            self._advance()  # guarantee progress
        return self._unparsed(start)

    def _skip_damage(self) -> None:
        """A '{' through the first closer outside brackets, so a stray '{'
        cannot run on past the enclosing '}'; else `_skip_to_semicolon`."""
        if self._eat("{"):
            self._skip_to(_CLOSERS)
            self._eat(*_CLOSERS)
        else:
            self._skip_to_semicolon()

    def _unparsed(self, start: int, warning: str | None = None) -> Unparsed:
        """The tokens from start on as text, warning recorded over them."""
        if warning is not None:
            self._record(warning, "warning", self._span_from(start))
        return Unparsed(*self._at(start), self._raw_text(start))

    def _expr_or_damage(self, message: str) -> Expr:
        try:
            return self._parse_expression()
        except _Fail:
            self._damage(message)

    def _skip_try(self) -> None:
        """The try clause, then each catch clause: head and braced body."""
        while True:
            self._skip_to(("{",), (), ())
            self._skip_group("{", "}")
            if not self._is("catch"):
                return

    def _condition(self) -> Expr:
        """The keyword of an if or while and its parenthesized condition."""
        word = self._advance()
        self._expect_punct("(", f"after {word}")
        cond = self._expr_or_damage(f"unsupported {word} condition")
        self._expect_punct(")", f"after {word} condition")
        return cond

    def _parse_if(self) -> Stmt:
        start = self.i
        cond = self._condition()
        then = self._parse_stmt()
        otherwise = self._parse_stmt() if self._eat("else") else None
        return If(*self._at(start), cond, then, otherwise)

    def _parse_while(self) -> Stmt:
        start = self.i
        cond = self._condition()
        body = self._parse_stmt()  # before _at, which reads the last token
        return While(*self._at(start), cond, body)

    def _parse_for(self) -> Stmt:
        start = self.i
        self._advance()
        self._expect_punct("(", "after for")
        init: Stmt | None = None
        if self._eat(";") is None:
            init = self._try_local_decl()
            if init is None:
                estart = self.i
                expr = self._expr_or_damage("unsupported for-loop initializer")
                self._expect_punct(";", "after for-loop initializer")
                init = ExprStmt(*self._at(estart), expr)
        cond = None
        if self._eat(";") is None:
            cond = self._expr_or_damage("unsupported for-loop condition")
            self._expect_punct(";", "after for-loop condition")
        post = None if self._is(")") else \
            self._expr_or_damage("unsupported for-loop update")
        self._expect_punct(")", "after for-loop header")
        body = self._parse_stmt()
        return For(*self._at(start), init, cond, post, body)

    def _parse_emit(self) -> Stmt:
        start = self.i
        self._advance()  # 'emit'
        name = self._dotted_name()
        if name is None:
            self._damage("expected event name after emit")
        self._expect_punct("(", "after event name")
        args: list[Expr] = []
        if not self._is(")"):
            while True:
                try:
                    args.append(self._parse_expression())
                except _Fail:
                    self._damage("unsupported expression in emit arguments",
                                 "warning")
                if not self._eat(","):
                    break
        self._expect_punct(")", "after emit arguments")
        self._expect_punct(";", "after emit statement")
        return EmitStmt(*self._at(start), name, args)

    def _try_local_decl(self) -> LocalVarDecl | None:
        mark = self.i
        kd = self.kd
        if kd[mark] is _IDENTIFIER and kd[mark + 1] is not _IDENTIFIER \
                and self.lx[mark + 1] not in _DECL_SECOND:
            return None
        try:
            type_name = self._parse_type_name()
            location = self._location()
            name = self._match(TokenKind.IDENTIFIER)
            if name is None or not self._is(";", "="):
                raise _Fail()
        except _Fail:
            self.i = mark
            return None
        # Committed: from here on failures are damage, not backtracking.
        init: Expr | None = None
        if self._eat("="):
            init = self._expr_or_damage("unsupported initializer expression")
        self._expect_punct(";", "after variable declaration")
        return LocalVarDecl(*self._at(mark), name, type_name,
                            location, init)

    # ------------------------------------------------------------ expressions

    def _parse_expression(self, level: int = _ASSIGNMENT,
                          link: bool = False) -> Expr:
        """Prefix operators, or one operand and its postfix operators; then
        the binary operators that bind at level or tighter, '**' to the
        right; then, below the binary levels, '?:' and an assignment. A call
        with link is one chain link, any other one nested expression."""
        chain, nested = self.chain_depth, self.expr_depth
        if link:
            if chain >= _MAX_CHAIN_DEPTH:
                raise _Fail()
            self.chain_depth = chain + 1
        else:
            if nested >= _MAX_EXPR_DEPTH:
                raise _Fail()
            self.expr_depth = nested + 1
        try:
            start = i = self.i
            lx = self.lx
            word = lx[i]
            if word in _UNARY_OPS:
                self.i = i + 1
                operand = self._parse_expression(_PREFIX, True)
                expr = Unary(*self._at(start), word, operand)
            else:
                kind = self.kd[i]
                if kind is _IDENTIFIER:
                    self.i = i + 1
                    expr = Identifier(self.starts[i], self.ends[i], self.file,
                                      word)
                elif kind is _NUMBER:
                    self.i = i + 1
                    literal = LiteralKind.NUMBER
                    if len(word) == _HEX_ADDRESS_LEN \
                            and word.lower().startswith("0x"):
                        literal = LiteralKind.HEX_ADDRESS
                    expr = Literal(self.starts[i], self.ends[i], self.file,
                                   literal, word)
                else:
                    expr = self._parse_primary()
                while (word := lx[self.i]) in _POSTFIX_STARTS:
                    if word == ".":
                        if self.kd[self.i + 1] not in (_IDENTIFIER, _KEYWORD):
                            break
                        self.i += 2
                        expr = MemberAccess(*self._at(start), expr,
                                            lx[self.i - 1])
                    elif word == "[":
                        self.i += 1
                        index = None
                        if not self._is("]"):
                            index = self._parse_expression()
                        self._expect("]")
                        expr = IndexAccess(*self._at(start), expr, index)
                    elif word in ("++", "--"):
                        self.i += 1
                        expr = Unary(*self._at(start), word, expr)
                    else:  # '(' or '{'
                        options = [] if word == "(" else \
                            self._try_call_options()
                        if options is None:
                            break
                        self._expect("(")
                        args = options + self._parse_call_args()
                        expr = Call(*self._at(start), expr, args)
            while (prec := _BINARY_PREC.get(op := lx[self.i])) is not None \
                    and prec >= level:
                self.i += 1
                rhs = self._parse_expression(
                    prec if op == "**" else prec + 1, True)
                expr = Binary(*self._at(start), op, expr, rhs)
            if level > _CONDITIONAL:
                return expr
            if lx[self.i] == "?":
                self.i += 1
                then = self._parse_expression()
                self._expect(":")
                otherwise = self._parse_expression(_CONDITIONAL, True)
                expr = Conditional(*self._at(start), expr, then, otherwise)
            if level == _ASSIGNMENT and (op := lx[self.i]) in ASSIGN_OPS:
                self.i += 1
                rhs = self._parse_expression(_ASSIGNMENT, True)
                expr = Assignment(*self._at(start), expr, rhs, op)
            return expr
        finally:
            self.chain_depth = chain
            self.expr_depth = nested

    def _parse_call_args(self) -> list[Expr]:
        args: list[Expr] = []
        if not self._is(")"):
            while True:
                mark = self.i
                try:
                    args.append(self._parse_expression())
                except _Fail:
                    # Struct literals and other unsupported argument shapes
                    # survive as opaque placeholders; the call structure (and
                    # with it emit counting) stays intact.
                    self.i = mark
                    raw = self._skip_call_arg()
                    if self.i == mark:
                        raise
                    self._record("unsupported call argument kept as opaque "
                                 "text", "warning",
                                 self._span_from(mark))
                    args.append(Identifier(*self._at(mark),
                                           "<" + raw + ">"))
                if not self._eat(","):
                    break
        self._expect(")")
        return args

    def _skip_call_arg(self) -> str:
        start = self.i
        self._skip_to(_ARG_ENDS)
        return self._raw_text(start) if self.i > start else ""

    def _try_call_options(self) -> list[Expr] | None:
        """Parse '{name: expr, ...}' call options; None if the brace does not
        open that shape. Option values are folded into the argument list;
        damaged options before a '(' are skipped with a warning, no options."""
        if not (self._is("{")
                and self._check(TokenKind.IDENTIFIER, 1)
                and self._is(":", ahead=2)):
            return None
        start = self.i
        self._advance()  # '{'
        options: list[Expr] = []
        try:
            while True:
                if self._match(TokenKind.IDENTIFIER) is None:
                    raise _Fail()
                self._expect(":")
                options.append(self._parse_expression())
                if not self._eat(","):
                    break
            self._expect("}")
        except _Fail:
            failed, self.i = self.i, start
            if not (self._skip_group("{", "}") and self._is("(")):
                self.i = failed
                raise
            self._record("damaged call options skipped", "warning",
                         self._span_from(start))
            return []
        return options

    def _parse_primary(self) -> Expr:
        i = self.i
        kind, text = self.kd[i], self.lx[i]
        if text == "payable" or kind is _KEYWORD and text not in KEYWORDS:
            # A type cast callee: address(x), uint(x), payable(x), ...
            self.i = i + 1
            return Identifier(self.starts[i], self.ends[i], self.file, text)
        if kind is TokenKind.STRING:
            literal = LiteralKind.STRING
        elif text in ("true", "false"):
            literal = LiteralKind.BOOL
        elif text == "new":
            self._advance()
            type_name = self._parse_type_name()
            # Synthetic callee name; the space keeps it from colliding with
            # any real identifier during resolution.
            return Identifier(*self._at(i), "new " + type_name)
        elif text == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect(")")  # tuple or damaged grouping
            return expr
        else:
            raise _Fail()
        self.i = i + 1
        return Literal(self.starts[i], self.ends[i], self.file, literal, text)


def parse(tokens: list[Token], file: SourceFile) -> SourceUnit:
    """Parse the token list `lex(file).tokens` of the same file. The parser
    reads columns, so they are built from the list first."""
    return _parse(LexResult([tok.kind for tok in tokens],
                            [tok.lexeme for tok in tokens],
                            [tok.start for tok in tokens],
                            [tok.end for tok in tokens], [], []), file)


def _parse(lexed: LexResult, file: SourceFile) -> SourceUnit:
    parser = Parser(lexed, file)
    try:
        return parser.parse_unit()
    except RecursionError:
        # Statement, expression and chain nesting each stay within their own
        # limit, yet together they can exhaust the interpreter stack. The
        # whole file is then damage, so the analyses fall back as on any
        # fatal parse error.
        parser._record("nesting too deep to parse; file skipped")
        return SourceUnit(0, len(file.text), file, [], [], parser.errors)


def parse_file(file: SourceFile,
               lexed: LexResult | None = None) -> SourceUnit:
    """Lex (unless lexed, from this file, is given) and parse, folding lex
    errors into the unit's error list."""
    lexed = lexed or lex(file)
    unit = _parse(lexed, file)
    unit.parse_errors[:0] = [ParseError(err.kind, err.span, "error")
                             for err in lexed.errors]
    return unit


def has_fatal_errors(unit: SourceUnit) -> bool:
    return any(err.severity == "error" for err in unit.parse_errors)
