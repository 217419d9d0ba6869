"""Recursive-descent parser with panic-mode recovery.

The grammar covers what the checks need: contract scaffolding, state
variables, events, functions and modifiers, and the statement and expression
forms that carry emits and assignments. Recognized-but-unsupported constructs
(inline assembly, try/catch, tuples, ...) are preserved as Unparsed statements
and recorded as warnings; genuine syntax damage is recorded as an error and
skipped to the next ';' or balancing brace, so a malformed file still yields
whatever parses around the damage.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from .lexer import (
    ASSIGN_OPS, LexResult, Token, TokenKind, is_elementary_type, lex,
)
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
_UNARY_OPS = frozenset({"!", "~", "-", "+", "++", "--"})
_OPENERS = frozenset({"(", "[", "{"})
_CLOSERS = frozenset({")", "]", "}"})

_HEX_ADDRESS_LEN = 42  # 0x + 40 hex digits

# Adversarial nesting must not exhaust the interpreter stack; beyond these
# depths the region is skipped as damage instead. Links of right-recursive
# chains (assignments, conditional else-branches, binary right operands,
# prefix operators, nested mapping types) are counted apart from nested
# expressions, so bounding them leaves the nesting limit where it was.
_MAX_STMT_DEPTH = 120
_MAX_EXPR_DEPTH = 80
_MAX_CHAIN_DEPTH = 100


class _Fail(Exception):
    """Backtracking probe failed; nothing was recorded."""


class _Damage(Exception):
    """Committed parse failed; an error was already recorded."""


# Past the real tokens the parser reads end tokens, which match no lexeme
# and no kind; lookahead reaches at most two tokens past the next one.
_END = Token(None, "", 0, 0)


class Parser:
    def __init__(self, tokens: list[Token], file: SourceFile):
        self.n = len(tokens)
        self.toks = [*tokens, _END, _END, _END]
        self.file = file
        self.i = 0
        self.errors: list[ParseError] = []
        self.stmt_depth = 0
        self.expr_depth = 0
        self.chain_depth = 0

    # ------------------------------------------------------------- utilities

    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def _at_end(self) -> bool:
        return self.i >= self.n

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _is(self, *lexemes: str, ahead: int = 0) -> bool:
        """A token's lexeme decides its kind, so a fixed token is tested by
        its lexeme alone."""
        return self.toks[self.i + ahead].lexeme in lexemes

    def _eat(self, *lexemes: str) -> Token | None:
        return self._advance() if self._is(*lexemes) else None

    def _expect(self, *lexemes: str) -> Token:
        """Consume the next token, which must be one of lexemes."""
        tok = self._eat(*lexemes)
        if tok is None:
            raise _Fail()
        return tok

    def _check(self, kind: TokenKind, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead].kind == kind

    def _match(self, kind: TokenKind) -> Token | None:
        return self._advance() if self._check(kind) else None

    def _here(self) -> tuple[int, int]:
        """Offsets of the next token; past the end, of the last token; with
        no tokens at all, of the whole text."""
        if not self._at_end():
            tok = self.toks[self.i]
        elif self.n:
            tok = self.toks[self.n - 1]
        else:
            return 0, len(self.file.text)
        return tok.start, tok.end

    def _offsets_from(self, start_idx: int) -> tuple[int, int]:
        """Offsets from token start_idx through the last consumed token;
        tokens are in source order, so the first starts it and the last
        ends it. Past the end, the offsets of `_here`."""
        if start_idx >= self.n:
            return self._here()
        last = self.toks[max(start_idx, min(self.i, self.n) - 1)]
        return self.toks[start_idx].start, last.end

    def _at(self, start_idx: int) -> tuple[int, int, SourceFile]:
        """A node's leading fields: its offsets from token start_idx through
        the last consumed token, and the file."""
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

    def _expect_punct(self, lexeme: str, what: str) -> Token:
        tok = self._eat(lexeme)
        if tok is None:
            self._damage(f"expected '{lexeme}' {what}")
        return tok

    def _skip_group(self, open_: str, close: str) -> bool:
        """Consume an open_-opened region through its matching close; nothing
        when the next token is not open_. True when the close was found."""
        if not self._is(open_):
            return False
        depth = 0
        while not self._at_end():
            lexeme = self._advance().lexeme
            if lexeme == open_:
                depth += 1
            elif lexeme == close:
                depth -= 1
                if depth == 0:
                    return True
        return False

    def _skip_to_semicolon(self) -> None:
        """Consume tokens through the next ';' at bracket depth zero; stop
        before a '}' that would close the enclosing block. Unmatched ')' and
        ']' (recovery may start inside a broken group) are consumed."""
        depth = 0
        while not self._at_end():
            lexeme = self._peek().lexeme
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
                kind = self._peek().lexeme
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
        depth = 0
        progressed = False
        while not self._at_end():
            if depth == 0 and progressed and self._is(
                    "pragma", "import", "contract", "interface", "library",
                    "abstract"):
                return
            lexeme = self._advance().lexeme
            if lexeme == "{":
                depth += 1
            elif lexeme == "}":
                depth = max(0, depth - 1)
            progressed = True

    def _parse_contract(self) -> ContractDef | None:
        start = self.i
        if self._eat("abstract"):
            kind = ContractKind.ABSTRACT
            self._advance()  # 'contract'
        else:
            word = self._advance().lexeme
            kind = {"contract": ContractKind.CONTRACT,
                    "interface": ContractKind.INTERFACE,
                    "library": ContractKind.LIBRARY}[word]
        name_tok = self._match(TokenKind.IDENTIFIER)
        if name_tok is None:
            self._record("expected contract name")
            self._skip_top_level()
            return None
        bases: list[str] = []
        if self._eat("is"):
            while True:
                base = self._match(TokenKind.IDENTIFIER)
                if base is None:
                    break
                path = base.lexeme
                while self._eat("."):
                    part = self._match(TokenKind.IDENTIFIER)
                    if part is None:
                        break
                    path += "." + part.lexeme
                self._skip_group("(", ")")
                bases.append(path)
                if not self._eat(","):
                    break
        contract = ContractDef(*self._at(start), name_tok.lexeme, kind, bases,
                               [], [], [])
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
                if tok := self._eat(*_VISIBILITY):
                    visibility = tok.lexeme
                elif self._eat("constant"):
                    is_constant = True
                elif self._eat("immutable"):
                    is_immutable = True
                elif self._eat("override"):
                    self._skip_group("(", ")")
                else:
                    break
            name_tok = self._match(TokenKind.IDENTIFIER)
            if name_tok is None:
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
            return StateVarDecl(*self._at(mark), name_tok.lexeme, type_name,
                                visibility, is_constant, is_immutable, init)
        except _Fail:
            self.i = mark
            return None

    def _parse_event(self) -> EventDef | None:
        start = self.i
        self._advance()  # 'event'
        name_tok = self._match(TokenKind.IDENTIFIER)
        if name_tok is None:
            self._record("expected event name")
            self._skip_to_semicolon()
            return None
        params: list[EventParam] = []
        if self._eat("("):
            params = self._param_list("event parameter", "event declaration",
                                      self._event_param)
        self._eat("anonymous")
        if self._eat(";") is None:
            self._record("expected ';' after event declaration")
            self._skip_to_semicolon()
        event = EventDef(*self._at(start), name_tok.lexeme, params)
        indexed_count = sum(param.indexed for param in params)
        if indexed_count > 3:
            self._record(
                f"event {event.name} declares {indexed_count} indexed "
                "parameters; the log format supports at most 3 topics",
                "warning", event.span)
        return event

    def _skip_param(self) -> None:
        depth = 0
        while not self._at_end():
            lexeme = self._peek().lexeme
            if lexeme == "(":
                depth += 1
            elif lexeme == ")":
                if depth == 0:
                    return
                depth -= 1
            elif lexeme == "," and depth == 0:
                return
            self._advance()

    def _parse_function_like(self) -> FunctionDef | None:
        start = self.i
        kind = self._advance().lexeme
        name = ""
        if kind in ("function", "modifier"):
            name_tok = self._match(TokenKind.IDENTIFIER)
            if name_tok is not None:
                name = name_tok.lexeme
            elif kind == "modifier":
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
            if tok := self._eat(*_VISIBILITY):
                visibility = tok.lexeme
            elif tok := self._eat(*_MUTABILITY):
                mutability = tok.lexeme
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
                self._skip_param()
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
        pname = self._match(TokenKind.IDENTIFIER)
        return Param(*self._at(start), pname.lexeme if pname else "",
                     type_name, location)

    def _event_param(self, start: int, type_name: str) -> EventParam:
        indexed = self._eat("indexed") is not None
        pname = self._match(TokenKind.IDENTIFIER)
        return EventParam(*self._at(start), pname.lexeme if pname else None,
                          type_name, indexed)

    def _location(self) -> DataLocation:
        tok = self._eat("memory", "storage", "calldata")
        return DataLocation(tok.lexeme) if tok else DataLocation.DEFAULT

    def _parse_type_name(self) -> str:
        tok = self._peek()
        if tok.lexeme == "mapping":
            self._advance()
            self._expect("(")
            with self._chain_link():
                key = self._parse_type_name()
            self._expect("=>")
            with self._chain_link():
                value = self._parse_type_name()
            self._expect(")")
            base = f"mapping({key} => {value})"
        elif is_elementary_type(tok.lexeme):
            self._advance()
            base = tok.lexeme
            if base == "address" and self._eat("payable"):
                base = "address payable"
        elif (base := self._dotted_name()) is None:
            raise _Fail()
        while self._is("["):
            start = self.i
            if not self._skip_group("[", "]"):
                raise _Fail()
            base += "".join(t.lexeme for t in self.toks[start:self.i])
        return base

    def _dotted_name(self) -> str | None:
        """An identifier and the identifiers '.' joins to it; None when the
        next token is no identifier."""
        tok = self._match(TokenKind.IDENTIFIER)
        if tok is None:
            return None
        name = tok.lexeme
        while self._is(".") and self._check(TokenKind.IDENTIFIER, 1):
            self._advance()
            name += "." + self._advance().lexeme
        return name

    # ------------------------------------------------------------- statements

    def _parse_block(self) -> Block:
        start = self.i
        self._advance()  # '{'
        stmts: list[Stmt] = []
        while not self._at_end() and not self._is("}"):
            stmts.append(self._parse_stmt())
        if self._eat("}") is None:
            self._record("expected '}' to close block")
        return Block(*self._at(start), stmts)

    def _parse_stmt(self) -> Stmt:
        """A statement; nested too deep or damaged, the region it covers
        survives as Unparsed."""
        start = self.i
        if self.stmt_depth < _MAX_STMT_DEPTH:
            self.stmt_depth += 1
            try:
                return self._parse_stmt_inner()
            except _Damage:
                pass
            finally:
                self.stmt_depth -= 1
        else:
            self._record("statement nesting too deep; region skipped")
        if not self._skip_group("{", "}"):
            self._skip_to_semicolon()
        if self.i == start and not self._at_end():
            self._advance()  # guarantee progress
        return Unparsed(*self._at(start), self._raw_text(start))

    def _unparsed_stmt(self, start: int, message: str,
                       severity: str = "warning") -> Unparsed:
        self._record(message, severity, self._span_from(start))
        return Unparsed(*self._at(start), self._raw_text(start))

    def _parse_stmt_inner(self) -> Stmt:
        start = self.i
        if self._at_end():
            self._damage("unexpected end of input in block")
        word = self._peek().lexeme
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
                    return self._unparsed_stmt(
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
            return self._unparsed_stmt(start, "inline assembly block skipped")
        if word == "try":
            self._skip_try()
            return self._unparsed_stmt(start, "try/catch statement skipped")
        if word == "do":
            self._advance()
            self._skip_group("{", "}")
            self._skip_to_semicolon()
            return self._unparsed_stmt(start, "do/while statement skipped")
        if word in ("break", "continue"):
            self._advance()
            self._eat(";")
            # Fully understood and cannot contain an emit: no report.
            return Unparsed(*self._at(start), self._raw_text(start))
        if word == "delete":
            self._skip_to_semicolon()
            return Unparsed(*self._at(start), self._raw_text(start))
        if word == "(":
            # Tuple assignments and parenthesized heads.
            try:
                expr = self._parse_expression()
            except _Fail:
                self.i = start
                self._skip_to_semicolon()
                return self._unparsed_stmt(start, "tuple statement skipped")
            self._expect_punct(";", "after expression statement")
            return ExprStmt(*self._at(start), expr)
        decl = self._try_local_decl()
        if decl is not None:
            return decl
        if self._is("revert") and self._check(TokenKind.IDENTIFIER, 1):
            # revert CustomError(args);
            rtok = self._advance()
            inner = self._expr_or_damage("unsupported revert statement")
            self._expect_punct(";", "after revert statement")
            at = self._at(start)
            callee = Identifier(rtok.start, rtok.end, self.file, rtok.lexeme)
            return ExprStmt(*at, Call(*at, callee, [inner]))
        expr = self._expr_or_damage("unsupported or malformed statement")
        self._expect_punct(";", "after expression statement")
        return ExprStmt(*self._at(start), expr)

    def _expr_or_damage(self, message: str) -> Expr:
        try:
            return self._parse_expression()
        except _Fail:
            self._damage(message)

    def _skip_try(self) -> None:
        """The try clause, then each catch clause: head and braced body."""
        while True:
            while not self._at_end() and not self._is("{"):
                self._advance()
            self._skip_group("{", "}")
            if not self._is("catch"):
                return

    def _condition(self) -> Expr:
        """The keyword of an if or while and its parenthesized condition."""
        word = self._advance().lexeme
        self._expect_punct("(", f"after {word}")
        cond = self._expr_or_damage(f"unsupported {word} condition")
        self._expect_punct(")", f"after {word} condition")
        return cond

    def _parse_if(self) -> Stmt:
        start = self.i
        cond = self._condition()
        then = self._parse_stmt()
        otherwise = None
        if self._eat("else"):
            otherwise = self._parse_stmt()
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
        post = None
        if not self._is(")"):
            post = self._expr_or_damage("unsupported for-loop update")
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
        try:
            type_name = self._parse_type_name()
            location = self._location()
            name_tok = self._match(TokenKind.IDENTIFIER)
            if name_tok is None or not self._is(";", "="):
                raise _Fail()
        except _Fail:
            self.i = mark
            return None
        # Committed: from here on failures are damage, not backtracking.
        init: Expr | None = None
        if self._eat("="):
            init = self._expr_or_damage("unsupported initializer expression")
        self._expect_punct(";", "after variable declaration")
        return LocalVarDecl(*self._at(mark), name_tok.lexeme, type_name,
                            location, init)

    # ------------------------------------------------------------ expressions

    def _parse_expression(self) -> Expr:
        if self.expr_depth >= _MAX_EXPR_DEPTH:
            raise _Fail()
        self.expr_depth += 1
        try:
            return self._parse_assignment()
        finally:
            self.expr_depth -= 1

    @contextmanager
    def _chain_link(self):
        """One more link of a right-recursive chain. A context manager, not
        a wrapper call, so each link costs one interpreter frame."""
        if self.chain_depth >= _MAX_CHAIN_DEPTH:
            raise _Fail()
        self.chain_depth += 1
        try:
            yield
        finally:
            self.chain_depth -= 1

    def _parse_assignment(self) -> Expr:
        start = self.i
        lhs = self._parse_conditional()
        tok = self._peek()
        if tok.lexeme in ASSIGN_OPS:
            self._advance()
            with self._chain_link():
                rhs = self._parse_assignment()
            return Assignment(*self._at(start), lhs, rhs, tok.lexeme)
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
            tok = self._peek()
            prec = _BINARY_PREC.get(tok.lexeme)
            if prec is None or prec < min_prec:
                return lhs
            self._advance()
            # '**' binds right; everything else binds left.
            with self._chain_link():
                rhs = self._parse_binary(prec if tok.lexeme == "**"
                                         else prec + 1)
            lhs = Binary(*self._at(start), tok.lexeme, lhs, rhs)

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.lexeme in _UNARY_OPS:
            start = self.i
            self._advance()
            with self._chain_link():
                operand = self._parse_unary()
            return Unary(*self._at(start), tok.lexeme, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        start = self.i
        expr = self._parse_primary()
        while True:
            word = self._peek().lexeme
            if word == ".":
                member = self._peek(1)
                if member.kind not in (TokenKind.IDENTIFIER,
                                       TokenKind.KEYWORD):
                    return expr
                self._advance()
                self._advance()
                expr = MemberAccess(*self._at(start), expr, member.lexeme)
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
        depth = 0
        while not self._at_end():
            lexeme = self._peek().lexeme
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

    def _try_call_options(self) -> list[Expr] | None:
        """Parse '{name: expr, ...}' call options; None if the brace does not
        open that shape. Option values are folded into the argument list."""
        if not (self._is("{")
                and self._check(TokenKind.IDENTIFIER, 1)
                and self._is(":", ahead=2)):
            return None
        self._advance()  # '{'
        options: list[Expr] = []
        while True:
            if self._match(TokenKind.IDENTIFIER) is None:
                raise _Fail()
            self._expect(":")
            options.append(self._parse_expression())
            if not self._eat(","):
                break
        self._expect("}")
        return options

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == TokenKind.NUMBER:
            self._advance()
            text = tok.lexeme
            kind = LiteralKind.NUMBER
            if len(text) == _HEX_ADDRESS_LEN and text.lower().startswith("0x"):
                kind = LiteralKind.HEX_ADDRESS
            return Literal(tok.start, tok.end, self.file, kind, text)
        if tok.kind == TokenKind.STRING:
            self._advance()
            return Literal(tok.start, tok.end, self.file, LiteralKind.STRING,
                           tok.lexeme)
        if tok.lexeme in ("true", "false"):
            self._advance()
            return Literal(tok.start, tok.end, self.file, LiteralKind.BOOL,
                           tok.lexeme)
        if tok.kind == TokenKind.IDENTIFIER:
            self._advance()
            return Identifier(tok.start, tok.end, self.file, tok.lexeme)
        if tok.lexeme == "payable" or is_elementary_type(tok.lexeme):
            # Type cast callee: address(x), uint(x), payable(x), ...
            self._advance()
            return Identifier(tok.start, tok.end, self.file, tok.lexeme)
        if tok.lexeme == "new":
            start = self.i
            self._advance()
            type_name = self._parse_type_name()
            # Synthetic callee name; the space keeps it from colliding with
            # any real identifier during resolution.
            return Identifier(*self._at(start), "new " + type_name)
        if tok.lexeme == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect(")")  # tuple or damaged grouping
            return expr
        raise _Fail()


def parse(tokens: list[Token], file: SourceFile) -> SourceUnit:
    """Parse a token stream produced by tokenize() on the same file."""
    parser = Parser(tokens, file)
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
    unit = parse(lexed.tokens, file)
    unit.parse_errors[:0] = [ParseError(err.kind, err.span, "error")
                             for err in lexed.errors]
    return unit


def has_fatal_errors(unit: SourceUnit) -> bool:
    return any(err.severity == "error" for err in unit.parse_errors)
