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

from .lexer import (
    ASSIGN_OPS, LexResult, Token, TokenKind, is_elementary_type, lex,
)
from .nodes import (
    Assignment, Binary, Block, Call, Conditional, ContractDef, ContractKind,
    DataLocation, Directive, EmitStmt, EventDef, EventParam, Expr, ExprStmt,
    For, FunctionDef, Identifier, If, IndexAccess, Literal, LiteralKind,
    LocalVarDecl, MemberAccess, Param, ParseError, Return, SourceUnit,
    StateVarDecl, Stmt, Unary, Unparsed, While,
)
from .source import SourceFile, Span

_VISIBILITY = frozenset({"public", "private", "internal", "external"})
_MUTABILITY = frozenset({"view", "pure", "payable", "constant"})
_LOCATIONS = {
    "memory": DataLocation.MEMORY,
    "storage": DataLocation.STORAGE,
    "calldata": DataLocation.CALLDATA,
}
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


class Parser:
    def __init__(self, tokens: list[Token], file: SourceFile):
        self.toks = tokens
        self.file = file
        self.i = 0
        self.errors: list[ParseError] = []
        self.stmt_depth = 0
        self.expr_depth = 0
        self.chain_depth = 0

    # ------------------------------------------------------------- utilities

    def _peek(self, ahead: int = 0) -> Token | None:
        idx = self.i + ahead
        return self.toks[idx] if idx < len(self.toks) else None

    def _at_end(self) -> bool:
        return self.i >= len(self.toks)

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _check(self, kind: TokenKind, lexeme: str | None = None,
               ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return (tok is not None and tok.kind == kind
                and (lexeme is None or tok.lexeme == lexeme))

    def _kw(self, word: str, ahead: int = 0) -> bool:
        return self._check(TokenKind.KEYWORD, word, ahead)

    def _match(self, kind: TokenKind, lexeme: str | None = None) -> Token | None:
        if self._check(kind, lexeme):
            return self._advance()
        return None

    def _match_kw(self, *words: str) -> Token | None:
        tok = self._peek()
        if tok is not None and tok.kind == TokenKind.KEYWORD and tok.lexeme in words:
            return self._advance()
        return None

    def _here_span(self) -> Span:
        tok = self._peek()
        if tok is not None:
            return tok.span
        if self.toks:
            return self.toks[-1].span
        return self.file.full_span()

    def _span_from(self, start_idx: int) -> Span:
        if start_idx >= len(self.toks):
            return self._here_span()
        last = min(self.i - 1, len(self.toks) - 1)
        if last < start_idx:
            last = start_idx
        return Span.cover(self.toks[start_idx].span, self.toks[last].span)

    def _record(self, message: str, severity: str = "error",
                span: Span | None = None) -> None:
        self.errors.append(ParseError(message, span or self._here_span(), severity))

    def _damage(self, message: str, severity: str = "error") -> None:
        self._record(message, severity)
        raise _Damage()

    def _expect_punct(self, lexeme: str, what: str) -> Token:
        tok = self._match(TokenKind.PUNCT, lexeme)
        if tok is None:
            self._damage(f"expected '{lexeme}' {what}")
        return tok

    def _skip_group(self, open_: str, close: str) -> None:
        """Consume an open_-opened region through its matching close; nothing
        when the next token is not open_."""
        if not self._check(TokenKind.PUNCT, open_):
            return
        depth = 0
        while not self._at_end():
            tok = self._advance()
            if tok.kind == TokenKind.PUNCT:
                if tok.lexeme == open_:
                    depth += 1
                elif tok.lexeme == close:
                    depth -= 1
                    if depth == 0:
                        return

    def _skip_to_semicolon(self) -> None:
        """Consume tokens through the next ';' at bracket depth zero; stop
        before a '}' that would close the enclosing block. Unmatched ')' and
        ']' (recovery may start inside a broken group) are consumed."""
        depth = 0
        while not self._at_end():
            tok = self._peek()
            if tok.kind == TokenKind.PUNCT:
                if tok.lexeme in "([{":
                    depth += 1
                elif tok.lexeme in ")]}":
                    if depth == 0 and tok.lexeme == "}":
                        return
                    if depth > 0:
                        depth -= 1
                elif tok.lexeme == ";" and depth == 0:
                    self._advance()
                    return
            self._advance()

    def _raw_text(self, start_idx: int) -> str:
        span = self._span_from(start_idx)
        return self.file.span_text(span)

    # ------------------------------------------------------------- top level

    def parse_unit(self) -> SourceUnit:
        pragmas: list[Directive] = []
        contracts: list[ContractDef] = []
        while not self._at_end():
            if self._kw("pragma") or self._kw("import"):
                start = self.i
                kind = self._advance().lexeme
                self._skip_to_semicolon()
                pragmas.append(Directive(kind, self._raw_text(start),
                                         self._span_from(start)))
                continue
            if (self._kw("contract") or self._kw("interface")
                    or self._kw("library")
                    or (self._kw("abstract") and self._kw("contract", 1))):
                contract = self._parse_contract()
                if contract is not None:
                    contracts.append(contract)
                continue
            self._record("unexpected token at file level")
            self._skip_top_level()
        return SourceUnit(pragmas, contracts, self.errors, self.file.full_span())

    def _skip_top_level(self) -> None:
        depth = 0
        progressed = False
        while not self._at_end():
            tok = self._peek()
            if depth == 0 and progressed and tok.kind == TokenKind.KEYWORD and \
                    tok.lexeme in ("pragma", "import", "contract", "interface",
                                   "library", "abstract"):
                return
            if tok.kind == TokenKind.PUNCT:
                if tok.lexeme == "{":
                    depth += 1
                elif tok.lexeme == "}":
                    depth = max(0, depth - 1)
            self._advance()
            progressed = True

    def _parse_contract(self) -> ContractDef | None:
        start = self.i
        if self._match_kw("abstract"):
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
        if self._match_kw("is"):
            while True:
                base = self._match(TokenKind.IDENTIFIER)
                if base is None:
                    break
                path = base.lexeme
                while self._match(TokenKind.PUNCT, "."):
                    part = self._match(TokenKind.IDENTIFIER)
                    if part is None:
                        break
                    path += "." + part.lexeme
                self._skip_group("(", ")")
                bases.append(path)
                if not self._match(TokenKind.PUNCT, ","):
                    break
        contract = ContractDef(name_tok.lexeme, kind, bases, [], [], [],
                               self._here_span())
        if self._match(TokenKind.PUNCT, "{") is None:
            self._record("expected '{' to open contract body")
            self._skip_top_level()
            contract.span = self._span_from(start)
            return contract
        while not self._at_end() and not self._check(TokenKind.PUNCT, "}"):
            self._parse_member(contract)
        self._match(TokenKind.PUNCT, "}")
        contract.span = self._span_from(start)
        return contract

    # ---------------------------------------------------------------- members

    def _parse_member(self, contract: ContractDef) -> None:
        start = self.i
        if self._kw("event"):
            event = self._parse_event()
            if event is not None:
                contract.events.append(event)
            return
        if (self._kw("function") or self._kw("constructor") or self._kw("fallback")
                or self._kw("receive") or self._kw("modifier")):
            fn = self._parse_function_like()
            if fn is not None:
                contract.functions.append(fn)
            return
        if self._kw("struct") or self._kw("enum"):
            self._advance()
            self._match(TokenKind.IDENTIFIER)
            self._skip_group("{", "}")
            return
        if self._kw("using"):
            self._skip_to_semicolon()
            return
        # Custom error and user-defined value type declarations: skipped
        # silently, they cannot contain statements.
        if self._check(TokenKind.IDENTIFIER, "error") and \
                self._check(TokenKind.IDENTIFIER, None, 1) and \
                self._check(TokenKind.PUNCT, "(", 2):
            self._skip_to_semicolon()
            return
        if self._check(TokenKind.IDENTIFIER, "type") and \
                self._check(TokenKind.IDENTIFIER, None, 1) and self._kw("is", 2):
            self._skip_to_semicolon()
            return
        var = self._try_state_var()
        if var is not None:
            contract.state_vars.append(var)
            return
        self._record("unsupported contract member skipped", "warning",
                     self._here_span())
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
                tok = self._peek()
                if tok is None or tok.kind != TokenKind.KEYWORD:
                    break
                if tok.lexeme in _VISIBILITY:
                    visibility = tok.lexeme
                    self._advance()
                elif tok.lexeme == "constant":
                    is_constant = True
                    self._advance()
                elif tok.lexeme == "immutable":
                    is_immutable = True
                    self._advance()
                elif tok.lexeme == "override":
                    self._advance()
                    self._skip_group("(", ")")
                else:
                    break
            name_tok = self._peek()
            if name_tok is None or name_tok.kind != TokenKind.IDENTIFIER:
                raise _Fail()
            self._advance()
            init: Expr | None = None
            if self._match(TokenKind.OPERATOR, "="):
                expr_mark = self.i
                try:
                    init = self._parse_expression()
                except _Fail:
                    # An unsupported initializer ends where an argument does.
                    self.i = expr_mark
                    self._skip_call_arg()
            if self._match(TokenKind.PUNCT, ";") is None:
                self._record("expected ';' after state variable declaration")
                self._skip_to_semicolon()
            return StateVarDecl(name_tok.lexeme, type_name, visibility,
                                is_constant, is_immutable, init,
                                self._span_from(mark))
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
        indexed_count = 0
        if self._match(TokenKind.PUNCT, "("):
            while not self._check(TokenKind.PUNCT, ")") and not self._at_end():
                pstart = self.i
                try:
                    type_name = self._parse_type_name()
                except _Fail:
                    self._record("unsupported event parameter type", "warning")
                    self._skip_param()
                    if not self._match(TokenKind.PUNCT, ","):
                        break
                    continue
                indexed = self._match_kw("indexed") is not None
                if indexed:
                    indexed_count += 1
                pname = self._match(TokenKind.IDENTIFIER)
                params.append(EventParam(pname.lexeme if pname else None,
                                         type_name, indexed,
                                         self._span_from(pstart)))
                if not self._match(TokenKind.PUNCT, ","):
                    break
            if self._match(TokenKind.PUNCT, ")") is None:
                self._record("expected ')' in event declaration")
        self._match_kw("anonymous")
        if self._match(TokenKind.PUNCT, ";") is None:
            self._record("expected ';' after event declaration")
            self._skip_to_semicolon()
        event = EventDef(name_tok.lexeme, params, self._span_from(start))
        if indexed_count > 3:
            self._record(
                f"event {event.name} declares {indexed_count} indexed "
                "parameters; the log format supports at most 3 topics",
                "warning", event.span)
        return event

    def _skip_param(self) -> None:
        depth = 0
        while not self._at_end():
            tok = self._peek()
            if tok.kind == TokenKind.PUNCT:
                if tok.lexeme == "(":
                    depth += 1
                elif tok.lexeme == ")":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.lexeme == "," and depth == 0:
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
        if self._match(TokenKind.PUNCT, "("):
            params = self._parse_param_list()
        visibility = ""
        mutability = ""
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == TokenKind.PUNCT and tok.lexeme in ("{", ";", "}"):
                break
            if tok.kind == TokenKind.KEYWORD:
                if tok.lexeme in _VISIBILITY:
                    visibility = tok.lexeme
                    self._advance()
                    continue
                if tok.lexeme in _MUTABILITY:
                    mutability = tok.lexeme
                    self._advance()
                    continue
                if tok.lexeme in ("virtual",):
                    self._advance()
                    continue
                if tok.lexeme == "override":
                    self._advance()
                    self._skip_group("(", ")")
                    continue
                if tok.lexeme == "returns":
                    self._advance()
                    if self._match(TokenKind.PUNCT, "("):
                        returns_params = self._parse_param_list()
                    continue
            if tok.kind == TokenKind.IDENTIFIER:
                # Modifier invocation, possibly dotted, possibly with args.
                self._advance()
                while self._match(TokenKind.PUNCT, "."):
                    self._match(TokenKind.IDENTIFIER)
                self._skip_group("(", ")")
                continue
            self._advance()  # tolerate unknown header tokens
        body: Block | None = None
        if self._match(TokenKind.PUNCT, ";"):
            body = None
        elif self._check(TokenKind.PUNCT, "{"):
            body = self._parse_block()
        else:
            self._record("expected function body or ';'")
        return FunctionDef(name if kind not in ("constructor", "fallback",
                                                "receive") else "",
                           kind, params, returns_params, visibility,
                           mutability, body, self._span_from(start))

    def _parse_param_list(self) -> list[Param]:
        params: list[Param] = []
        while not self._check(TokenKind.PUNCT, ")") and not self._at_end():
            pstart = self.i
            try:
                type_name = self._parse_type_name()
            except _Fail:
                self._record("unsupported parameter type", "warning")
                self._skip_param()
                if not self._match(TokenKind.PUNCT, ","):
                    break
                continue
            location = DataLocation.DEFAULT
            loc_tok = self._match_kw("memory", "storage", "calldata")
            if loc_tok is not None:
                location = _LOCATIONS[loc_tok.lexeme]
            self._match_kw("indexed")  # tolerated if misplaced
            pname = self._match(TokenKind.IDENTIFIER)
            params.append(Param(pname.lexeme if pname else "", type_name,
                                location, self._span_from(pstart)))
            if not self._match(TokenKind.PUNCT, ","):
                break
        if self._match(TokenKind.PUNCT, ")") is None:
            self._record("expected ')' in parameter list")
        return params

    def _parse_type_name(self) -> str:
        tok = self._peek()
        if tok is None:
            raise _Fail()
        if tok.kind == TokenKind.KEYWORD and tok.lexeme == "mapping":
            self._advance()
            if self._match(TokenKind.PUNCT, "(") is None:
                raise _Fail()
            with self._chain_link():
                key = self._parse_type_name()
            if self._match(TokenKind.OPERATOR, "=>") is None:
                raise _Fail()
            with self._chain_link():
                value = self._parse_type_name()
            if self._match(TokenKind.PUNCT, ")") is None:
                raise _Fail()
            base = f"mapping({key} => {value})"
        elif tok.kind == TokenKind.KEYWORD and is_elementary_type(tok.lexeme):
            self._advance()
            base = tok.lexeme
            if base == "address" and self._match_kw("payable"):
                base = "address payable"
        elif tok.kind == TokenKind.IDENTIFIER:
            self._advance()
            base = tok.lexeme
            while self._check(TokenKind.PUNCT, ".") and \
                    self._check(TokenKind.IDENTIFIER, None, 1):
                self._advance()
                base += "." + self._advance().lexeme
        else:
            raise _Fail()
        while self._check(TokenKind.PUNCT, "["):
            self._advance()
            inner: list[str] = []
            depth = 0
            while not self._at_end():
                t = self._peek()
                if t.kind == TokenKind.PUNCT and t.lexeme == "[":
                    depth += 1
                elif t.kind == TokenKind.PUNCT and t.lexeme == "]":
                    if depth == 0:
                        break
                    depth -= 1
                inner.append(t.lexeme)
                self._advance()
            if self._match(TokenKind.PUNCT, "]") is None:
                raise _Fail()
            base += "[" + "".join(inner) + "]"
        return base

    # ------------------------------------------------------------- statements

    def _parse_block(self) -> Block:
        start = self.i
        self._advance()  # '{'
        stmts: list[Stmt] = []
        while not self._at_end() and not self._check(TokenKind.PUNCT, "}"):
            stmts.append(self._parse_stmt())
        if self._match(TokenKind.PUNCT, "}") is None:
            self._record("expected '}' to close block")
        return Block(stmts, self._span_from(start))

    def _parse_stmt(self) -> Stmt:
        start = self.i
        if self.stmt_depth >= _MAX_STMT_DEPTH:
            self._record("statement nesting too deep; region skipped")
            if self._check(TokenKind.PUNCT, "{"):
                self._skip_group("{", "}")
            else:
                self._skip_to_semicolon()
            if self.i == start and not self._at_end():
                self._advance()
            return Unparsed(self._raw_text(start), self._span_from(start))
        self.stmt_depth += 1
        try:
            return self._parse_stmt_inner()
        except _Damage:
            self._skip_to_semicolon()
            if self.i == start and not self._at_end():
                self._advance()
            return Unparsed(self._raw_text(start), self._span_from(start))
        finally:
            self.stmt_depth -= 1

    def _unparsed_stmt(self, start: int, message: str,
                       severity: str = "warning") -> Unparsed:
        self._record(message, severity, self._span_from(start))
        return Unparsed(self._raw_text(start), self._span_from(start))

    def _parse_stmt_inner(self) -> Stmt:
        start = self.i
        tok = self._peek()
        if tok is None:
            self._damage("unexpected end of input in block")
        if tok.kind == TokenKind.PUNCT and tok.lexeme == "{":
            return self._parse_block()
        if tok.kind == TokenKind.KEYWORD:
            word = tok.lexeme
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
                if not self._check(TokenKind.PUNCT, ";"):
                    try:
                        expr = self._parse_expression()
                    except _Fail:
                        # Tuple returns and other unsupported shapes.
                        self._skip_to_semicolon()
                        return self._unparsed_stmt(
                            start, "unsupported return expression skipped")
                self._expect_punct(";", "after return statement")
                return Return(expr, self._span_from(start))
            if word == "unchecked":
                self._advance()
                if self._check(TokenKind.PUNCT, "{"):
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
                self._match(TokenKind.PUNCT, ";")
                # Fully understood and cannot contain an emit: no report.
                return Unparsed(self._raw_text(start), self._span_from(start))
            if word == "delete":
                self._skip_to_semicolon()
                return Unparsed(self._raw_text(start), self._span_from(start))
        if tok.kind == TokenKind.PUNCT and tok.lexeme == "(":
            # Tuple assignments and parenthesized heads.
            mark = self.i
            try:
                expr = self._parse_expression()
            except _Fail:
                self.i = mark
                self._skip_to_semicolon()
                return self._unparsed_stmt(start, "tuple statement skipped")
            self._expect_punct(";", "after expression statement")
            return ExprStmt(expr, self._span_from(start))
        decl = self._try_local_decl()
        if decl is not None:
            return decl
        if self._check(TokenKind.IDENTIFIER, "revert") and \
                self._check(TokenKind.IDENTIFIER, None, 1):
            # revert CustomError(args);
            rstart = self.i
            rtok = self._advance()
            inner = self._expr_or_damage("unsupported revert statement")
            self._expect_punct(";", "after revert statement")
            span = self._span_from(rstart)
            call = Call(Identifier(rtok.lexeme, rtok.span), [inner], span)
            return ExprStmt(call, span)
        expr = self._expr_or_damage("unsupported or malformed statement")
        self._expect_punct(";", "after expression statement")
        return ExprStmt(expr, self._span_from(start))

    def _expr_or_damage(self, message: str) -> Expr:
        try:
            return self._parse_expression()
        except _Fail:
            self._damage(message)

    def _skip_try(self) -> None:
        self._advance()  # 'try'
        while not self._at_end() and not self._check(TokenKind.PUNCT, "{"):
            self._advance()
        self._skip_group("{", "}")
        while self._kw("catch"):
            while not self._at_end() and not self._check(TokenKind.PUNCT, "{"):
                self._advance()
            self._skip_group("{", "}")

    def _parse_if(self) -> Stmt:
        start = self.i
        self._advance()
        self._expect_punct("(", "after if")
        cond = self._expr_or_damage("unsupported if condition")
        self._expect_punct(")", "after if condition")
        then = self._parse_stmt()
        otherwise = None
        if self._match_kw("else"):
            otherwise = self._parse_stmt()
        return If(cond, then, otherwise, self._span_from(start))

    def _parse_while(self) -> Stmt:
        start = self.i
        self._advance()
        self._expect_punct("(", "after while")
        cond = self._expr_or_damage("unsupported while condition")
        self._expect_punct(")", "after while condition")
        body = self._parse_stmt()
        return While(cond, body, self._span_from(start))

    def _parse_for(self) -> Stmt:
        start = self.i
        self._advance()
        self._expect_punct("(", "after for")
        init: Stmt | None = None
        if self._match(TokenKind.PUNCT, ";") is None:
            init = self._try_local_decl()
            if init is None:
                estart = self.i
                expr = self._expr_or_damage("unsupported for-loop initializer")
                self._expect_punct(";", "after for-loop initializer")
                init = ExprStmt(expr, self._span_from(estart))
        cond = None
        if self._match(TokenKind.PUNCT, ";") is None:
            cond = self._expr_or_damage("unsupported for-loop condition")
            self._expect_punct(";", "after for-loop condition")
        post = None
        if not self._check(TokenKind.PUNCT, ")"):
            post = self._expr_or_damage("unsupported for-loop update")
        self._expect_punct(")", "after for-loop header")
        body = self._parse_stmt()
        return For(init, cond, post, body, self._span_from(start))

    def _parse_emit(self) -> Stmt:
        start = self.i
        self._advance()  # 'emit'
        name_tok = self._match(TokenKind.IDENTIFIER)
        if name_tok is None:
            self._damage("expected event name after emit")
        name = name_tok.lexeme
        while self._check(TokenKind.PUNCT, ".") and \
                self._check(TokenKind.IDENTIFIER, None, 1):
            self._advance()
            name += "." + self._advance().lexeme
        self._expect_punct("(", "after event name")
        args: list[Expr] = []
        if not self._check(TokenKind.PUNCT, ")"):
            while True:
                try:
                    args.append(self._parse_expression())
                except _Fail:
                    self._damage("unsupported expression in emit arguments",
                                 "warning")
                if not self._match(TokenKind.PUNCT, ","):
                    break
        self._expect_punct(")", "after emit arguments")
        self._expect_punct(";", "after emit statement")
        return EmitStmt(name, args, self._span_from(start))

    def _try_local_decl(self) -> LocalVarDecl | None:
        mark = self.i
        try:
            type_name = self._parse_type_name()
            location = DataLocation.DEFAULT
            loc_tok = self._match_kw("memory", "storage", "calldata")
            if loc_tok is not None:
                location = _LOCATIONS[loc_tok.lexeme]
            name_tok = self._peek()
            if name_tok is None or name_tok.kind != TokenKind.IDENTIFIER:
                raise _Fail()
            self._advance()
            nxt = self._peek()
            if nxt is None or not (
                    (nxt.kind == TokenKind.PUNCT and nxt.lexeme == ";")
                    or (nxt.kind == TokenKind.OPERATOR and nxt.lexeme == "=")):
                raise _Fail()
        except _Fail:
            self.i = mark
            return None
        # Committed: from here on failures are damage, not backtracking.
        init: Expr | None = None
        if self._match(TokenKind.OPERATOR, "="):
            init = self._expr_or_damage("unsupported initializer expression")
        self._expect_punct(";", "after variable declaration")
        return LocalVarDecl(name_tok.lexeme, type_name, location, init,
                            self._span_from(mark))

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
        if tok is not None and tok.kind == TokenKind.OPERATOR and \
                tok.lexeme in ASSIGN_OPS:
            self._advance()
            with self._chain_link():
                rhs = self._parse_assignment()
            return Assignment(lhs, rhs, tok.lexeme, self._span_from(start))
        return lhs

    def _parse_conditional(self) -> Expr:
        start = self.i
        cond = self._parse_binary(1)
        if self._check(TokenKind.PUNCT, "?"):
            self._advance()
            then = self._parse_expression()
            if self._match(TokenKind.PUNCT, ":") is None:
                raise _Fail()
            with self._chain_link():
                otherwise = self._parse_conditional()
            return Conditional(cond, then, otherwise, self._span_from(start))
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        start = self.i
        lhs = self._parse_unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != TokenKind.OPERATOR:
                return lhs
            prec = _BINARY_PREC.get(tok.lexeme)
            if prec is None or prec < min_prec:
                return lhs
            self._advance()
            # '**' binds right; everything else binds left.
            with self._chain_link():
                rhs = self._parse_binary(prec if tok.lexeme == "**"
                                         else prec + 1)
            lhs = Binary(tok.lexeme, lhs, rhs, self._span_from(start))

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok is not None and tok.kind == TokenKind.OPERATOR and \
                tok.lexeme in _UNARY_OPS:
            start = self.i
            self._advance()
            with self._chain_link():
                operand = self._parse_unary()
            return Unary(tok.lexeme, operand, self._span_from(start))
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        start = self.i
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok is None:
                return expr
            if tok.kind == TokenKind.PUNCT and tok.lexeme == ".":
                member = self._peek(1)
                if member is None or member.kind not in (TokenKind.IDENTIFIER,
                                                         TokenKind.KEYWORD):
                    return expr
                self._advance()
                self._advance()
                expr = MemberAccess(expr, member.lexeme, self._span_from(start))
                continue
            if tok.kind == TokenKind.PUNCT and tok.lexeme == "[":
                self._advance()
                index = None
                if not self._check(TokenKind.PUNCT, "]"):
                    index = self._parse_expression()
                if self._match(TokenKind.PUNCT, "]") is None:
                    raise _Fail()
                expr = IndexAccess(expr, index, self._span_from(start))
                continue
            if tok.kind == TokenKind.PUNCT and tok.lexeme == "{":
                options = self._try_call_options()
                if options is None:
                    return expr
                if not self._check(TokenKind.PUNCT, "("):
                    raise _Fail()
                self._advance()
                args = self._parse_call_args()
                expr = Call(expr, options + args, self._span_from(start))
                continue
            if tok.kind == TokenKind.PUNCT and tok.lexeme == "(":
                self._advance()
                args = self._parse_call_args()
                expr = Call(expr, args, self._span_from(start))
                continue
            if tok.kind == TokenKind.OPERATOR and tok.lexeme in ("++", "--"):
                self._advance()
                expr = Unary(tok.lexeme, expr, self._span_from(start))
                continue
            return expr

    def _parse_call_args(self) -> list[Expr]:
        args: list[Expr] = []
        if not self._check(TokenKind.PUNCT, ")"):
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
                    args.append(Identifier("<" + raw + ">",
                                           self._span_from(mark)))
                if not self._match(TokenKind.PUNCT, ","):
                    break
        if self._match(TokenKind.PUNCT, ")") is None:
            raise _Fail()
        return args

    def _skip_call_arg(self) -> str:
        start = self.i
        depth = 0
        while not self._at_end():
            tok = self._peek()
            if tok.kind == TokenKind.PUNCT:
                if tok.lexeme in "([{":
                    depth += 1
                elif tok.lexeme in ")]}":
                    if depth == 0:
                        break
                    depth -= 1
                elif tok.lexeme in ",;" and depth == 0:
                    break
            self._advance()
        return self._raw_text(start) if self.i > start else ""

    def _try_call_options(self) -> list[Expr] | None:
        """Parse '{name: expr, ...}' call options; None if the brace does not
        open that shape. Option values are folded into the argument list."""
        if not (self._check(TokenKind.PUNCT, "{")
                and self._check(TokenKind.IDENTIFIER, None, 1)
                and self._check(TokenKind.PUNCT, ":", 2)):
            return None
        self._advance()  # '{'
        options: list[Expr] = []
        while True:
            if self._match(TokenKind.IDENTIFIER) is None:
                raise _Fail()
            if self._match(TokenKind.PUNCT, ":") is None:
                raise _Fail()
            options.append(self._parse_expression())
            if not self._match(TokenKind.PUNCT, ","):
                break
        if self._match(TokenKind.PUNCT, "}") is None:
            raise _Fail()
        return options

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise _Fail()
        if tok.kind == TokenKind.NUMBER:
            self._advance()
            text = tok.lexeme
            kind = LiteralKind.NUMBER
            if len(text) == _HEX_ADDRESS_LEN and text.lower().startswith("0x"):
                kind = LiteralKind.HEX_ADDRESS
            return Literal(kind, text, tok.span)
        if tok.kind == TokenKind.STRING:
            self._advance()
            return Literal(LiteralKind.STRING, tok.lexeme, tok.span)
        if tok.kind == TokenKind.KEYWORD and tok.lexeme in ("true", "false"):
            self._advance()
            return Literal(LiteralKind.BOOL, tok.lexeme, tok.span)
        if tok.kind == TokenKind.IDENTIFIER:
            self._advance()
            return Identifier(tok.lexeme, tok.span)
        if tok.kind == TokenKind.KEYWORD and (
                is_elementary_type(tok.lexeme) or tok.lexeme == "payable"):
            # Type cast callee: address(x), uint(x), payable(x), ...
            self._advance()
            return Identifier(tok.lexeme, tok.span)
        if tok.kind == TokenKind.KEYWORD and tok.lexeme == "new":
            start = self.i
            self._advance()
            type_name = self._parse_type_name()
            # Synthetic callee name; the space keeps it from colliding with
            # any real identifier during resolution.
            return Identifier("new " + type_name, self._span_from(start))
        if tok.kind == TokenKind.PUNCT and tok.lexeme == "(":
            self._advance()
            expr = self._parse_expression()
            if self._match(TokenKind.PUNCT, ")") is None:
                raise _Fail()  # tuple or damaged grouping
            return expr
        raise _Fail()


def parse(tokens: list[Token], file: SourceFile) -> SourceUnit:
    """Parse a token stream produced by tokenize() on the same file."""
    return Parser(tokens, file).parse_unit()


def parse_file(file: SourceFile) -> SourceUnit:
    """Lex and parse, folding lex errors into the unit's error list."""
    return _parse_lexed(file, lex(file))


def _parse_lexed(file: SourceFile, lexed: LexResult) -> SourceUnit:
    unit = parse(lexed.tokens, file)
    unit.parse_errors[:0] = [ParseError(err.kind, err.span, "error")
                             for err in lexed.errors]
    return unit


def has_fatal_errors(unit: SourceUnit) -> bool:
    return any(err.severity == "error" for err in unit.parse_errors)
