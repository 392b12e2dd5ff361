"""Recursive-descent parser for query documents, with precedence climbing for expressions."""

from __future__ import annotations

from craql.query.ast import (
    _PRECEDENCE,
    PREFIX_PRECEDENCE,
    Assign,
    BoolLit,
    Call,
    CallQuery,
    CountStar,
    ELLIPSIS,
    Expr,
    ExprStmt,
    If,
    Infix,
    InputSpec,
    INPUT_DEFAULT,
    INPUT_DIRECTLY_IN,
    INPUT_IN,
    IncrDecr,
    IntLit,
    MOD_INMOST,
    MOD_NONE,
    MOD_OUTMOST,
    Pattern,
    Prefix,
    PrintStmt,
    PropAccess,
    QueryDocument,
    SINGLE,
    STAR,
    SelectQuery,
    SelectStmt,
    Stmt,
    StrLit,
    TypeLit,
    VarRef,
    While,
    walk,
)
from craql.query.tokens import QuerySyntaxError, Token, tokenize


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.toks = tokens
        self.source = source
        self.pos = 0
        self.scope_vars: list[str] = []  # pattern variables of enclosing selects

    def peek(self, ahead: int = 0) -> Token:
        # The list ends in `eof` and `advance` never moves past it, so a
        # lookahead of 1 is only taken from a token that is not `eof`.
        return self.toks[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind in ("op", "keyword") and tok.value == value

    def error(self, message: str, tok: Token | None = None, expected: list[str] | None = None):
        tok = tok or self.peek()
        raise QuerySyntaxError(message, self.source, tok.line, tok.col, expected)

    def expect(self, value: str) -> Token:
        if self.at(value):
            return self.advance()
        tok = self.peek()
        found = tok.value if tok.value else "end of file"
        self.error(f"unexpected {found!r}", tok, expected=[repr(value)])

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.value if tok.value else "end of file"
            self.error(f"unexpected {found!r}", tok, expected=[what])
        return self.advance()

    # -- document --

    def parse_document(self) -> QueryDocument:
        queries: list[tuple[str | None, SelectQuery]] = []
        labels: set[str] = set()
        while self.peek().kind != "eof":
            label: str | None = None
            if self.peek().kind == "ident" and self.peek(1).kind == "op" and self.peek(1).value == ":":
                label_tok = self.advance()
                self.advance()
                label = label_tok.value
                if label in labels:
                    self.error(f"duplicate query label {label}", label_tok)
                labels.add(label)
            queries.append((label, self.parse_select()))
        if not queries:
            self.error("empty query document")
        doc = QueryDocument(queries, self.source)
        self._check_labels(doc, labels)
        return doc

    def _check_labels(self, doc: QueryDocument, labels: set[str]) -> None:
        for node in walk(doc):
            if isinstance(node, CallQuery) and node.label not in labels:
                raise QuerySyntaxError(
                    f"unresolved query label {node.label}", self.source, node.pos[0], node.pos[1]
                )

    # -- select --

    def parse_select(self) -> SelectQuery:
        head = self.expect("select")
        modifier = MOD_NONE
        if self.at("outmost"):
            self.advance()
            modifier = MOD_OUTMOST
        elif self.at("inmost"):
            self.advance()
            modifier = MOD_INMOST
        pattern = self.parse_pattern()
        if modifier != MOD_NONE and pattern.kind != SINGLE:
            self.error("pruning modifiers apply to single patterns only", head)
        input_spec = self.parse_input_spec() or InputSpec(INPUT_DEFAULT)
        where: Expr | None = None
        if self.at("where"):
            self.advance()
            where = self.parse_expr()
        for var in pattern.variables():
            if var in self.scope_vars:
                self.error(f"variable {var} already bound by an enclosing query", head)
        self.scope_vars.extend(pattern.variables())
        body = self.parse_block()
        del self.scope_vars[-len(pattern.variables()):]
        return SelectQuery(pattern, modifier, input_spec, where, body, pos=(head.line, head.col))

    def parse_pattern(self) -> Pattern:
        open_tok = self.expect("(")
        t1 = self.expect_kind("braced", "a braced node type like {Block}")
        v1 = self.expect_kind("ident", "a pattern variable")
        kind = SINGLE
        t2 = v2 = None
        if self.at("*") or self.at("..."):
            kind = STAR if self.advance().value == "*" else ELLIPSIS
            t2 = self.expect_kind("braced", "a braced node type like {Block}").value
            v2 = self.expect_kind("ident", "a pattern variable").value
        self.expect(")")
        if v2 is not None and v2 == v1.value:
            self.error(f"pattern variables must differ, both are {v2}", open_tok)
        return Pattern(kind, t1.value, v1.value, t2, v2, pos=(open_tok.line, open_tok.col))

    def parse_input_spec(self) -> InputSpec | None:
        if self.at("directly"):
            tok = self.advance()
            self.expect("in")
            return InputSpec(INPUT_DIRECTLY_IN, self.parse_expr(), pos=(tok.line, tok.col))
        if self.at("in"):
            tok = self.advance()
            return InputSpec(INPUT_IN, self.parse_expr(), pos=(tok.line, tok.col))
        return None

    # -- statements --

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                self.error("unterminated block", expected=["'}'"])
            body.append(self.parse_stmt())
        self.expect("}")
        return body

    def parse_stmt_or_block(self) -> list[Stmt]:
        if self.at("{"):
            return self.parse_block()
        return [self.parse_stmt()]

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if self.at("select"):
            q = self.parse_select()
            return SelectStmt(q, pos=q.pos)
        if self.at("callquery"):
            self.advance()
            self.expect("(")
            label = self.expect_kind("ident", "a query label")
            self.expect(")")
            input_spec = self.parse_input_spec()
            self.expect(";")
            return CallQuery(label.value, input_spec, pos=(tok.line, tok.col))
        if self.at("if"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_stmt_or_block()
            else_body = None
            if self.at("else"):
                self.advance()
                else_body = self.parse_stmt_or_block()
            return If(cond, then_body, else_body, pos=(tok.line, tok.col))
        if self.at("while"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return While(cond, self.parse_stmt_or_block(), pos=(tok.line, tok.col))
        if self.at("print"):
            self.advance()
            self.expect("(")
            value = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return PrintStmt(value, pos=(tok.line, tok.col))
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind == "op" and nxt.value in ("=", "+=", "-="):
                self.advance()
                op = self.advance().value
                value = self.parse_expr()
                self.expect(";")
                return Assign(tok.value, op, value, pos=(tok.line, tok.col))
            if nxt.kind == "op" and nxt.value in ("++", "--"):
                self.advance()
                op = self.advance().value
                self.expect(";")
                return IncrDecr(tok.value, op, pos=(tok.line, tok.col))
        value = self.parse_expr()
        self.expect(";")
        return ExprStmt(value, pos=(tok.line, tok.col))

    # -- expressions --

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over `_PRECEDENCE`, the unparser's table: an
        expression whose infix operators all bind at least `min_prec`."""
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("!", "-"):
            self.advance()
            left = Prefix(tok.value, self.parse_expr(PREFIX_PRECEDENCE), pos=(tok.line, tok.col))
        else:
            left = self.parse_postfix()
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok.value, 0) if tok.kind == "op" else 0
            if prec < min_prec:
                return left
            self.advance()
            left = Infix(tok.value, left, self.parse_expr(prec + 1), pos=(tok.line, tok.col))

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("."):
            self.advance()
            tok = self.peek()
            if tok.kind == "braced":
                self.advance()
                expr = PropAccess(expr, tok.value, braced=True, pos=(tok.line, tok.col))
                continue
            name = self.expect_kind("ident", "a property or function name")
            if self.at("("):
                args = self.parse_args()
                expr = Call(name.value, expr, args, pos=(name.line, name.col))
            else:
                expr = PropAccess(expr, name.value, braced=False, pos=(name.line, name.col))
        return expr

    def parse_args(self) -> list[Expr]:
        self.expect("(")
        args: list[Expr] = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.advance()
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if self.at("("):
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "int":
            self.advance()
            try:
                return IntLit(int(tok.value), pos=(tok.line, tok.col))
            except ValueError:  # more digits than `int` converts
                self.error("integer literal too long", tok)
        if tok.kind == "string":
            self.advance()
            return StrLit(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.advance()
            return BoolLit(tok.value == "true", pos=(tok.line, tok.col))
        if tok.kind == "keyword" and tok.value == "print" and self.peek(1).value == "(":
            self.advance()
            args = self.parse_args()
            return Call("print", None, args, pos=(tok.line, tok.col))
        if tok.kind == "braced":
            self.advance()
            return TypeLit(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                if tok.value == "count" and self.peek(1).kind == "op" and self.peek(1).value == "*":
                    self.advance()  # (
                    self.advance()  # *
                    self.expect(")")
                    return CountStar(pos=(tok.line, tok.col))
                args = self.parse_args()
                return Call(tok.value, None, args, pos=(tok.line, tok.col))
            return VarRef(tok.value, pos=(tok.line, tok.col))
        found = tok.value if tok.value else "end of file"
        self.error(f"unexpected {found!r}", tok, expected=["an expression"])


def parse_query_document(text: str, source: str = "<string>") -> QueryDocument:
    parser = _Parser(tokenize(text, source), source)
    try:
        return parser.parse_document()
    except RecursionError:
        tok = parser.peek()  # where the interpreter's stack ran out
        raise QuerySyntaxError("query nested too deeply", source, tok.line, tok.col) from None
