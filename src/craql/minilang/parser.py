"""Recursive-descent parser for MiniLang (`.mj` files).

Builds nodes directly into a shared :class:`ProjectAst` arena. Statement and
member level errors are recovered by skipping to the next `;` or `}` and
recorded as diagnostics; junk at the top level is unrecoverable and raises
:class:`MiniLangParseError` (the runner then skips the file).
"""

from __future__ import annotations

from dataclasses import dataclass

from craql.astcore import ProjectAst, Span
from craql.diagnostics import Diagnostic

KEYWORDS = {
    "class", "interface", "new", "if", "else", "while", "for", "return",
    "break", "continue", "throw", "try", "catch", "true", "false",
}

PUNCT2 = ("==", "!=", "<=", ">=", "&&", "||")
PUNCT1 = "{}()[];,.=<>!+-*/"


@dataclass
class Tok:
    kind: str  # ident | keyword | number | string | punct | eof
    text: str
    start: int
    end: int
    line: int
    col: int


class MiniLangParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def lex(file_name: str, text: str) -> list[Tok]:
    toks: list[Tok] = []
    i, n = 0, len(text)
    line, line_start = 1, 0

    def col(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c.isspace():
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if c.isalpha() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Tok(kind, word, start, i, line, col(start)))
            continue
        if c.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            toks.append(Tok("number", text[start:i], start, i, line, col(start)))
            continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    i += 1
                if text[i] == "\n":
                    break
                i += 1
            if i >= n or text[i] != '"':
                raise MiniLangParseError(
                    Diagnostic(file_name, line, col(start), "unterminated string literal")
                )
            i += 1
            toks.append(Tok("string", text[start:i], start, i, line, col(start)))
            continue
        two = text[i : i + 2]
        if two in PUNCT2:
            toks.append(Tok("punct", two, start, i + 2, line, col(start)))
            i += 2
            continue
        if c in PUNCT1:
            toks.append(Tok("punct", c, start, i + 1, line, col(start)))
            i += 1
            continue
        raise MiniLangParseError(
            Diagnostic(file_name, line, col(start), f"stray character {c!r}")
        )
    toks.append(Tok("eof", "", n, n, line, col(n)))
    return toks


class Parser:
    def __init__(self, project: ProjectAst, file_name: str, text: str):
        self.project = project
        self.file_name = file_name
        self.file_id = project.add_file(file_name, text)
        self.toks = lex(file_name, text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing --

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("punct", "keyword")

    def expect(self, text: str) -> Tok:
        if self.at(text):
            return self.advance()
        tok = self.peek()
        raise MiniLangParseError(
            Diagnostic(
                self.file_name, tok.line, tok.col,
                f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}, found end of file",
            )
        )

    def expect_ident(self) -> Tok:
        tok = self.peek()
        if tok.kind != "ident":
            raise MiniLangParseError(
                Diagnostic(self.file_name, tok.line, tok.col, f"expected identifier, found {tok.text!r}")
            )
        return self.advance()

    def make(self, type_name: str, start: Tok, end: Tok) -> int:
        span = Span(self.file_id, start.start, end.end, start.line)
        return self.project.new_node(type_name, span).id

    # -- error recovery --

    def recover_to_statement_end(self) -> None:
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth == 0:
                    return
                depth -= 1
            elif tok.text == ";" and depth == 0:
                self.advance()
                return
            self.advance()

    # -- grammar --

    def parse_compilation_unit(self) -> int:
        types: list[int] = []
        while self.peek().kind != "eof":
            if self.at("class") or self.at("interface"):
                types.append(self.parse_type_declaration())
            else:
                tok = self.peek()
                raise MiniLangParseError(
                    Diagnostic(
                        self.file_name, tok.line, tok.col,
                        f"expected type declaration, found {tok.text!r}",
                    )
                )
        unit = self.project.new_node(
            "CompilationUnit", Span(self.file_id, 0, self.toks[-1].end, 1)
        )
        unit.props["types"] = types
        return unit.id

    def parse_type_declaration(self) -> int:
        start = self.advance()  # class | interface
        is_interface = start.text == "interface"
        name = self.expect_ident()
        self.expect("{")
        members: list[int] = []
        while not self.at("}") and self.peek().kind != "eof":
            try:
                members.append(self.parse_member(is_interface))
            except MiniLangParseError as exc:
                self.diagnostics.append(exc.diagnostic)
                self.recover_to_statement_end()
        end = self.expect("}")
        node_id = self.make("TypeDeclaration", start, end)
        node = self.project.node(node_id)
        node.props["interface"] = "true" if is_interface else "false"
        node.props["name"] = name.text
        node.props["bodyDeclarations"] = members
        return node_id

    def parse_member(self, in_interface: bool) -> int:
        type_tok = self.expect_ident()
        name = self.expect_ident()
        if self.at("("):
            return self.parse_method(type_tok, name)
        return self.parse_field(type_tok, name)

    def parse_method(self, type_tok: Tok, name: Tok) -> int:
        self.expect("(")
        params: list[int] = []
        if not self.at(")"):
            while True:
                ptype = self.expect_ident()
                pname = self.expect_ident()
                pid = self.make("SingleVariableDeclaration", ptype, pname)
                pnode = self.project.node(pid)
                pnode.props["type"] = ptype.text
                pnode.props["name"] = pname.text
                params.append(pid)
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        body: int | None = None
        if self.at(";"):
            end = self.advance()
        else:
            body = self.parse_block()
            end = self.toks[self.pos - 1]
        node_id = self.make("MethodDeclaration", type_tok, end)
        node = self.project.node(node_id)
        node.props["returnType"] = type_tok.text
        node.props["name"] = name.text
        node.props["parameters"] = params
        if body is not None:
            node.props["body"] = body
        return node_id

    def parse_field(self, type_tok: Tok, first_name: Tok) -> int:
        fragments = [self.parse_fragment(first_name)]
        while self.at(","):
            self.advance()
            fragments.append(self.parse_fragment(self.expect_ident()))
        end = self.expect(";")
        node_id = self.make("FieldDeclaration", type_tok, end)
        node = self.project.node(node_id)
        node.props["type"] = type_tok.text
        node.props["fragments"] = fragments
        return node_id

    def parse_fragment(self, name: Tok) -> int:
        init: int | None = None
        if self.at("="):
            self.advance()
            init = self.parse_expression()
        end = self.toks[self.pos - 1] if init is not None else name
        node_id = self.make("VariableDeclaration", name, end)
        node = self.project.node(node_id)
        node.props["name"] = name.text
        if init is not None:
            node.props["initializer"] = init
        return node_id

    # -- statements --

    def parse_block(self) -> int:
        start = self.expect("{")
        statements: list[int] = []
        while not self.at("}") and self.peek().kind != "eof":
            try:
                statements.append(self.parse_statement())
            except MiniLangParseError as exc:
                self.diagnostics.append(exc.diagnostic)
                self.recover_to_statement_end()
        end = self.expect("}")
        node_id = self.make("Block", start, end)
        self.project.node(node_id).props["statements"] = statements
        return node_id

    def parse_statement(self) -> int:
        tok = self.peek()
        if tok.text == "{":
            return self.parse_block()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "return":
            start = self.advance()
            expr = None if self.at(";") else self.parse_expression()
            end = self.expect(";")
            node_id = self.make("ReturnStatement", start, end)
            if expr is not None:
                self.project.node(node_id).props["expression"] = expr
            return node_id
        if tok.text in ("break", "continue"):
            start = self.advance()
            end = self.expect(";")
            kind = "BreakStatement" if tok.text == "break" else "ContinueStatement"
            return self.make(kind, start, end)
        if tok.text == "throw":
            start = self.advance()
            expr = self.parse_expression()
            end = self.expect(";")
            node_id = self.make("ThrowStatement", start, end)
            self.project.node(node_id).props["expression"] = expr
            return node_id
        if tok.text == "try":
            return self.parse_try()
        if tok.kind == "ident" and self.peek(1).kind == "ident":
            return self.parse_local_declaration()
        start = self.peek()
        expr = self.parse_expression()
        end = self.expect(";")
        node_id = self.make("ExpressionStatement", start, end)
        self.project.node(node_id).props["expression"] = expr
        return node_id

    def parse_local_declaration(self, *, consume_semi: bool = True) -> int:
        type_tok = self.expect_ident()
        fragments = [self.parse_fragment(self.expect_ident())]
        while self.at(","):
            self.advance()
            fragments.append(self.parse_fragment(self.expect_ident()))
        end = self.expect(";") if consume_semi else self.toks[self.pos - 1]
        node_id = self.make("VariableDeclarationStatement", type_tok, end)
        node = self.project.node(node_id)
        node.props["type"] = type_tok.text
        node.props["fragments"] = fragments
        return node_id

    def parse_if(self) -> int:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        els: int | None = None
        if self.at("else"):
            self.advance()
            els = self.parse_statement()
        node_id = self.make("IfStatement", start, self.toks[self.pos - 1])
        node = self.project.node(node_id)
        node.props["expression"] = cond
        node.props["thenStatement"] = then
        if els is not None:
            node.props["elseStatement"] = els
        return node_id

    def parse_while(self) -> int:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        node_id = self.make("WhileStatement", start, self.toks[self.pos - 1])
        node = self.project.node(node_id)
        node.props["expression"] = cond
        node.props["body"] = body
        return node_id

    def parse_for(self) -> int:
        start = self.expect("for")
        self.expect("(")
        initializers: list[int] = []
        if not self.at(";"):
            if self.peek().kind == "ident" and self.peek(1).kind == "ident":
                initializers.append(self.parse_local_declaration(consume_semi=False))
            else:
                initializers.append(self.parse_expression())
                while self.at(","):
                    self.advance()
                    initializers.append(self.parse_expression())
        self.expect(";")
        cond = None if self.at(";") else self.parse_expression()
        self.expect(";")
        updaters: list[int] = []
        if not self.at(")"):
            updaters.append(self.parse_expression())
            while self.at(","):
                self.advance()
                updaters.append(self.parse_expression())
        self.expect(")")
        body = self.parse_statement()
        node_id = self.make("ForStatement", start, self.toks[self.pos - 1])
        node = self.project.node(node_id)
        node.props["initializers"] = initializers
        if cond is not None:
            node.props["expression"] = cond
        node.props["updaters"] = updaters
        node.props["body"] = body
        return node_id

    def parse_try(self) -> int:
        start = self.expect("try")
        body = self.parse_block()
        clauses: list[int] = []
        while self.at("catch"):
            cstart = self.advance()
            self.expect("(")
            etype = self.expect_ident()
            ename = self.expect_ident()
            self.expect(")")
            exc_id = self.make("SingleVariableDeclaration", etype, ename)
            enode = self.project.node(exc_id)
            enode.props["type"] = etype.text
            enode.props["name"] = ename.text
            cbody = self.parse_block()
            cid = self.make("CatchClause", cstart, self.toks[self.pos - 1])
            cnode = self.project.node(cid)
            cnode.props["exception"] = exc_id
            cnode.props["body"] = cbody
            clauses.append(cid)
        if not clauses:
            tok = self.peek()
            raise MiniLangParseError(
                Diagnostic(self.file_name, tok.line, tok.col, "try requires at least one catch")
            )
        node_id = self.make("TryStatement", start, self.toks[self.pos - 1])
        node = self.project.node(node_id)
        node.props["body"] = body
        node.props["catchClauses"] = clauses
        return node_id

    # -- expressions --

    def parse_expression(self) -> int:
        return self.parse_assignment()

    def parse_assignment(self) -> int:
        start = self.peek()
        lhs = self.parse_or()
        if self.at("=") and self.project.node(lhs).type in ("Name", "FieldAccess"):
            self.advance()
            rhs = self.parse_assignment()
            node_id = self.make("Assignment", start, self.toks[self.pos - 1])
            node = self.project.node(node_id)
            node.props["leftHandSide"] = lhs
            node.props["operator"] = "="
            node.props["rightHandSide"] = rhs
            return node_id
        return lhs

    def _infix_level(self, ops: tuple[str, ...], next_level) -> int:
        start = self.peek()
        left = next_level()
        while self.peek().kind == "punct" and self.peek().text in ops:
            op = self.advance().text
            right = next_level()
            node_id = self.make("InfixExpression", start, self.toks[self.pos - 1])
            node = self.project.node(node_id)
            node.props["leftOperand"] = left
            node.props["operator"] = op
            node.props["rightOperand"] = right
            left = node_id
        return left

    def parse_or(self) -> int:
        return self._infix_level(("||",), self.parse_and)

    def parse_and(self) -> int:
        return self._infix_level(("&&",), self.parse_equality)

    def parse_equality(self) -> int:
        return self._infix_level(("==", "!="), self.parse_relational)

    def parse_relational(self) -> int:
        return self._infix_level(("<", "<=", ">", ">="), self.parse_additive)

    def parse_additive(self) -> int:
        return self._infix_level(("+", "-"), self.parse_multiplicative)

    def parse_multiplicative(self) -> int:
        return self._infix_level(("*", "/"), self.parse_unary)

    def parse_unary(self) -> int:
        tok = self.peek()
        if tok.text in ("!", "-") and tok.kind == "punct":
            op = self.advance()
            if op.text == "-" and self.peek().kind == "number":
                num = self.advance()
                node_id = self.make("NumberLiteral", op, num)
                self.project.node(node_id).props["token"] = "-" + num.text
                return node_id
            operand = self.parse_unary()
            node_id = self.make("PrefixExpression", op, self.toks[self.pos - 1])
            node = self.project.node(node_id)
            node.props["operator"] = op.text
            node.props["operand"] = operand
            return node_id
        return self.parse_postfix()

    def parse_postfix(self) -> int:
        start = self.peek()
        expr = self.parse_primary()
        while self.at("."):
            self.advance()
            name = self.expect_ident()
            if self.at("("):
                args = self.parse_arguments()
                node_id = self.make("MethodInvocation", start, self.toks[self.pos - 1])
                node = self.project.node(node_id)
                node.props["expression"] = expr
                node.props["name"] = name.text
                node.props["arguments"] = args
                expr = node_id
            else:
                node_id = self.make("FieldAccess", start, name)
                node = self.project.node(node_id)
                node.props["expression"] = expr
                node.props["name"] = name.text
                expr = node_id
        return expr

    def parse_arguments(self) -> list[int]:
        self.expect("(")
        args: list[int] = []
        if not self.at(")"):
            args.append(self.parse_expression())
            while self.at(","):
                self.advance()
                args.append(self.parse_expression())
        self.expect(")")
        return args

    def parse_primary(self) -> int:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if tok.text == "new":
            start = self.advance()
            cls = self.expect_ident()
            args = self.parse_arguments()
            node_id = self.make("ClassInstanceCreation", start, self.toks[self.pos - 1])
            node = self.project.node(node_id)
            node.props["type"] = cls.text
            node.props["arguments"] = args
            return node_id
        if tok.kind == "number":
            self.advance()
            node_id = self.make("NumberLiteral", tok, tok)
            self.project.node(node_id).props["token"] = tok.text
            return node_id
        if tok.kind == "string":
            self.advance()
            node_id = self.make("StringLiteral", tok, tok)
            self.project.node(node_id).props["token"] = tok.text
            return node_id
        if tok.text in ("true", "false"):
            self.advance()
            node_id = self.make("BooleanLiteral", tok, tok)
            self.project.node(node_id).props["token"] = tok.text
            return node_id
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                args = self.parse_arguments()
                node_id = self.make("MethodInvocation", tok, self.toks[self.pos - 1])
                node = self.project.node(node_id)
                node.props["name"] = tok.text
                node.props["arguments"] = args
                return node_id
            node_id = self.make("Name", tok, tok)
            self.project.node(node_id).props["identifier"] = tok.text
            return node_id
        raise MiniLangParseError(
            Diagnostic(
                self.file_name, tok.line, tok.col,
                f"expected expression, found {tok.text!r}" if tok.text else "expected expression, found end of file",
            )
        )


def parse_minilang(project: ProjectAst, file_name: str, text: str) -> tuple[int, list[Diagnostic]]:
    """Parse one source file into the project arena.

    Returns the compilation-unit node id and any recovered diagnostics.
    Raises MiniLangParseError when no tree can be produced.
    """
    parser = Parser(project, file_name, text)
    try:
        root = parser.parse_compilation_unit()
    except RecursionError:
        tok = parser.peek()  # where the interpreter's stack ran out
        raise MiniLangParseError(
            Diagnostic(file_name, tok.line, tok.col, "source nested too deeply")
        ) from None
    return root, parser.diagnostics
