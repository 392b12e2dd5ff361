"""Parser for MiniLang (`.mj` files): a regex lexer, recursive descent for
declarations and statements, and precedence climbing for expressions.

Builds nodes directly into a shared :class:`ProjectAst` arena. Statement and
member level errors are recovered by skipping to the next `;` or `}` and
recorded as diagnostics; junk at the top level is unrecoverable and raises
:class:`MiniLangParseError` (the runner then skips the file). Text the lexer
cannot read, a stray character or an unterminated string, becomes a token
that no rule accepts, so it is such an error at the place it appears.
"""

from __future__ import annotations

import re

from craql import Record
from craql.astcore import ProjectAst
from craql.diagnostics import Diagnostic

KEYWORDS = {
    "class", "interface", "new", "if", "else", "while", "for", "return",
    "break", "continue", "throw", "try", "catch", "true", "false",
}

# One alternative per token class, in the "Writing a Tokenizer" idiom of the
# `re` docs. `\w` admits digits such as "²" that start no identifier, so an
# identifier's first character is checked again in `lex`.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+|//[^\n]*)
  | (?P<ident>[^\W\d]\w*)
  | (?P<number>[0-9]+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<punct>==|!=|<=|>=|&&|\|\||[{}()\[\];,.=<>!+\-*/])
  | (?P<unterminated>")
  | (?P<stray>.)
""", re.VERBOSE)


class Tok(Record):
    kind: str  # ident | keyword | number | string | punct | stray | unterminated | eof
    text: str
    start: int
    end: int
    line: int
    col: int

    def __init__(self, kind: str, text: str, start: int, end: int, line: int, col: int):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end
        self.line = line
        self.col = col


class MiniLangParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def lex(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        word = m.group()
        if kind == "ident":
            if word in KEYWORDS:
                kind = "keyword"
            elif not (word[0].isalpha() or word[0] == "_"):
                kind = "stray"
        toks.append(Tok(kind, word, start, m.end(), line, start - line_start + 1))
    n = len(text)
    toks.append(Tok("eof", "", n, n, line, n - line_start + 1))
    return toks


# How tightly each binary operator binds. `=` binds loosest, is
# right-associative and takes only a name or a field access on its left.
BINARY_PRECEDENCE = {
    "=": 0, "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6,
}
# A prefix operator's operand binds tighter than any binary operator.
PREFIX_PRECEDENCE = 7

# Node type of each literal token, by kind (or by text, for keywords).
_LITERALS = {
    "number": "NumberLiteral", "string": "StringLiteral",
    "true": "BooleanLiteral", "false": "BooleanLiteral",
}


class Parser:
    def __init__(self, project: ProjectAst, file_name: str, text: str):
        self.project = project
        self.file_name = file_name
        self.file_id = project.add_file(file_name, text)
        self.toks = lex(text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing --

    def peek(self, ahead: int = 0) -> Tok:
        # The list ends in `eof` and `advance` never moves past it, so a
        # lookahead of 1 is only taken from a token that is not `eof`.
        return self.toks[self.pos + ahead]

    def advance(self) -> Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.toks[self.pos]
        return tok.text == text and tok.kind in ("punct", "keyword")

    def error(self, message: str) -> MiniLangParseError:
        """A parse error at the next token; at a token the lexer could not
        read, the error says what the lexer found there."""
        tok = self.peek()
        if tok.kind == "stray":
            message = f"stray character {tok.text[0]!r}"
        elif tok.kind == "unterminated":
            message = "unterminated string literal"
        return MiniLangParseError(Diagnostic(self.file_name, tok.line, tok.col, message))

    def expect(self, text: str) -> Tok:
        if self.at(text):
            return self.advance()
        found = self.peek().text
        raise self.error(
            f"expected {text!r}, found {found!r}" if found else f"expected {text!r}, found end of file"
        )

    def expect_ident(self) -> Tok:
        if self.peek().kind != "ident":
            raise self.error(f"expected identifier, found {self.peek().text!r}")
        return self.advance()

    def node(self, type_name: str, start: Tok, end: Tok | None = None, **props) -> int:
        """Add a node spanning `start` to `end`, by default the last token
        consumed. Props, given in schema declaration order, as None are left
        out."""
        end = end or self.toks[self.pos - 1]
        kept: dict = {}
        kids: list[int] = []
        for name, value in props.items():
            if value is not None:
                kept[name] = value
                if type(value) is int:
                    kids.append(value)
                elif type(value) is list:
                    kids += value
        return self.project.add_node(type_name, self.file_id, start.start, end.end, start.line,
                                     kept, kids or ())

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
                raise self.error(f"expected type declaration, found {self.peek().text!r}")
        return self.project.add_node("CompilationUnit", self.file_id, 0, self.toks[-1].end, 1,
                                     {"types": types}, types or ())

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
        self.expect("}")
        return self.node(
            "TypeDeclaration", start, interface="true" if is_interface else "false",
            name=name.text, bodyDeclarations=members,
        )

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
                params.append(
                    self.node("SingleVariableDeclaration", ptype, type=ptype.text, name=pname.text)
                )
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        body: int | None = None
        if self.at(";"):
            self.advance()
        else:
            body = self.parse_block()
        return self.node(
            "MethodDeclaration", type_tok, returnType=type_tok.text, name=name.text,
            parameters=params, body=body,
        )

    def parse_field(self, type_tok: Tok, first_name: Tok) -> int:
        fragments = [self.parse_fragment(first_name)]
        while self.at(","):
            self.advance()
            fragments.append(self.parse_fragment(self.expect_ident()))
        self.expect(";")
        return self.node("FieldDeclaration", type_tok, type=type_tok.text, fragments=fragments)

    def parse_fragment(self, name: Tok) -> int:
        init: int | None = None
        if self.at("="):
            self.advance()
            init = self.parse_expression()
        return self.node("VariableDeclaration", name, name=name.text, initializer=init)

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
        self.expect("}")
        return self.node("Block", start, statements=statements)

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
            self.advance()
            expr = None if self.at(";") else self.parse_expression()
            self.expect(";")
            return self.node("ReturnStatement", tok, expression=expr)
        if tok.text in ("break", "continue"):
            self.advance()
            self.expect(";")
            return self.node("BreakStatement" if tok.text == "break" else "ContinueStatement", tok)
        if tok.text == "throw":
            self.advance()
            expr = self.parse_expression()
            self.expect(";")
            return self.node("ThrowStatement", tok, expression=expr)
        if tok.text == "try":
            return self.parse_try()
        if tok.kind == "ident" and self.peek(1).kind == "ident":
            return self.parse_local_declaration()
        expr = self.parse_expression()
        self.expect(";")
        return self.node("ExpressionStatement", tok, expression=expr)

    def parse_local_declaration(self, *, consume_semi: bool = True) -> int:
        type_tok = self.expect_ident()
        fragments = [self.parse_fragment(self.expect_ident())]
        while self.at(","):
            self.advance()
            fragments.append(self.parse_fragment(self.expect_ident()))
        if consume_semi:
            self.expect(";")
        return self.node(
            "VariableDeclarationStatement", type_tok, type=type_tok.text, fragments=fragments
        )

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
        return self.node(
            "IfStatement", start, expression=cond, thenStatement=then, elseStatement=els
        )

    def parse_while(self) -> int:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return self.node("WhileStatement", start, expression=cond, body=body)

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
        return self.node(
            "ForStatement", start, initializers=initializers, expression=cond,
            updaters=updaters, body=body,
        )

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
            exc_id = self.node(
                "SingleVariableDeclaration", etype, ename, type=etype.text, name=ename.text
            )
            cbody = self.parse_block()
            clauses.append(self.node("CatchClause", cstart, exception=exc_id, body=cbody))
        if not clauses:
            raise self.error("try requires at least one catch")
        return self.node("TryStatement", start, body=body, catchClauses=clauses)

    # -- expressions --

    def parse_expression(self, min_prec: int = 0) -> int:
        """Precedence climbing: an expression whose binary operators all bind
        at least as tightly as `min_prec`."""
        start = self.toks[self.pos]
        if start.kind == "punct" and start.text in ("!", "-"):
            left = self.parse_prefix()
        else:
            left = self.parse_postfix()
        while True:
            op = self.toks[self.pos]
            # Only punctuation tokens can spell an operator's text.
            prec = BINARY_PRECEDENCE.get(op.text, -1)
            if prec < min_prec:
                return left
            if prec == 0 and self.project.type[left] not in ("Name", "FieldAccess"):
                return left
            self.pos += 1
            # `=` is right-associative: its right side starts at its own level.
            right = self.parse_expression(prec + 1 if prec else 0)
            if prec:
                left = self.node(
                    "InfixExpression", start, leftOperand=left, operator=op.text,
                    rightOperand=right,
                )
            else:
                left = self.node(
                    "Assignment", start, leftHandSide=left, operator="=", rightHandSide=right
                )

    def parse_prefix(self) -> int:
        op = self.advance()
        if op.text == "-" and self.peek().kind == "number":
            num = self.advance()
            return self.node("NumberLiteral", op, token="-" + num.text)
        operand = self.parse_expression(PREFIX_PRECEDENCE)
        return self.node("PrefixExpression", op, operator=op.text, operand=operand)

    def parse_postfix(self) -> int:
        start = self.peek()
        expr = self.parse_primary()
        while self.at("."):
            self.advance()
            name = self.expect_ident()
            if self.at("("):
                args = self.parse_arguments()
                expr = self.node(
                    "MethodInvocation", start, expression=expr, name=name.text, arguments=args
                )
            else:
                expr = self.node("FieldAccess", start, expression=expr, name=name.text)
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
            self.advance()
            cls = self.expect_ident()
            args = self.parse_arguments()
            return self.node("ClassInstanceCreation", tok, type=cls.text, arguments=args)
        literal = _LITERALS.get(tok.kind if tok.kind != "keyword" else tok.text)
        if literal is not None:
            self.advance()
            return self.node(literal, tok, token=tok.text)
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                args = self.parse_arguments()
                return self.node("MethodInvocation", tok, name=tok.text, arguments=args)
            return self.node("Name", tok, identifier=tok.text)
        raise self.error(
            f"expected expression, found {tok.text!r}" if tok.text else "expected expression, found end of file"
        )


def parse_minilang(project: ProjectAst, file_name: str, text: str) -> tuple[int, list[Diagnostic]]:
    """Parse one source file into the project arena.

    Returns the compilation-unit node id and any recovered diagnostics.
    Raises MiniLangParseError when no tree can be produced, and then leaves
    the arena as it found it.
    """
    nodes, files = len(project.type), len(project.files)
    parser = Parser(project, file_name, text)
    try:
        root = parser.parse_compilation_unit()
    except RecursionError:
        tok = parser.peek()  # where the interpreter's stack ran out
        project.truncate(nodes, files)
        raise MiniLangParseError(
            Diagnostic(file_name, tok.line, tok.col, "source nested too deeply")
        ) from None
    except MiniLangParseError:
        project.truncate(nodes, files)
        raise
    return root, parser.diagnostics
