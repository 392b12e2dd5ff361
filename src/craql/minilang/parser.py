"""Parser for MiniLang (`.mj` files): a columnar regex lexer, recursive
descent for declarations and statements, and precedence climbing for
expressions.

Builds nodes directly into a shared :class:`ProjectAst` arena. Statement and
member level errors are recovered by skipping to the next `;` or `}` and
recorded as diagnostics; junk at the top level is unrecoverable and raises
:class:`MiniLangParseError` (the runner then skips the file). Text the lexer
cannot read, a stray character or an unterminated string, becomes a token
that no rule accepts, so it is such an error at the place it appears.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable
from itertools import accumulate, chain
from operator import itemgetter

from craql.astcore import PropValue, ProjectAst
from craql.diagnostics import Diagnostic

KEYWORDS = {
    "class", "interface", "new", "if", "else", "while", "for", "return",
    "break", "continue", "throw", "try", "catch", "true", "false",
}
PUNCTUATORS = {"==", "!=", "<=", ">=", "&&", "||", *"{}()[];,.=<>!+-*/"}

# Each match is one token: group 1 is the whitespace and `//` comments
# before it, group 2 the token, tried in order. A lone `"` is an
# unterminated string, and `.` takes any other character but a newline as a
# stray one. `\Z` matches the empty `eof` token; after trailing whitespace
# `findall` also returns a second, empty match there, which `lex` drops.
# After the greedy group 1 the token always matches, so nothing backtracks;
# group 1 has no alternation inside its star, so the engine keeps little
# state while it skips space.
_TOKEN = re.compile(r"""
    (\s*(?://[^\n]*\s*)*)
    ( [^\W\d]\w*
    | [0-9]+
    | "(?:[^"\\\n]|\\.)*"
    | ==|!=|<=|>=|&&|\|\||[{}()\[\];,.=<>!+\-*/]
    | .
    | \Z
    )
""", re.VERBOSE)
_NEWLINE = re.compile("\n")

# Token kinds: ident | keyword | number | string | punct | stray |
# unterminated | eof. A token's full text gives the kind of keywords,
# punctuators and the lone `"`; any other token's first character gives it.
# `\w` admits digits such as "²" that start no identifier, so such a
# "word" is a stray token.
_KIND_BY_TEXT = {
    **dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys(PUNCTUATORS, "punct"),
    '"': "unterminated",
}
_FIRST = itemgetter(slice(0, 1))


class _KindByFirst(dict):
    """Token kind by first character, filled in on a character's first
    lookup, so that `lex` looks kinds up without a Python call per token."""

    def __missing__(self, first: str) -> str:
        kind = self[first] = (
            "eof" if not first else "string" if first == '"'
            else "number" if "0" <= first <= "9"
            else "ident" if first.isalpha() or first == "_" else "stray"
        )
        return kind


_KIND_BY_FIRST = _KindByFirst()


class MiniLangParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def lex(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The tokens of `text` as parallel columns: kinds, texts, and start and
    end offsets. The last token is `eof`, an empty one at the end of text."""
    pieces = _TOKEN.findall(text)
    if len(pieces) > 1 and pieces[-2][1] == "":
        pieces.pop()
    flat = list(chain.from_iterable(pieces))  # space, token, space, token, ...
    texts = flat[1::2]
    bounds = list(accumulate(map(len, flat), initial=0))
    by_first = map(_KIND_BY_FIRST.__getitem__, map(_FIRST, texts))
    kinds = list(map(_KIND_BY_TEXT.get, texts, by_first))
    return kinds, texts, bounds[1::2], bounds[2::2]


def newline_offsets(text: str) -> list[int]:
    """The offset of each newline in `text`, in order."""
    return [m.start() for m in _NEWLINE.finditer(text)]


def line_and_column(newlines: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`, given the offsets of the
    text's newlines."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - newlines[line - 1] if line else offset + 1


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
        # A token is its index into these columns.
        self.kinds, self.texts, self.starts, self.ends = lex(text)
        self.newlines = newline_offsets(text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing --

    def advance(self) -> int:
        # `eof` is the last token and is never consumed, so the token after
        # the next one exists whenever the next one is not `eof`.
        tok = self.pos
        if self.kinds[tok] != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        # No ident, number, string or stray token spells a keyword or
        # punctuator, so the text alone tells. Only `eof` spells "", so a
        # token found at a keyword or punctuator is consumed with
        # `self.pos += 1`, as `expect`, `commas` and the expression rules do.
        return self.texts[self.pos] == text

    def error(self, message: str) -> MiniLangParseError:
        """A parse error at the next token; at a token the lexer could not
        read, the error says what the lexer found there."""
        tok = self.pos
        if self.kinds[tok] == "stray":
            message = f"stray character {self.texts[tok][0]!r}"
        elif self.kinds[tok] == "unterminated":
            message = "unterminated string literal"
        line, col = line_and_column(self.newlines, self.starts[tok])
        return MiniLangParseError(Diagnostic(self.file_name, line, col, message))

    def expect(self, text: str) -> int:
        tok = self.pos
        found = self.texts[tok]
        if found == text:
            self.pos = tok + 1
            return tok
        raise self.error(
            f"expected {text!r}, found {found!r}" if found else f"expected {text!r}, found end of file"
        )

    def expect_ident(self) -> int:
        if self.kinds[self.pos] != "ident":
            raise self.error(f"expected identifier, found {self.texts[self.pos]!r}")
        return self.advance()

    def node(self, type_name: str, start: int, props: dict[str, PropValue],
             kids: list[int] | tuple[()] = ()) -> int:
        """Add a node spanning token `start` to the last token consumed, with
        `props` (no absent child among them) and `kids`, its child ids in
        the order the schema declares its properties."""
        offset = self.starts[start]
        return self.project.add_node(type_name, self.file_id, offset, self.ends[self.pos - 1],
                                     bisect_left(self.newlines, offset) + 1, props, kids)

    def commas(self, item: Callable[[], int]) -> list[int]:
        """One or more nodes parsed by `item`, separated by commas."""
        items = [item()]
        while self.texts[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return items

    # -- error recovery --

    def recover(self, exc: MiniLangParseError, mark: int) -> None:
        """Record `exc`, drop the nodes the failed statement or member built
        from id `mark` on, and skip to the end of its text."""
        self.diagnostics.append(exc.diagnostic)
        self.project.truncate(mark, len(self.project.files))
        depth = 0
        while True:
            if self.kinds[self.pos] == "eof":
                return
            text = self.texts[self.pos]
            if text == "{":
                depth += 1
            elif text == "}":
                if depth == 0:
                    return
                depth -= 1
            elif text == ";" and depth == 0:
                self.advance()
                return
            self.advance()

    # -- grammar --

    def parse_compilation_unit(self) -> int:
        types: list[int] = []
        while self.kinds[self.pos] != "eof":
            if self.at("class") or self.at("interface"):
                types.append(self.parse_type_declaration())
            else:
                raise self.error(f"expected type declaration, found {self.texts[self.pos]!r}")
        return self.project.add_node("CompilationUnit", self.file_id, 0, self.ends[-1], 1,
                                     {"types": types}, types)

    def parse_type_declaration(self) -> int:
        start = self.advance()  # class | interface
        is_interface = self.texts[start] == "interface"
        name = self.expect_ident()
        self.expect("{")
        members: list[int] = []
        while not self.at("}") and self.kinds[self.pos] != "eof":
            mark = len(self.project.type)
            try:
                members.append(self.parse_member())
            except MiniLangParseError as exc:
                self.recover(exc, mark)
        self.expect("}")
        return self.node("TypeDeclaration", start, {
            "interface": "true" if is_interface else "false", "name": self.texts[name],
            "bodyDeclarations": members}, members)

    def parse_member(self) -> int:
        type_tok = self.expect_ident()
        name = self.expect_ident()
        if self.at("("):
            return self.parse_method(type_tok, name)
        self.pos = type_tok  # a field: read its type again as a declaration's
        return self.parse_declaration("FieldDeclaration")

    def parse_method(self, type_tok: int, name: int) -> int:
        self.expect("(")
        params = [] if self.at(")") else self.commas(self.parse_parameter)
        self.expect(")")
        props = {"returnType": self.texts[type_tok], "name": self.texts[name],
                 "parameters": params}
        if self.at(";"):
            self.advance()
            return self.node("MethodDeclaration", type_tok, props, params)
        body = props["body"] = self.parse_block()
        return self.node("MethodDeclaration", type_tok, props, [*params, body])

    def parse_parameter(self) -> int:
        type_tok = self.expect_ident()
        name = self.expect_ident()
        return self.node("SingleVariableDeclaration", type_tok,
                         {"type": self.texts[type_tok], "name": self.texts[name]})

    def parse_declaration(self, type_name: str, *, consume_semi: bool = True) -> int:
        """A field or local declaration: a type and one or more fragments."""
        type_tok = self.expect_ident()
        fragments = self.commas(self.parse_fragment)
        if consume_semi:
            self.expect(";")
        return self.node(type_name, type_tok, {"type": self.texts[type_tok],
                                               "fragments": fragments}, fragments)

    def parse_fragment(self) -> int:
        name = self.expect_ident()
        props: dict[str, PropValue] = {"name": self.texts[name]}
        if not self.at("="):
            return self.node("VariableDeclaration", name, props)
        self.advance()
        init = props["initializer"] = self.parse_expression()
        return self.node("VariableDeclaration", name, props, [init])

    # -- statements --

    def parse_block(self) -> int:
        start = self.expect("{")
        statements: list[int] = []
        while not self.at("}") and self.kinds[self.pos] != "eof":
            mark = len(self.project.type)
            try:
                statements.append(self.parse_statement())
            except MiniLangParseError as exc:
                self.recover(exc, mark)
        self.expect("}")
        return self.node("Block", start, {"statements": statements}, statements)

    def parse_statement(self) -> int:
        tok = self.pos
        text = self.texts[tok]
        if text == "{":
            return self.parse_block()
        if text == "if":
            return self.parse_if()
        if text == "while":
            return self.parse_while()
        if text == "for":
            return self.parse_for()
        if text == "return":
            self.advance()
            if self.at(";"):
                self.advance()
                return self.node("ReturnStatement", tok, {})
            expr = self.parse_expression()
            self.expect(";")
            return self.node("ReturnStatement", tok, {"expression": expr}, [expr])
        if text in ("break", "continue"):
            self.advance()
            self.expect(";")
            return self.node("BreakStatement" if text == "break" else "ContinueStatement", tok, {})
        if text == "throw":
            self.advance()
            expr = self.parse_expression()
            self.expect(";")
            return self.node("ThrowStatement", tok, {"expression": expr}, [expr])
        if text == "try":
            return self.parse_try()
        if self.kinds[tok] == "ident" and self.kinds[tok + 1] == "ident":
            return self.parse_declaration("VariableDeclarationStatement")
        expr = self.parse_expression()
        self.expect(";")
        return self.node("ExpressionStatement", tok, {"expression": expr}, [expr])

    def parse_if(self) -> int:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        props = {"expression": cond, "thenStatement": then}
        if not self.at("else"):
            return self.node("IfStatement", start, props, [cond, then])
        self.advance()
        els = props["elseStatement"] = self.parse_statement()
        return self.node("IfStatement", start, props, [cond, then, els])

    def parse_while(self) -> int:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return self.node("WhileStatement", start, {"expression": cond, "body": body},
                         [cond, body])

    def parse_for(self) -> int:
        start = self.expect("for")
        self.expect("(")
        if self.kinds[self.pos] == "ident" and self.kinds[self.pos + 1] == "ident":
            initializers = [
                self.parse_declaration("VariableDeclarationStatement", consume_semi=False)]
        else:
            initializers = [] if self.at(";") else self.commas(self.parse_expression)
        self.expect(";")
        props: dict[str, PropValue] = {"initializers": initializers}
        kids = initializers[:]
        if not self.at(";"):
            cond = props["expression"] = self.parse_expression()
            kids.append(cond)
        self.expect(";")
        updaters = props["updaters"] = [] if self.at(")") else self.commas(self.parse_expression)
        self.expect(")")
        body = props["body"] = self.parse_statement()
        kids += updaters
        kids.append(body)
        return self.node("ForStatement", start, props, kids)

    def parse_try(self) -> int:
        start = self.expect("try")
        body = self.parse_block()
        clauses: list[int] = []
        while self.at("catch"):
            cstart = self.advance()
            self.expect("(")
            exc_id = self.parse_parameter()
            self.expect(")")
            cbody = self.parse_block()
            clauses.append(self.node("CatchClause", cstart, {"exception": exc_id, "body": cbody},
                                     [exc_id, cbody]))
        if not clauses:
            raise self.error("try requires at least one catch")
        return self.node("TryStatement", start, {"body": body, "catchClauses": clauses},
                         [body, *clauses])

    # -- expressions: `at` and `advance` written out, as these rules run
    # once or more per token --

    def parse_expression(self, min_prec: int = 0) -> int:
        """Precedence climbing: an expression whose binary operators all bind
        at least as tightly as `min_prec`."""
        texts = self.texts
        start = self.pos
        if texts[start] in ("!", "-"):
            left = self.parse_prefix()
        else:
            left = self.parse_postfix()
        while True:
            op = texts[self.pos]
            prec = BINARY_PRECEDENCE.get(op, -1)
            if prec < min_prec:
                return left
            if prec == 0 and self.project.type[left] not in ("Name", "FieldAccess"):
                return left
            self.pos += 1
            # `=` is right-associative: its right side starts at its own level.
            right = self.parse_expression(prec + 1 if prec else 0)
            if prec:
                left = self.node("InfixExpression", start, {
                    "leftOperand": left, "operator": op, "rightOperand": right}, [left, right])
            else:
                left = self.node("Assignment", start, {
                    "leftHandSide": left, "operator": "=", "rightHandSide": right}, [left, right])

    def parse_prefix(self) -> int:
        op = self.pos
        self.pos += 1
        if self.texts[op] == "-" and self.kinds[op + 1] == "number":
            self.pos += 1
            return self.node("NumberLiteral", op, {"token": "-" + self.texts[op + 1]})
        operand = self.parse_expression(PREFIX_PRECEDENCE)
        return self.node("PrefixExpression", op, {"operator": self.texts[op], "operand": operand},
                         [operand])

    def parse_postfix(self) -> int:
        start = self.pos
        expr = self.parse_primary()
        texts = self.texts
        while texts[self.pos] == ".":
            self.pos += 1
            tok = self.expect_ident()
            if texts[tok + 1] == "(":
                args = self.parse_arguments()
                expr = self.node("MethodInvocation", start, {
                    "expression": expr, "name": texts[tok], "arguments": args}, [expr, *args])
            else:
                expr = self.node("FieldAccess", start, {"expression": expr, "name": texts[tok]},
                                 [expr])
        return expr

    def parse_arguments(self) -> list[int]:
        self.expect("(")
        args = [] if self.at(")") else self.commas(self.parse_expression)
        self.expect(")")
        return args

    def parse_primary(self) -> int:
        tok = self.pos
        kind, text = self.kinds[tok], self.texts[tok]
        if kind == "ident":
            self.pos = tok + 1
            if self.texts[tok + 1] == "(":
                args = self.parse_arguments()
                return self.node("MethodInvocation", tok, {"name": text, "arguments": args}, args)
            return self.node("Name", tok, {"identifier": text})
        literal = _LITERALS.get(kind if kind != "keyword" else text)
        if literal is not None:
            self.pos = tok + 1
            return self.node(literal, tok, {"token": text})
        if text == "(":
            self.pos = tok + 1
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if text == "new":
            self.pos = tok + 1
            cls = self.expect_ident()
            args = self.parse_arguments()
            return self.node("ClassInstanceCreation", tok, {"type": self.texts[cls],
                                                             "arguments": args}, args)
        raise self.error(
            f"expected expression, found {text!r}" if text else "expected expression, found end of file"
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
        # where the interpreter's stack ran out
        line, col = line_and_column(parser.newlines, parser.starts[parser.pos])
        project.truncate(nodes, files)
        raise MiniLangParseError(
            Diagnostic(file_name, line, col, "source nested too deeply")
        ) from None
    except MiniLangParseError:
        project.truncate(nodes, files)
        raise
    return root, parser.diagnostics
