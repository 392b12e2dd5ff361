"""Query IR: patterns, expressions, statements, documents, their one walk,
and the unparser.

Position fields never participate in equality, so a document compares equal
to the reparse of its own unparse.
"""

from __future__ import annotations

from collections.abc import Iterator

from craql import Record

Pos = tuple[int, int]

MOD_NONE = "none"
MOD_OUTMOST = "outmost"
MOD_INMOST = "inmost"

INPUT_DEFAULT = "default"
INPUT_IN = "in"
INPUT_DIRECTLY_IN = "directly-in"

SINGLE = "single"
STAR = "star"
ELLIPSIS = "ellipsis"


class Expr(Record):
    pass


class IntLit(Expr):
    value: int
    pos: Pos = (0, 0)


class StrLit(Expr):
    value: str
    pos: Pos = (0, 0)


class BoolLit(Expr):
    value: bool
    pos: Pos = (0, 0)


class VarRef(Expr):
    name: str
    pos: Pos = (0, 0)


class TypeLit(Expr):
    """A braced node-type reference in argument position, e.g. contains({X})."""

    name: str
    pos: Pos = (0, 0)


class CountStar(Expr):
    pos: Pos = (0, 0)


class PropAccess(Expr):
    """base.name or base.{name}; resolution is late (property, then type)."""

    base: Expr
    name: str
    braced: bool
    pos: Pos = (0, 0)


class Call(Expr):
    name: str
    receiver: Expr | None
    args: list[Expr]
    pos: Pos = (0, 0)


class Infix(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    pos: Pos = (0, 0)


class Prefix(Expr):
    op: str
    operand: Expr
    pos: Pos = (0, 0)


class Stmt(Record):
    pass


class Assign(Stmt):
    target: str
    op: str  # = | += | -=
    value: Expr
    pos: Pos = (0, 0)


class IncrDecr(Stmt):
    target: str
    op: str  # ++ | --
    pos: Pos = (0, 0)


class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] | None
    pos: Pos = (0, 0)


class While(Stmt):
    cond: Expr
    body: list[Stmt]
    pos: Pos = (0, 0)


class InputSpec(Record):
    kind: str  # default | in | directly-in
    expr: Expr | None = None
    pos: Pos = (0, 0)


class Pattern(Record):
    kind: str  # single | star | ellipsis
    type1: str
    var1: str
    type2: str | None = None
    var2: str | None = None
    pos: Pos = (0, 0)

    def variables(self) -> list[str]:
        return [self.var1] if self.kind == SINGLE else [self.var1, self.var2]


class SelectQuery(Record):
    pattern: Pattern
    modifier: str
    input: InputSpec
    where: Expr | None
    body: list[Stmt]
    pos: Pos = (0, 0)


class SelectStmt(Stmt):
    query: SelectQuery
    pos: Pos = (0, 0)


class CallQuery(Stmt):
    label: str
    input: InputSpec | None
    pos: Pos = (0, 0)


class PrintStmt(Stmt):
    value: Expr
    pos: Pos = (0, 0)


class ExprStmt(Stmt):
    value: Expr
    pos: Pos = (0, 0)


class QueryDocument(Record):
    queries: list[tuple[str | None, SelectQuery]]
    source: str = "<string>"

    def labels(self) -> dict[str, SelectQuery]:
        return {label: q for label, q in self.queries if label is not None}

    @property
    def entry(self) -> SelectQuery:
        return self.queries[0][1]


Node = Expr | Stmt | InputSpec | Pattern | SelectQuery | QueryDocument

# The fields of each node class that can hold nodes or lists of them: all
# but `pos` and those annotated as plain values. Reversed, so that `walk`
# pushes the last one first and pops the first one first.
_SCALARS = frozenset({"str", "int", "bool", "str | None"})
_FIELDS = {
    cls: tuple(name for name, kind in reversed(cls.__annotations__.items())
               if name != "pos" and kind not in _SCALARS)
    for cls in (*Expr.__subclasses__(), *Stmt.__subclasses__(),
                InputSpec, Pattern, SelectQuery, QueryDocument)
}


def walk(node: Node | list) -> Iterator[Node]:
    """Every IR node in `node`, itself first, in pre-order and source order.

    A list stands for its items, and a document's `(label, select)` pairs
    for their selects. The walk keeps its own stack, so no depth of nesting
    exhausts Python's.
    """
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        names = _FIELDS.get(type(item))
        if names is not None:
            yield item
            for name in names:
                push(getattr(item, name))
        elif isinstance(item, (list, tuple)):
            stack += item[::-1]
        elif item is not None and not isinstance(item, str):
            raise TypeError(f"unknown query node {item!r}")


# ---------------------------------------------------------------------------
# Unparser. parse(unparse(parse(text))) must equal parse(text).
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6,
}
# Prefix operators bind tighter than every infix operator; property access
# and calls (PREFIX_PRECEDENCE + 2) bind tighter still.
PREFIX_PRECEDENCE = 8


def unparse_expr(e: Expr, parent_prec: int = 0) -> str:
    """`e` as query text, in parentheses when an operator of precedence
    `parent_prec` would otherwise bind into it. Keeps its own stack, as
    `walk` does: text on it is output, `(expr, precedence)` is expanded."""
    parts: list[str] = []
    stack: list = [(e, parent_prec)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        e, parent_prec = item
        if isinstance(e, IntLit):
            parts.append(str(e.value))
        elif isinstance(e, StrLit):
            escaped = e.value.replace("\\", "\\\\").replace('"', '\\"')
            parts.append('"' + escaped.replace("\n", "\\n").replace("\t", "\\t") + '"')
        elif isinstance(e, BoolLit):
            parts.append("true" if e.value else "false")
        elif isinstance(e, VarRef):
            parts.append(e.name)
        elif isinstance(e, TypeLit):
            parts.append("{" + e.name + "}")
        elif isinstance(e, CountStar):
            parts.append("count(*)")
        elif isinstance(e, PropAccess):
            name = f"{{{e.name}}}" if e.braced else e.name
            stack += ("." + name, (e.base, PREFIX_PRECEDENCE + 2))
        elif isinstance(e, Call):
            pieces = [] if e.receiver is None else [(e.receiver, PREFIX_PRECEDENCE + 2), "."]
            pieces.append(e.name + "(")
            for i, arg in enumerate(e.args):
                pieces += [", ", (arg, 0)] if i else [(arg, 0)]
            stack += (")", *reversed(pieces))
        elif isinstance(e, Prefix):
            # A nested prefix is parenthesized: `--` would lex as one operator.
            pieces = [e.op, (e.operand, PREFIX_PRECEDENCE + 1)]
            if parent_prec > PREFIX_PRECEDENCE:
                pieces = ["(", *pieces, ")"]
            stack += reversed(pieces)
        elif isinstance(e, Infix):
            prec = _PRECEDENCE[e.op]
            pieces = [(e.lhs, prec), f" {e.op} ", (e.rhs, prec + 1)]
            if parent_prec > prec:
                pieces = ["(", *pieces, ")"]
            stack += reversed(pieces)
        else:
            raise TypeError(f"unknown expression {e!r}")
    return "".join(parts)


def _unparse_input(spec: InputSpec | None) -> str:
    if spec is None or spec.kind == INPUT_DEFAULT:
        return ""
    keyword = "directly in" if spec.kind == INPUT_DIRECTLY_IN else "in"
    return f" {keyword} {unparse_expr(spec.expr)}"


def unparse_stmt(s: Stmt, indent: int) -> str:
    pad = "  " * indent
    if isinstance(s, Assign):
        return f"{pad}{s.target} {s.op} {unparse_expr(s.value)};"
    if isinstance(s, IncrDecr):
        return f"{pad}{s.target}{s.op};"
    if isinstance(s, If):
        out = f"{pad}if ({unparse_expr(s.cond)}) {{\n"
        out += "".join(unparse_stmt(t, indent + 1) + "\n" for t in s.then_body)
        out += pad + "}"
        if s.else_body is not None:
            out += " else {\n"
            out += "".join(unparse_stmt(t, indent + 1) + "\n" for t in s.else_body)
            out += pad + "}"
        return out
    if isinstance(s, While):
        out = f"{pad}while ({unparse_expr(s.cond)}) {{\n"
        out += "".join(unparse_stmt(t, indent + 1) + "\n" for t in s.body)
        return out + pad + "}"
    if isinstance(s, SelectStmt):
        return unparse_select(s.query, indent)
    if isinstance(s, CallQuery):
        return f"{pad}callquery({s.label}){_unparse_input(s.input)};"
    if isinstance(s, PrintStmt):
        return f"{pad}print({unparse_expr(s.value)});"
    if isinstance(s, ExprStmt):
        return f"{pad}{unparse_expr(s.value)};"
    raise TypeError(f"unknown statement {s!r}")


def unparse_select(q: SelectQuery, indent: int = 0, label: str | None = None) -> str:
    pad = "  " * indent
    p = q.pattern
    if p.kind == SINGLE:
        pattern = f"({{{p.type1}}} {p.var1})"
    else:
        op = "*" if p.kind == STAR else "..."
        pattern = f"({{{p.type1}}} {p.var1} {op} {{{p.type2}}} {p.var2})"
    head = pad
    if label is not None:
        head += f"{label} : "
    head += "select "
    if q.modifier != MOD_NONE:
        head += q.modifier + " "
    head += pattern + _unparse_input(q.input)
    if q.where is not None:
        head += f"\n{pad}where {unparse_expr(q.where)}"
    out = head + " {\n"
    out += "".join(unparse_stmt(s, indent + 1) + "\n" for s in q.body)
    return out + pad + "}"


def unparse_document(doc: QueryDocument) -> str:
    parts = [unparse_select(q, 0, label) for label, q in doc.queries]
    return "\n\n".join(parts) + "\n"
