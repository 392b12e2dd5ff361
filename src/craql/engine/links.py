"""Link keys: where-clause conjuncts that let a select take its candidates
from a lookup instead of the pattern type's whole rank list.

A link key ties the pattern variable p to a node V that stays fixed for the
whole select, as in `V == p.methodbinding()`. The evaluator then scans only
the nodes linked to V (`Evaluator._link_ranks` narrows the pattern type's
rank list to them) and still runs the whole where clause on each.
`find_link_key` decides, from the query's text alone, whether a select may
do so, and `LinkKey.fixed_node` the rest (that V holds a node) when the
select starts.
"""

from __future__ import annotations

from craql.astcore import NodeTypeSchema
from craql.engine.runtime import NodeRef, UNDEFINED, Value
from craql.query.ast import (
    Assign,
    Call,
    CallQuery,
    Expr,
    If,
    IncrDecr,
    Infix,
    MOD_NONE,
    Prefix,
    SINGLE,
    SelectQuery,
    SelectStmt,
    Stmt,
    TypeLit,
    VarRef,
    While,
)

# How a link key ties the pattern variable p to the fixed node V. The two
# binding links are named after the `BindingTable` field they read.
LINK_METHOD = "method"  # V == p.methodbinding()
LINK_TYPE = "type"  # V == p.typebinding()
LINK_CHILD = "child"  # V.isparent(p), V == p.parent()
LINK_METHOD_CHILD = "method-child"  # V.isparent(p.methodbinding())

_EQUAL_LINKS = {"methodbinding": LINK_METHOD, "typebinding": LINK_TYPE, "parent": LINK_CHILD}
# The node functions that return a boolean.
PROBES = frozenset({"contains", "directly_contains", "isparent", "isnodetype"})


class LinkKey:
    """A where-clause conjunct that ties the pattern variable to the node in
    variable `var` by `link`; `reads` names the other variables the
    conjuncts before it read."""

    # A plain class: a dataclass would add its set-up to every CLI launch.
    __slots__ = ("var", "link", "reads")

    def __init__(self, var: str, link: str, reads: frozenset[str]):
        self.var, self.link, self.reads = var, link, reads

    def fixed_node(self, variables: dict[str, Value]) -> int | None:
        """The node `var` holds, if the key can be used now: `var` holds a
        node and every variable in `reads` holds a node or nothing, so no
        conjunct before the key can raise."""
        fixed = variables.get(self.var)
        if not isinstance(fixed, NodeRef):
            return None
        for name in self.reads:
            value = variables.get(name, UNDEFINED)
            if value is not UNDEFINED and not isinstance(value, NodeRef):
                return None
        return fixed.id


def find_link_key(q: SelectQuery, schema: NodeTypeSchema) -> LinkKey | None:
    """The select's link key, if its candidates may come from it.

    The select must have a single pattern and no modifier. The key is the
    first conjunct of the where clause in one of the `LINK_*` forms, with V
    a variable other than the pattern's. Every conjunct before it must be a
    node probe (`_is_probe`), which cannot print, and which cannot raise
    while the variables it reads hold nodes. The body must not be able to
    write V, the pattern variable or a probed variable: no assignment, no
    nested select that binds it and no callquery.
    """
    pat = q.pattern
    written: set[str] = set()
    if (pat.kind != SINGLE or q.modifier != MOD_NONE or q.where is None
            or not _writes(q.body, written) or pat.var1 in written):
        return None
    reads: set[str] = set()
    for conjunct in _conjuncts(q.where):
        key = _link(conjunct, pat.var1)
        if key is not None:
            var, link = key
            if var in written or reads & written:
                return None
            return LinkKey(var, link, frozenset(reads - {pat.var1}))
        if not _is_probe(conjunct, schema, reads):
            return None
    return None


def _conjuncts(e: Expr) -> list[Expr]:
    if isinstance(e, Infix) and e.op == "&&":
        return _conjuncts(e.lhs) + _conjuncts(e.rhs)
    return [e]


def _link(e: Expr, var: str) -> tuple[str, str] | None:
    """(V, link) when `e` ties pattern variable `var` to variable V."""
    if isinstance(e, Infix) and e.op == "==":
        for fixed, probe in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
            name = _accessor_of(probe, var)
            if name in _EQUAL_LINKS and isinstance(fixed, VarRef) and fixed.name != var:
                return fixed.name, _EQUAL_LINKS[name]
    elif (isinstance(e, Call) and e.name == "isparent" and len(e.args) == 1
          and isinstance(e.receiver, VarRef) and e.receiver.name != var):
        arg = e.args[0]
        if isinstance(arg, VarRef) and arg.name == var:
            return e.receiver.name, LINK_CHILD
        if _accessor_of(arg, var) == "methodbinding":
            return e.receiver.name, LINK_METHOD_CHILD
    return None


def _accessor_of(e: Expr, var: str) -> str | None:
    """The name of `e` when it is a call `var.name()` without arguments."""
    if (isinstance(e, Call) and not e.args and isinstance(e.receiver, VarRef)
            and e.receiver.name == var):
        return e.name
    return None


def _is_probe(e: Expr, schema: NodeTypeSchema, reads: set[str]) -> bool:
    """Whether `e` is `x.f(y)` or its negation, with `f` one of `PROBES`,
    `x` a variable and `y` a variable or a known type; adds the variables
    to `reads`. Such a probe returns a boolean when they hold nodes or
    nothing."""
    if isinstance(e, Prefix) and e.op == "!":
        return _is_probe(e.operand, schema, reads)
    if not (isinstance(e, Call) and e.name in PROBES and isinstance(e.receiver, VarRef)
            and len(e.args) == 1):
        return False
    arg = e.args[0]
    if isinstance(arg, TypeLit) and schema.knows(arg.name):
        reads.add(e.receiver.name)
        return True
    if isinstance(arg, VarRef) and e.name != "isnodetype":
        reads.update((e.receiver.name, arg.name))
        return True
    return False


def _writes(body: list[Stmt], written: set[str]) -> bool:
    """Add the variables `body` can write to `written`; False if it can run
    a callquery, whose query can write any."""
    for s in body:
        if isinstance(s, (Assign, IncrDecr)):
            written.add(s.target)
        elif isinstance(s, If):
            if not (_writes(s.then_body, written) and _writes(s.else_body or [], written)):
                return False
        elif isinstance(s, While):
            if not _writes(s.body, written):
                return False
        elif isinstance(s, SelectStmt):
            written.update(s.query.pattern.variables())
            if not _writes(s.query.body, written):
                return False
        elif isinstance(s, CallQuery):
            return False
    return True
