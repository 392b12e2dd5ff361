"""Where-clause splits: which conjuncts let a select's plan look up its
candidates, and which it may test once instead of once per candidate.

A where clause `C1 && C2 && ...` splits three ways:

* The *link key* ties the pattern variable p to a node V that stays fixed
  for the whole select, as in `V == p.methodbinding()`. The evaluator then
  scans only the nodes linked to V (`Evaluator._link_ranks` narrows the
  pattern type's rank list to them) and still runs the rest of the clause
  on each. `find_link_key` decides from the query's text alone whether a
  select may do so, and `LinkKey.fixed_node` the rest (that V holds a
  node) when the select starts.
* The *invariant* conjuncts cannot change within the select, such as
  `s1.isnodetype({ReturnStatement}) || ...` in a select over s2: they
  mention no pattern variable, they are node probes the body cannot
  change, and no conjunct before them can print or raise. `find_hoist`
  finds them, and `Hoist.ready` checks, as the select starts, that the
  variables they and the conjuncts before them read hold nodes.
* The *residual* is the clause without the invariant conjuncts. When the
  invariant part holds, it gives each candidate the outcome and the
  effects of the whole clause; when it fails, every candidate fails and no
  conjunct would have printed or raised.
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
    IntLit,
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
# The node functions that return a number.
_MEASURES = frozenset({"position", "linenumber", "depth"})
_COMPARISONS = frozenset({"==", "!=", "<", "<=", ">", ">="})


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
        return fixed.id if _hold_nodes(variables, self.reads, (self.var,)) else None


def _hold_nodes(variables: dict[str, Value], reads: frozenset[str],
                nodes: frozenset[str] | tuple[str, ...] = ()) -> bool:
    """Whether each variable in `reads` holds a node or nothing and each in
    `nodes` a node."""
    for name in nodes:
        if not isinstance(variables.get(name), NodeRef):
            return False
    for name in reads:
        value = variables.get(name, UNDEFINED)
        if value is not UNDEFINED and not isinstance(value, NodeRef):
            return False
    return True


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


class Hoist:
    """The invariant conjuncts of a where clause (`invariant`, joined by
    `&&`) and the clause without them (`residual`, None when nothing is
    left). Before the invariant part is tested, each variable in `reads`
    must hold a node or nothing and each in `nodes` a node."""

    __slots__ = ("invariant", "residual", "reads", "nodes")

    def __init__(self, invariant: Expr, residual: Expr | None, reads: frozenset[str],
                 nodes: frozenset[str]):
        self.invariant, self.residual = invariant, residual
        self.reads, self.nodes = reads, nodes

    def ready(self, variables: dict[str, Value]) -> bool:
        """Whether no conjunct up to the last invariant one can raise now."""
        return _hold_nodes(variables, self.reads, self.nodes)


def find_hoist(q: SelectQuery, schema: NodeTypeSchema) -> Hoist | None:
    """The select's invariant conjuncts, if it has any.

    A conjunct is invariant when it is a node probe (`_is_probe`) that
    reads no pattern variable and no variable the body can write, and every
    conjunct before it is a probe or a comparison of numbers that node
    functions and literals give (`_is_safe`): neither can print, and
    neither can raise while the variables it reads hold nodes. A pattern
    variable always does while the clause runs; the others are checked
    when the select starts, and the body cannot run before the invariant
    part holds.
    """
    written: set[str] = set()
    if q.where is None or not _writes(q.body, written):
        return None
    pattern = set(q.pattern.variables())
    invariant: list[Expr] = []
    residual: list[Expr] = []
    reads: set[str] = set()
    nodes: set[str] = set()
    conjuncts = _conjuncts(q.where)
    for i, conjunct in enumerate(conjuncts):
        probed: set[str] = set()
        if _is_probe(conjunct, schema, probed) and not probed & (pattern | written):
            invariant.append(conjunct)
            reads |= probed
        elif _is_safe(conjunct, schema, probed, nodes):
            residual.append(conjunct)
            reads |= probed
        else:
            residual += conjuncts[i:]
            break
    if not invariant:
        return None
    return Hoist(_join(invariant), _join(residual), frozenset(reads - pattern),
                 frozenset(nodes - pattern))


def _join(conjuncts: list[Expr]) -> Expr | None:
    if not conjuncts:
        return None
    joined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        joined = Infix("&&", joined, conjunct)
    return joined


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
    """Whether `e` is `x.f(y)`, or a negation or `||` of such calls, with
    `f` one of `PROBES`, `x` a variable and `y` a variable or a known type;
    adds the variables to `reads`. Such a probe returns a boolean when they
    hold nodes or nothing."""
    if isinstance(e, Prefix) and e.op == "!":
        return _is_probe(e.operand, schema, reads)
    if isinstance(e, Infix) and e.op == "||":
        return _is_probe(e.lhs, schema, reads) and _is_probe(e.rhs, schema, reads)
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


def _is_safe(e: Expr, schema: NodeTypeSchema, reads: set[str], nodes: set[str]) -> bool:
    """Whether `e` is a probe, adding its variables to `reads`, or compares
    two numbers that are literals or `x.f()` with `f` one of `_MEASURES`,
    adding each such x to `nodes`. Neither can print, and neither raises
    while the variables in `reads` hold nodes or nothing and those in
    `nodes` hold nodes."""
    if _is_probe(e, schema, reads):
        return True
    return (isinstance(e, Infix) and e.op in _COMPARISONS
            and _is_measure(e.lhs, nodes) and _is_measure(e.rhs, nodes))


def _is_measure(e: Expr, nodes: set[str]) -> bool:
    if isinstance(e, IntLit):
        return True
    if (isinstance(e, Call) and e.name in _MEASURES and not e.args
            and isinstance(e.receiver, VarRef)):
        nodes.add(e.receiver.name)
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
