"""Where-clause splits: which conjuncts let a select's plan look up its
candidates, and which it may test once instead of once per candidate.

`split_where` reads a where clause `C1 && C2 && ...` once, through its
*safe prefix*: the leading conjuncts that can neither print nor raise while
the variables they read hold nodes. From that one pass it takes two plans:

* The *invariant* conjuncts cannot change within the select, such as
  `s1.isnodetype({ReturnStatement}) || ...` in a select over s2: node
  probes in the safe prefix that read no pattern variable and no variable
  the body can write. The *residual* is the clause without them. When the
  invariant part holds, the residual gives each candidate the outcome and
  the effects of the whole clause; when it fails, every candidate fails
  and no conjunct would have printed or raised.
* The *link key* ties the pattern variable p to a node V that stays fixed
  for the whole select, as in `V == p.methodbinding()`. The evaluator then
  scans only the nodes linked to V (`Evaluator._link_ranks` narrows the
  pattern type's rank list to them) and still runs the rest of the clause
  on each. Every conjunct before the key is in the safe prefix, so the
  candidates the lookup skips would neither print nor raise there.

`Split.ready` checks, as the select starts, that the variables the safe
prefix reads up to the last conjunct either plan uses hold nodes; the key
also needs V to hold a node, which the evaluator tests apart, so a key
that cannot be used leaves the hoist in place.

The split reads the query IR alone: the evaluator compiles the clause,
which checks each `{T}` literal against the schema, before it splits it.
"""

from __future__ import annotations

from functools import reduce

from craql.engine.runtime import NodeRef, Value
from craql.query.ast import (
    Assign,
    Call,
    CallQuery,
    Expr,
    IncrDecr,
    Infix,
    IntLit,
    MOD_NONE,
    Prefix,
    SINGLE,
    SelectQuery,
    Stmt,
    TypeLit,
    VarRef,
    walk,
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


class Split:
    """A where clause read for a plan: its invariant conjuncts (`invariant`,
    joined by `&&`, None when there are none), the clause without them
    (`residual`, None when nothing is left) and its link key (`link`, the
    pair (V, how V ties the pattern variable), or None). Before either is
    used, each variable in `reads` must hold a node or nothing and each in
    `nodes` a node; the key also needs V to hold a node."""

    # A plain class: a dataclass would add its set-up to every CLI launch.
    __slots__ = ("invariant", "residual", "link", "reads", "nodes")

    def __init__(self, invariant: Expr | None, residual: Expr | None,
                 link: tuple[str, str] | None, reads: frozenset[str], nodes: frozenset[str]):
        self.invariant, self.residual, self.link = invariant, residual, link
        self.reads, self.nodes = reads, nodes

    def ready(self, variables: dict[str, Value]) -> bool:
        """Whether no conjunct before the last one the plan uses can raise now."""
        for name in self.nodes:
            if not isinstance(variables.get(name), NodeRef):
                return False
        for name in self.reads:
            value = variables.get(name)
            if value is not None and not isinstance(value, NodeRef):
                return False
        return True


def split_where(q: SelectQuery, directly: bool) -> Split | None:
    """The select's split, or None when it has neither invariant conjuncts
    nor a link key.

    The safe prefix is the longest run of leading conjuncts that are probes
    (`_is_probe`) or comparisons of measures (`_is_comparison`). The key
    needs a single pattern, no modifier and no `directly in`, and a body
    that can write neither V, the pattern variable nor a variable read
    before the key. A body that can run a callquery, whose query can write
    any variable, gets no split.
    """
    written: set[str] = set()
    if q.where is None or not _writes(q.body, written):
        return None
    pat = q.pattern
    pattern = set(pat.variables())
    keyed = (pat.kind == SINGLE and q.modifier == MOD_NONE and not directly
             and pat.var1 not in written)
    invariant: list[Expr] = []
    residual: list[Expr] = []
    reads: set[str] = set()
    nodes: set[str] = set()
    link = used = None
    conjuncts = _conjuncts(q.where)
    for i, conjunct in enumerate(conjuncts):
        if keyed and (link := _link(conjunct, pat.var1)) is not None:
            keyed = False  # only the first key counts
            if link[0] in written or (reads | nodes) & written:
                link = None
            else:
                used = frozenset(reads - pattern), frozenset(nodes - pattern)
        probed: set[str] = set()
        if not (_is_probe(conjunct, probed) or _is_comparison(conjunct, nodes)):
            residual += conjuncts[i:]
            break
        reads |= probed
        if probed and not probed & (pattern | written):
            invariant.append(conjunct)
            used = frozenset(reads - pattern), frozenset(nodes - pattern)
        else:
            residual.append(conjunct)
    if used is None:
        return None
    return Split(_join(invariant), _join(residual), link, *used)


def _join(conjuncts: list[Expr]) -> Expr | None:
    return reduce(lambda joined, e: Infix("&&", joined, e), conjuncts) if conjuncts else None


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


def _is_probe(e: Expr, reads: set[str]) -> bool:
    """Whether `e` is `x.f(y)`, or a negation or `||` of such calls, with
    `f` one of `PROBES`, `x` a variable and `y` a variable or a `{T}`
    literal; adds the variables to `reads`. Such a probe returns a boolean
    when they hold nodes or nothing."""
    if isinstance(e, Prefix) and e.op == "!":
        return _is_probe(e.operand, reads)
    if isinstance(e, Infix) and e.op == "||":
        return _is_probe(e.lhs, reads) and _is_probe(e.rhs, reads)
    if not (isinstance(e, Call) and e.name in PROBES and isinstance(e.receiver, VarRef)
            and len(e.args) == 1):
        return False
    arg = e.args[0]
    if isinstance(arg, TypeLit):
        reads.add(e.receiver.name)
        return True
    if isinstance(arg, VarRef) and e.name != "isnodetype":
        reads.update((e.receiver.name, arg.name))
        return True
    return False


def _is_comparison(e: Expr, nodes: set[str]) -> bool:
    """Whether `e` compares two numbers that are literals or `x.f()` with
    `f` one of `_MEASURES`; adds each such x to `nodes`. Such a comparison
    returns a boolean when they hold nodes."""
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
    for node in walk(body):
        if isinstance(node, (Assign, IncrDecr)):
            written.add(node.target)
        elif isinstance(node, SelectQuery):
            written.update(node.pattern.variables())
        elif isinstance(node, CallQuery):
            return False
    return True
