"""The query evaluator: set selection with pruning, and the compiler that
turns where clauses, bodies and the builtin function library into closures.

Selection semantics, in one place:

* The default input is the project's compilation-unit roots, and a root is
  itself a candidate when its type matches. An explicit `in`/`directly in`
  input selects among the *proper* descendants of each input node.
* Candidates are enumerated pre-order. A candidate that matches the pattern
  type has the where clause evaluated against it; a passing candidate becomes
  a row and its body runs immediately (count(*) sees rows collected so far).
  A candidate reached again through an overlapping input list is no new row.
* An ellipsis select keeps, of the pairs that pass, those with the greatest
  depth difference. count(*) counts the passing pairs in the where clause,
  then restarts and counts the kept rows as their bodies run.
* `outmost` stops descent below a yielded row, so a deeper same-type node is
  excluded only when an *accepted* ancestor interposes; a candidate that
  fails the where clause does not shadow anything below it.
* `inmost` drops any candidate with a same-type node anywhere below it,
  regardless of where outcomes.
* `directly in` prunes the walk at any node whose concrete type equals the
  input node's concrete type; such a node is still processed as a candidate
  before the cut.

One loop, `run_select`, runs every select and returns its rows.
`_candidates` yields the candidates in row order with the pattern variables
bound: the outer scan for a single pattern, with the `outmost` prune and the
`inmost` filter; the outer and inner scans for a pair. The loop evaluates the
where clause, sets the flag the `outmost` prune reads and drops candidates
already seen; `_add_row` appends each accepted row, emits it and runs the
body. An ellipsis select defers its rows to a replay through `_add_row` once
the deepest are known. count(*) is the length of the list the innermost open
select appends to (the top of `Environment.count_stack`): its rows, or for
an ellipsis select its passing pairs until the depth test, then its rows.
The scans add `nodes_visited` and `_add_row` adds `rows_yielded` straight to
`Evaluator.stats`.

No select walks the tree: `_scan` bisects a sorted pre-order rank list, the
pattern type's (see `craql.astcore.RegionIndex`), to the input node's region
and skips the regions below pruned nodes, which yields exactly the
candidates the pruned pre-order walk would reach, in the same order.

A select whose where clause holds a link key (see `craql.engine.links`),
such as `m == i.methodbinding()` with `m` fixed for the whole select, scans
a narrower rank list: `_link_ranks` keeps the pattern type's ranks of the
nodes the key links to that node. The where clause still runs on each of
them; the other candidates are the ones the key rejects, and rejecting them
has no effect a later candidate or the output could see. Only the pattern
variable would be left bound to another node, so `run_select` rebinds it.

Queries are compiled once per evaluator, not interpreted node by node: on a
select's first run, `_plan` checks its pattern types and turns its where
clause and body into Python closures (Feeley and Lapalme, "Using Closures
for Code Generation", 1987), each holding its operator or builtin, its child closures and the variables
and tables it reads. Compiling decides nothing that depends on a value, so
evaluation order and errors stay those of the query text: the receiver runs
before the arguments and both operands before either is coerced, `&&` and
`||` short-circuit, and an unknown `{Type}` or function, a wrong arity or a
`count(*)` outside a select raises only when evaluation reaches it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator

from craql.astcore import (
    ProjectAst,
    child_ids,
    node_depth,
    source_text,
)
from craql.query.ast import (
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
    IncrDecr,
    IntLit,
    MOD_INMOST,
    MOD_OUTMOST,
    Prefix,
    PrintStmt,
    PropAccess,
    QueryDocument,
    SINGLE,
    SelectQuery,
    SelectStmt,
    Stmt,
    StrLit,
    TypeLit,
    VarRef,
    While,
)
from craql.engine.links import LINK_CHILD, LINK_METHOD_CHILD, PROBES, LinkKey, find_link_key
from craql.engine.runtime import (
    Environment,
    ExecutionStats,
    NodeList,
    NodeRef,
    OutputSink,
    RowRecord,
    TypeName,
    UNDEFINED,
    Value,
    render_value,
    truthy,
)


class QueryRuntimeError(Exception):
    def __init__(self, message: str, source: str = "<query>", pos: tuple[int, int] = (0, 0)):
        self.source = source
        self.pos = pos
        super().__init__(f"{source}:{pos[0]}:{pos[1]}: {message}")


@dataclass
class SelectionCapture:
    """Everything needed to replay one select against an independent oracle."""

    query: SelectQuery
    input_nodes: list[int]
    include_root: bool
    directly: bool
    env_snapshot: dict[str, Value]
    rows: list[dict[str, int]] = field(default_factory=list)


# A while statement aborts its query when its condition holds once more
# after this many runs of its body.
MAX_WHILE_STEPS = 1_000_000

# A callquery aborts its query when this many calls are already open. Each
# level costs the interpreter at least 3 frames, so a much deeper bound
# would run out of stack before it was reached.
MAX_CALL_DEPTH = 100

# Node function -> (its arity, its value on an undefined receiver or None
# when that is an error).
_NODE_FUNCTIONS = {
    "parent": (0, UNDEFINED), "methodbinding": (0, UNDEFINED), "typebinding": (0, UNDEFINED),
    "isnodetype": (1, False), "contains": (1, False), "directly_contains": (1, False),
    "isparent": (1, False),
    "position": (0, None), "linenumber": (0, None), "filename": (0, None), "depth": (0, None),
    "nodetype": (0, None),
}
# The node functions that take their node as the sole argument too.
_FREE_FORMS = frozenset({"depth", "nodetype", "position", "linenumber", "filename"})
_BOOLEAN_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "&&", "||"})
_ARITHMETIC = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "-": operator.sub, "*": operator.mul,
}

# A compiled expression or statement: call it to evaluate or run it.
Thunk = Callable[[], Value]


class Evaluator:
    def __init__(
        self,
        project: ProjectAst,
        env: Environment | None = None,
        sink: OutputSink | None = None,
        source: str = "<query>",
    ):
        self.project = project
        self.schema = project.schema
        self.env = env if env is not None else Environment()
        self.sink = sink if sink is not None else OutputSink()
        self.source = source
        self.stats = ExecutionStats()
        self.trace: Callable[[SelectionCapture], None] | None = None
        self._doc: QueryDocument | None = None
        # id(node) -> (node, its closure), or for a select (select, its
        # plan): each query node is compiled once, on first use.
        self._plans: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # Document execution
    # ------------------------------------------------------------------

    def execute_document(self, doc: QueryDocument) -> None:
        """Run the document's entry query; labeled queries run via callquery."""
        prev = self._doc
        self._doc = doc
        self.source = doc.source
        entry = doc.queries[0][1]
        try:
            self.run_select(entry, emit=True)
        except RecursionError:
            # A deep where clause or body exhausts the interpreter's stack.
            raise QueryRuntimeError("query nested too deeply", self.source, entry.pos) from None
        finally:
            self._doc = prev
            # The closures refer to this evaluator; dropping them once the
            # document has run lets reference counting free the evaluator
            # and its project.
            self._plans.clear()

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def run_select(
        self,
        q: SelectQuery,
        emit: bool = False,
        input_override: InputSpec | None = None,
    ) -> list[dict[str, int]]:
        """Run the select and return its rows."""
        spec = input_override if input_override is not None else q.input
        input_nodes, include_root = self._resolve_input(spec)
        directly = spec.kind == INPUT_DIRECTLY_IN
        if self.trace is not None:
            capture = SelectionCapture(
                q, list(input_nodes), include_root, directly, dict(self.env.variables)
            )
        else:
            capture = None

        pat = q.pattern
        where, body, link_key = self._plan(q)
        ranks = type_ranks = self.project.type_ranks(pat.type1)
        fixed = None if directly or link_key is None else link_key.fixed_node(self.env.variables)
        if fixed is not None:
            ranks = self._link_ranks(link_key.link, fixed, ranks)
        rows: list[dict[str, int]] = []
        deferred: list[tuple[int, int]] = []  # ellipsis rows wait for the depth test
        # count(*) is the length of the list the select appends to now.
        count_stack = self.env.count_stack
        count_stack.append(deferred if pat.kind == ELLIPSIS else rows)
        accepted = False  # the candidate just handled passed the where clause

        def prune(n: int) -> bool:
            return accepted

        candidates = self._candidates(
            q, ranks, input_nodes, include_root, directly,
            prune if q.modifier == MOD_OUTMOST else None,
        )
        seen: set[int | tuple[int, int]] = set()
        try:
            for key in candidates:
                accepted = where is None or where()
                if not accepted or key in seen:
                    continue
                seen.add(key)
                if pat.kind == ELLIPSIS:
                    deferred.append(key)
                else:
                    self._add_row(q, key, rows, emit, body)
            if fixed is not None:
                # Bind the pattern variable as the scan of all type_ranks
                # leaves it: to the input's last node of the pattern type.
                index = self.project.index
                last = [type_ranks[i - 1] for root in input_nodes
                        if (i := bisect_left(type_ranks, index.end[root]))
                        and type_ranks[i - 1] >= index.pre[root] + (not include_root)]
                if last:
                    self.env.set(pat.var1, NodeRef(index.order[last[-1]]))
            if deferred:
                depth = self.project.index.depth
                best = max(depth[n2] - depth[n1] for n1, n2 in deferred)
                count_stack[-1] = rows
                for n1, n2 in deferred:
                    if depth[n2] - depth[n1] == best:
                        self.env.set(pat.var1, NodeRef(n1))
                        self.env.set(pat.var2, NodeRef(n2))
                        self._add_row(q, (n1, n2), rows, emit, body)
        finally:
            count_stack.pop()
        if capture is not None:
            capture.rows = rows
            self.trace(capture)
        return rows

    def _resolve_input(self, spec: InputSpec) -> tuple[list[int], bool]:
        if spec.kind == INPUT_DEFAULT:
            return list(self.project.roots), True
        value = self.eval(spec.expr)
        if value is UNDEFINED:
            return [], False
        if isinstance(value, NodeRef):
            return [value.id], False
        if isinstance(value, NodeList):
            return list(value.ids), False
        raise QueryRuntimeError(
            f"query input must be a node or node list, not {_kind_name(value)}",
            self.source, spec.pos,
        )

    def _has_descendant_of_type(self, node_id: int, type_name: str) -> bool:
        ranks = self.project.type_ranks(type_name)
        index = self.project.index
        i = bisect_right(ranks, index.pre[node_id])
        return i < len(ranks) and ranks[i] < index.end[node_id]

    def _scan(
        self,
        ranks: list[int],
        root: int,
        include_root: bool,
        directly: bool,
        stats: ExecutionStats,
        prune: Callable[[int], bool] | None = None,
    ) -> Iterator[int]:
        """The nodes of the sorted pre-order rank list `ranks` that the
        pruned pre-order walk of root's subtree would reach, in walk order,
        without the walk.

        Candidates come from the rank list over root's region; the region of
        a pruned node is skipped. A node is pruned when it is a `directly`
        cut (below root, with root's concrete type) or when `prune(node)`,
        asked as the caller resumes after `node`, is true.
        `stats.nodes_visited` gains what the walk would visit: root's region
        less the strict interior of each pruned node the walk reaches.
        """
        index = self.project.index
        order, end = index.order, index.end
        start, stop = index.pre[root], end[root]
        cuts = index.by_type[self.project.node(root).type] if directly else []
        stats.nodes_visited += stop - start
        skip = start  # ranks below skip lie strictly inside a pruned node

        def cut(rank: int) -> None:
            nonlocal skip
            skip = end[order[rank]]
            stats.nodes_visited -= skip - rank - 1

        # Both cursors stay at or past skip, so every rank they reach is
        # reached by the walk; a cut at a candidate's rank applies after it.
        i = bisect_left(ranks, start if include_root else start + 1)
        j = bisect_right(cuts, start)
        while True:
            r = ranks[i] if i < len(ranks) and ranks[i] < stop else stop
            if j < len(cuts) and cuts[j] < r:
                cut(cuts[j])
            elif r == stop:
                return
            else:
                n = order[r]
                yield n
                i += 1
                if prune is None or not prune(n):
                    continue
                cut(r)
            i = bisect_left(ranks, skip, i)
            j = bisect_left(cuts, skip, j)

    def _candidates(
        self,
        q: SelectQuery,
        ranks: list[int],
        input_nodes: list[int],
        include_root: bool,
        directly: bool,
        prune: Callable[[int], bool] | None,
    ) -> Iterator[int | tuple[int, int]]:
        """The select's candidates in row order, each with its pattern
        variables bound: a node of `ranks` for a single pattern, a pair of
        nodes for `*` and `...`. Modifiers apply to single patterns only."""
        pat = q.pattern
        var1, var2 = pat.var1, pat.var2
        inmost = q.modifier == MOD_INMOST
        variables = self.env.variables  # set directly: this runs per candidate
        stats = self.stats
        for root in input_nodes:
            if pat.kind == SINGLE:
                for n in self._scan(ranks, root, include_root, directly, stats, prune):
                    if inmost and self._has_descendant_of_type(n, pat.type1):
                        continue
                    variables[var1] = NodeRef(n)
                    yield n
                continue
            inner = self.project.type_ranks(pat.type2)
            for n1 in self._scan(ranks, root, include_root, directly, stats):
                stats.nodes_visited -= 1  # the outer scan has counted n1
                for n2 in self._scan(inner, n1, False, False, stats):
                    variables[var1] = NodeRef(n1)
                    variables[var2] = NodeRef(n2)
                    yield n1, n2

    def _link_ranks(self, link: str, fixed: int, ranks: list[int]) -> list[int]:
        """The ranks in `ranks` of the nodes that `link` ties to node
        `fixed`, sorted."""
        project = self.project
        index = project.index
        if link == LINK_CHILD:
            linked = [index.pre[c] for c in child_ids(project.node(fixed))]
        elif link == LINK_METHOD_CHILD:
            linked = sorted(r for c in child_ids(project.node(fixed))
                            for r in project.bound_ranks("method", c))
        else:
            linked = project.bound_ranks(link, fixed)
        return [r for r in linked
                if (i := bisect_left(ranks, r)) < len(ranks) and ranks[i] == r]

    def _add_row(
        self,
        q: SelectQuery,
        key: int | tuple[int, int],
        rows: list[dict[str, int]],
        emit: bool,
        body: Thunk,
    ) -> None:
        """Record an accepted candidate as a row, then run the body on it."""
        pat = q.pattern
        if pat.kind == SINGLE:
            first, row = key, {pat.var1: key}
        else:
            first, row = key[0], {pat.var1: key[0], pat.var2: key[1]}
        rows.append(row)
        self.stats.rows_yielded += 1
        if emit:
            node = self.project.node(first)
            self.sink.result_row(RowRecord(
                self.project.files[node.span.file].name, node.span.line, node.type,
                source_text(self.project, first),
            ))
        body()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def eval(self, e: Expr) -> Value:
        """The value of `e` now: `e` is compiled on first use, then its
        closure is called."""
        entry = self._plans.get(id(e))
        if entry is None:
            entry = self._plans[id(e)] = (e, self._compile(e))
        return entry[1]()

    def _plan(self, q: SelectQuery) -> tuple[Thunk | None, Thunk, LinkKey | None]:
        """The select's compiled where clause (None without one), its
        compiled body and its link key, built on the select's first run.
        A pattern type the schema does not know raises, and no plan is kept."""
        entry = self._plans.get(id(q))
        if entry is None:
            where = None if q.where is None else self._test(q.where)
            plan = (where, self._block(q.body), find_link_key(q, self.schema))
            pat = q.pattern
            for name in (pat.type1,) if pat.kind == SINGLE else (pat.type1, pat.type2):
                if not self.schema.knows(name):
                    raise QueryRuntimeError(f"unknown node type {name}", self.source, pat.pos)
            entry = self._plans[id(q)] = (q, plan)
        return entry[1]

    def _compile(self, e: Expr) -> Thunk:
        compile_ = _EXPRESSIONS.get(type(e))
        if compile_ is None:
            return self._raiser(f"unknown expression {type(e).__name__}",
                                getattr(e, "pos", (0, 0)))
        return compile_(self, e)

    def _test(self, e: Expr) -> Callable[[], bool]:
        """A closure that gives the truth value of `e`."""
        value = self._compile(e)
        if type(e) is BoolLit or (type(e) is Infix and e.op in _BOOLEAN_OPS) or (
                type(e) is Prefix and e.op == "!") or (type(e) is Call and e.name in PROBES):
            return value
        return lambda: truthy(value())

    def _block(self, body: list[Stmt]) -> Thunk:
        steps = []
        for s in body:
            compile_ = _STATEMENTS.get(type(s))
            steps.append(compile_(self, s) if compile_ is not None else
                         self._raiser(f"unknown statement {type(s).__name__}", s.pos))
        if len(steps) == 1:
            return steps[0]

        def block() -> None:
            for step in steps:
                step()

        return block

    def _raiser(self, message: str, pos: tuple[int, int], operands: list[Thunk] = ()) -> Thunk:
        """A closure that evaluates `operands`, then raises `message`."""

        def fail() -> Value:
            for operand in operands:
                operand()
            raise QueryRuntimeError(message, self.source, pos)

        return fail

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _assign(self, s: Assign) -> Thunk:
        value_of, target, pos = self._compile(s.value), s.target, s.pos
        variables, number, plus = self.env.variables, self._as_number, self._plus

        def assign() -> None:
            variables[target] = value_of()

        def add() -> None:
            value = value_of()
            old = variables.get(target, UNDEFINED)
            if old is UNDEFINED:
                old = "" if isinstance(value, str) else 0
            variables[target] = plus(old, value, pos)

        def subtract() -> None:
            value = value_of()
            # An undefined variable reads as 0.
            old = number(variables.get(target, UNDEFINED), pos)
            variables[target] = old - number(value, pos)

        return assign if s.op == "=" else add if s.op == "+=" else subtract

    def _incr_decr(self, s: IncrDecr) -> Thunk:
        variables, target, pos, number = self.env.variables, s.target, s.pos, self._as_number
        step = 1 if s.op == "++" else -1

        def incr_decr() -> None:
            old = variables.get(target, UNDEFINED)
            variables[target] = (old if type(old) is int else number(old, pos)) + step

        return incr_decr

    def _if(self, s: If) -> Thunk:
        cond, then = self._test(s.cond), self._block(s.then_body)
        orelse = None if s.else_body is None else self._block(s.else_body)

        def if_() -> None:
            if cond():
                then()
            elif orelse is not None:
                orelse()

        return if_

    def _while(self, s: While) -> Thunk:
        cond, body, pos = self._test(s.cond), self._block(s.body), s.pos

        def while_() -> None:
            steps = 0
            while cond():
                if steps == MAX_WHILE_STEPS:
                    raise QueryRuntimeError(
                        f"while loop exceeded {MAX_WHILE_STEPS} steps", self.source, pos
                    )
                steps += 1
                body()

        return while_

    def _select(self, s: SelectStmt) -> Thunk:
        q = s.query
        return lambda: self.run_select(q)

    def _callquery(self, s: CallQuery) -> Thunk:
        env, pos = self.env, s.pos

        def callquery() -> None:
            if self._doc is None:
                raise QueryRuntimeError("callquery outside a document", self.source, pos)
            target = self._doc.labels().get(s.label)
            if target is None:
                raise QueryRuntimeError(f"unresolved query label {s.label}", self.source, pos)
            if env.call_depth >= MAX_CALL_DEPTH:
                raise QueryRuntimeError("query recursion limit", self.source, pos)
            env.call_depth += 1
            try:
                # A called query is a top-level query of the document: its rows emit.
                self.run_select(target, emit=True, input_override=s.input)
            finally:
                env.call_depth -= 1

        return callquery

    def _print(self, s: PrintStmt) -> Thunk:
        return self._library_call("print", s.pos, None, [self._compile(s.value)])

    def _expr_stmt(self, s: ExprStmt) -> Thunk:
        return self._compile(s.value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _literal(self, e: IntLit | StrLit | BoolLit) -> Thunk:
        value = e.value
        return lambda: value

    def _var_ref(self, e: VarRef) -> Thunk:
        get, name = self.env.variables.get, e.name
        return lambda: get(name, UNDEFINED)

    def _type_lit(self, e: TypeLit) -> Thunk:
        if not self.schema.knows(e.name):
            return self._raiser(f"unknown node type {e.name}", e.pos)
        value = TypeName(e.name)
        return lambda: value

    def _count_star(self, e: CountStar) -> Thunk:
        stack = self.env.count_stack

        def count() -> int:
            if not stack:
                raise QueryRuntimeError("count(*) outside a select", self.source, e.pos)
            return len(stack[-1])

        return count

    def _prop_access(self, e: PropAccess) -> Thunk:
        base_of, name, pos = self._compile(e.base), e.name, e.pos

        def access() -> Value:
            base = base_of()
            if type(base) is not NodeRef:
                raise QueryRuntimeError(
                    f"property access .{name} on {_kind_name(base)}", self.source, pos
                )
            return self.eval_accessor(base.id, name, pos)

        return access

    def eval_accessor(self, node_id: int, name: str, pos: tuple[int, int]) -> Value:
        """Resolve `.name` / `.{name}`: property first, then child-by-type."""
        node = self.project.node(node_id)
        kind = self.schema.prop_kind(node.type, name)
        if kind is not None:
            if name not in node.props:
                return UNDEFINED
            value = node.props[name]
            if isinstance(value, str):
                return value
            if isinstance(value, int):
                return NodeRef(value)
            return NodeList(tuple(value))
        if self.schema.knows(name):
            matches = [
                c for c in child_ids(node) if self.project.matches_type(c, name)
            ]
            if len(matches) == 1:
                return NodeRef(matches[0])
            if len(matches) > 1:
                raise QueryRuntimeError(
                    f"ambiguous child access {{{name}}} on {node.type}", self.source, pos
                )
        return UNDEFINED

    def _prefix(self, e: Prefix) -> Thunk:
        if e.op == "!":
            test = self._test(e.operand)
            return lambda: not test()
        operand, pos, number = self._compile(e.operand), e.pos, self._as_number
        return lambda: -number(operand(), pos)

    def _infix(self, e: Infix) -> Thunk:
        op, pos = e.op, e.pos
        if op == "&&" or op == "||":
            left, right = self._test(e.lhs), self._test(e.rhs)
            if op == "&&":
                return lambda: left() and right()
            return lambda: left() or right()
        # Both operands are evaluated before either is coerced.
        left, right = self._compile(e.lhs), self._compile(e.rhs)
        if op == "==":
            return lambda: _values_equal(left(), right())
        if op == "!=":
            return lambda: not _values_equal(left(), right())
        number, plus = self._as_number, self._plus
        if op == "+":
            def add() -> Value:
                a, b = left(), right()
                if type(a) is int and type(b) is int:
                    return a + b
                return plus(a, b, pos)

            return add
        apply = _ARITHMETIC.get(op)
        if apply is None:
            return self._raiser(f"unknown operator {op}", pos, [left, right])

        def arithmetic() -> Value:
            a, b = left(), right()
            return apply(a if type(a) is int else number(a, pos),
                         b if type(b) is int else number(b, pos))

        return arithmetic

    def _plus(self, left: Value, right: Value, pos: tuple[int, int]) -> Value:
        if isinstance(left, str) or isinstance(right, str):
            return render_value(left, self.project) + render_value(right, self.project)
        return self._as_number(left, pos) + self._as_number(right, pos)

    def _as_number(self, v: Value, pos: tuple[int, int], allow_literal_node: bool = False) -> int:
        if isinstance(v, bool):
            raise QueryRuntimeError("arithmetic on a boolean", self.source, pos)
        if isinstance(v, int):
            return v
        if isinstance(v, NodeList):
            return len(v)
        if v is UNDEFINED:
            return 0
        if allow_literal_node and isinstance(v, NodeRef):
            node = self.project.node(v.id)
            if node.type == "NumberLiteral":
                return int(node.props["token"])
        raise QueryRuntimeError(
            f"arithmetic on {_kind_name(v)}", self.source, pos
        )

    # -- builtin functions --

    def _call(self, e: Call) -> Thunk:
        """Calls evaluate the receiver, then the arguments, then check them."""
        name, pos = e.name, e.pos
        receiver = None if e.receiver is None else self._compile(e.receiver)
        args = [self._compile(a) for a in e.args]
        operands = args if receiver is None else [receiver] + args
        if name == "print" or name == "max" or name == "min":
            arity = 1 if name == "print" else 2
            if len(args) != arity:
                return self._raiser(_arity_message(name, arity, len(args)), pos, operands)
            return self._library_call(name, pos, receiver, args)
        if name not in _NODE_FUNCTIONS:
            return self._raiser(f"unknown function {name}", pos, operands)

        # Node functions accept the node as receiver or as the sole argument
        # (the free forms depth(n) and nodetype(n)).
        if receiver is None:
            if name not in _FREE_FORMS or len(args) != 1:
                return self._raiser(f"{name}() needs a node receiver", pos, operands)
            receiver, args = args[0], []
        arity, on_undefined = _NODE_FUNCTIONS[name]
        # Probes on an absent node degrade instead of aborting, so where
        # clauses can test optional children and unresolved bindings.
        degrades = on_undefined is not None

        def not_a_node(recv: Value) -> Value:
            if recv is UNDEFINED and degrades:
                return on_undefined
            raise QueryRuntimeError(
                f"{name}() receiver is {_kind_name(recv)}, not a node", self.source, pos
            )

        if len(args) != arity:
            message = (f"{name}() takes no arguments beyond the node" if not degrades
                       else _arity_message(name, arity, len(e.args)))
            arity_error = self._raiser(message, pos)

            def wrong_arity() -> Value:
                recv = receiver()
                for arg in args:
                    arg()
                if type(recv) is not NodeRef:
                    not_a_node(recv)
                return arity_error()

            return wrong_arity

        apply = self._node_function(name, pos)
        if not args:
            def call() -> Value:
                recv = receiver()
                if type(recv) is NodeRef:
                    return apply(recv.id)
                return not_a_node(recv)

            return call
        arg = args[0]

        def call_with_arg() -> Value:
            recv = receiver()
            value = arg()
            if type(recv) is NodeRef:
                return apply(recv.id, value)
            return not_a_node(recv)

        return call_with_arg

    def _library_call(self, name: str, pos: tuple[int, int], receiver: Thunk | None,
                      args: list[Thunk]) -> Thunk:
        """`print(v)`, `max(a, b)` and `min(a, b)`; a receiver is evaluated
        and ignored."""
        if name == "print":
            (value_of,) = args

            def print_() -> Value:
                if receiver is not None:
                    receiver()
                self.sink.print_line(render_value(value_of(), self.project))
                return UNDEFINED

            return print_
        (first, second), number = args, self._as_number
        pick = max if name == "max" else min

        def extreme() -> int:
            if receiver is not None:
                receiver()
            a, b = first(), second()
            return pick(number(a, pos, True), number(b, pos, True))

        return extreme

    def _node_function(self, name: str, pos: tuple[int, int]) -> Callable[..., Value]:
        """Node function `name` as a function of the receiver's node id and
        the argument's value, if it takes one."""
        project = self.project
        nodes, bindings = project.nodes, project.bindings

        def parent(n: int) -> Value:
            p = nodes[n].parent
            return UNDEFINED if p is None else NodeRef(p)

        def binding(table: dict[int, int]) -> Callable[[int], Value]:
            def bound(n: int) -> Value:
                target = table.get(n)
                return UNDEFINED if target is None else NodeRef(target)

            return bound

        def isnodetype(n: int, arg: Value) -> bool:
            if type(arg) is not TypeName:
                raise QueryRuntimeError(
                    f"{name}() expects a node type like {{Block}}", self.source, pos
                )
            return project.matches_type(n, arg.name)

        def isparent(n: int, arg: Value) -> bool:
            if type(arg) is NodeRef:
                return nodes[arg.id].parent == n
            if type(arg) is TypeName:
                return any(project.matches_type(c, arg.name) for c in child_ids(nodes[n]))
            if arg is UNDEFINED:
                return False
            raise QueryRuntimeError(
                "isparent() expects a node type or a node", self.source, pos
            )

        direct = name == "directly_contains"

        def contains(n: int, arg: Value) -> bool:
            if arg is UNDEFINED:
                return False
            if type(arg) is TypeName:
                if not direct:
                    return self._has_descendant_of_type(n, arg.name)
                scan = self._scan(project.type_ranks(arg.name), n, False, True, ExecutionStats())
                return next(scan, None) is not None
            if type(arg) is not NodeRef:
                raise QueryRuntimeError(
                    f"{name}() expects a node type or a node", self.source, pos
                )
            pre, end = project.index.pre, project.index.end
            if not pre[n] < pre[arg.id] < end[n]:
                return False
            # directly_contains: no node of n's type may interpose.
            root_type = nodes[n].type
            cur = nodes[arg.id].parent
            while direct and cur != n:
                if nodes[cur].type == root_type:
                    return False
                cur = nodes[cur].parent
            return True

        return {
            "parent": parent,
            "position": lambda n: nodes[n].span.start,
            "linenumber": lambda n: nodes[n].span.line,
            "filename": lambda n: project.files[nodes[n].span.file].name,
            "depth": lambda n: node_depth(project, n),
            "nodetype": lambda n: nodes[n].type,
            "methodbinding": binding(bindings.method),
            "typebinding": binding(bindings.type),
            "isnodetype": isnodetype,
            "isparent": isparent,
            "contains": contains,
            "directly_contains": contains,
        }[name]


_EXPRESSIONS = {
    IntLit: Evaluator._literal, StrLit: Evaluator._literal, BoolLit: Evaluator._literal,
    VarRef: Evaluator._var_ref, TypeLit: Evaluator._type_lit, CountStar: Evaluator._count_star,
    PropAccess: Evaluator._prop_access, Call: Evaluator._call, Prefix: Evaluator._prefix,
    Infix: Evaluator._infix,
}
_STATEMENTS = {
    Assign: Evaluator._assign, IncrDecr: Evaluator._incr_decr, If: Evaluator._if,
    While: Evaluator._while, SelectStmt: Evaluator._select, CallQuery: Evaluator._callquery,
    PrintStmt: Evaluator._print, ExprStmt: Evaluator._expr_stmt,
}


def _values_equal(a: Value, b: Value) -> bool:
    if isinstance(a, NodeRef) or isinstance(b, NodeRef):
        return isinstance(a, NodeRef) and isinstance(b, NodeRef) and a.id == b.id
    if isinstance(a, NodeList) and isinstance(b, NodeList):
        return a.ids == b.ids
    # A node list compared with a number compares the list's length.
    if isinstance(a, NodeList) and isinstance(b, int) and not isinstance(b, bool):
        return len(a) == b
    if isinstance(b, NodeList) and isinstance(a, int) and not isinstance(a, bool):
        return len(b) == a
    if a is UNDEFINED or b is UNDEFINED:
        return a is b
    if isinstance(a, TypeName) or isinstance(b, TypeName):
        aname = a.name if isinstance(a, TypeName) else a
        bname = b.name if isinstance(b, TypeName) else b
        return isinstance(aname, str) and isinstance(bname, str) and aname == bname
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, str, bool)) and isinstance(b, (int, str, bool)):
        return type(a) is type(b) and a == b
    return False


def _arity_message(name: str, n: int, got: int) -> str:
    return f"{name}() takes {n} argument{'s' if n != 1 else ''}, got {got}"


def _kind_name(v: Value) -> str:
    if v is UNDEFINED:
        return "undefined"
    if isinstance(v, bool):
        return "a boolean"
    if isinstance(v, int):
        return "a number"
    if isinstance(v, str):
        return "a string"
    if isinstance(v, NodeRef):
        return "a node"
    if isinstance(v, NodeList):
        return "a node list"
    if isinstance(v, TypeName):
        return "a node type"
    return type(v).__name__


def execute_document(
    doc: QueryDocument,
    project: ProjectAst,
    env: Environment,
    sink: OutputSink | None = None,
) -> Evaluator:
    """Convenience wrapper: run a document and return the evaluator used."""
    ev = Evaluator(project, env, sink, source=doc.source)
    ev.execute_document(doc)
    return ev
