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
  fails the where clause does not shadow anything below it. A row that an
  earlier input node gave prunes again, whatever the clause says then.
* `inmost` drops any candidate with a same-type node anywhere below it,
  regardless of where outcomes.
* `directly in` prunes the walk at any node whose concrete type equals the
  input node's concrete type; such a node is still processed as a candidate
  before the cut.

Every select, top-level, called or nested in a body (where it is the same
`SelectQuery` node), enters through `run_select` and runs as one push loop
(produce/consume, after Neumann, VLDB 2011). On its first run, `_plan`
compiles the select's input, where clause and body into closures (Feeley
and Lapalme, "Using Closures for Code Generation", 1987) and builds a `run`
closure that resolves the input, tests the hoisted conjuncts and calls the
select's loop (`_loop`). The loop is one pruned pre-order walk, whatever
the pattern and modifier. It bisects a sorted pre-order rank list, the
pattern type's (see `craql.astcore.RegionIndex`), to each input region (an
input node's, or for the default input a run of adjacent root regions),
reads the candidates up to the next prune point (a `directly in` cut or an
`outmost` row) as one slice, and jumps past the pruned node's region, the
region skip of Grust's XPath accelerator (SIGMOD 2002). So it reaches
exactly the candidates of the walk, in order, without the walk. It binds
each candidate, or each pair a candidate heads, to the node's one handle
in the project, tests the where clause and appends, emits and runs the
body on each row in place, and adds the walk's `nodes_visited` and its own
`rows_yielded` to `Evaluator.stats`.
count(*) is the length of the list the innermost open select appends to
(the top of `Environment.count_stack`): its rows, or an ellipsis select's
passing pairs until the depth test.

The plan reads the where clause once (`craql.engine.links.split_where`).
When the split is ready as the select starts, its invariant conjuncts are
tested once. If they fail, no clause runs, and for a single pattern that
is not `inmost` the loop only adds the walk's `nodes_visited` and binds its
last candidate. If they hold, each candidate runs the rest of the clause,
and a link key such as `m == i.methodbinding()` (`m` holding a node)
narrows the rank list to the nodes linked to `m` (`_link_ranks`); a
bisection of the full list then binds the pattern variable where the
unkeyed walk would leave it.
Compiling decides nothing that depends on a value, so evaluation order and
errors stay those of the query text: the receiver runs before the
arguments and both operands before either is coerced, `&&` and `||`
short-circuit, and an unknown `{Type}` or function, a wrong arity or a
`count(*)` outside a select raises only when evaluation reaches it. A
literal argument still folds: `n.isnodetype({T})`, `T` a type the schema
knows, tests n's type against the schema's `matching` set for `T`.
An emitted row is its node id in the sink until the runner writes it.
A `print(v);` statement is the call `print(v)` and compiles like it.

A project's queries share one budget of `MAX_PROJECT_STEPS` steps, counted
in `Environment.steps`. The loop charges each candidate it reads from a
rank list once, a slice at a time before it tests them (a candidate below
an `outmost` row is read, not tested), and each pair a candidate heads;
each `while` step and `callquery` entry takes one step. The select, loop
or call that passes the budget raises `QueryRuntimeError`, which aborts
only that project.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Callable

from craql import Record
from craql.astcore import ProjectAst, RegionIndex, node_depth
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
    PropAccess,
    QueryDocument,
    SINGLE,
    SelectQuery,
    Stmt,
    StrLit,
    TypeLit,
    VarRef,
    While,
)
from craql.engine.links import LINK_CHILD, LINK_METHOD_CHILD, PROBES, split_where
from craql.engine.runtime import (
    Environment,
    ExecutionStats,
    NodeList,
    NodeRef,
    OutputSink,
    TypeName,
    UNDEFINED,
    Undefined,
    Value,
    render_value,
    truthy,
)


class QueryRuntimeError(Exception):
    def __init__(self, message: str, source: str = "<query>", pos: tuple[int, int] = (0, 0)):
        self.source = source
        self.pos = pos
        super().__init__(f"{source}:{pos[0]}:{pos[1]}: {message}")


class SelectionCapture(Record):
    """Everything needed to replay one select against an independent oracle."""

    query: SelectQuery
    input_nodes: list[int]
    include_root: bool
    directly: bool
    env_snapshot: dict[str, Value]
    rows: list[dict[str, int]]

    def __init__(self, query: SelectQuery, input_nodes: list[int], include_root: bool,
                 directly: bool, env_snapshot: dict[str, Value],
                 rows: list[dict[str, int]] | None = None):
        self.query, self.input_nodes, self.include_root = query, input_nodes, include_root
        self.directly, self.env_snapshot = directly, env_snapshot
        self.rows = [] if rows is None else rows


# A while statement aborts its query when its condition holds once more
# after this many runs of its body.
MAX_WHILE_STEPS = 1_000_000

# A string `+` whose result would be longer than this many characters aborts
# its query: `s = s + s` in a while loop doubles a string at each step.
MAX_STRING_CHARS = 10_000_000

# An integer result of more than this many decimal digits aborts its query:
# `x = x * x` in a while loop doubles the digits at each step, and Python
# renders no integer of more than 4,300 digits by default. A `++` or `--`
# past a bounded value still renders.
MAX_INT_DIGITS = 4000
_INT_BOUND = 10 ** MAX_INT_DIGITS

# A project's queries abort when, across its documents, they take more than
# this many steps (see the module docstring), so nested loops or recursive
# calls cannot hang the batch. No project of the benchmark corpora takes
# more than 10,230 steps or visits more than 654,627 nodes.
MAX_PROJECT_STEPS = 10_000_000

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
        # id(node) -> (node, its closure), or for a select run with emit or
        # an input override (id, emit, id(override)) -> ((select, its
        # input), its plan): each query node is compiled once, on first use.
        self._plans: dict[object, tuple[object, object]] = {}

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

    def run_select(self, q: SelectQuery, emit: bool = False,
                   input_override: InputSpec | None = None) -> list[dict[str, int]]:
        """Run the select and return its rows."""
        key = id(q) if not emit and input_override is None else (id(q), emit, id(input_override))
        entry = self._plans.get(key)
        if entry is None:
            spec = input_override if input_override is not None else q.input
            entry = self._plans[key] = ((q, spec), self._plan(q, spec, emit))
        return entry[1]()

    def _plan(self, q: SelectQuery, spec: InputSpec, emit: bool) -> Callable[[], list]:
        """The select's run from input `spec`: a closure that resolves the
        input, tests the hoisted conjuncts, runs the select's loop and
        returns the rows."""
        pat, project, variables = q.pattern, self.project, self.env.variables
        count_stack = self.env.count_stack
        default, directly = spec.kind == INPUT_DEFAULT, spec.kind == INPUT_DIRECTLY_IN
        input_of = None if default else self._compile(spec.expr)

        def resolve() -> list[int] | tuple[int, ...]:
            if input_of is None:
                return project.roots
            value = input_of()
            if type(value) is NodeRef:
                return (value.id,)
            if value is UNDEFINED:
                return ()
            if type(value) is NodeList:
                return value.ids
            raise QueryRuntimeError(f"query input must be a node or node list, not "
                                    f"{_kind_name(value)}", self.source, spec.pos)

        for name in (pat.type1,) if pat.kind == SINGLE else (pat.type1, pat.type2):
            if not self.schema.knows(name):
                return self._raiser(f"unknown node type {name}", pat.pos, [resolve])
        where = None if q.where is None else self._test(q.where)
        split = split_where(q, self.schema, directly)
        if split is not None:
            link, invariant, residual = split.link, None, where
            if split.invariant is not None:
                invariant = self._test(split.invariant)
                residual = None if split.residual is None else self._test(split.residual)
        body = self._block(q.body)
        loop = self._loop(q, directly, default, body, emit)
        type_ranks, var, index = project.type_ranks(pat.type1), pat.var1, project.index
        pre, end, order, refs = index.pre, index.end, index.order, _node_refs(index)
        # The roots do not change while a document runs.
        regions = _root_regions(project) if default else None

        def bind_last(inputs) -> None:
            # Where the scan of all type_ranks leaves the pattern variable:
            # at the last candidate of the last input region holding one.
            for item in reversed(inputs):
                start, stop = item if default else (pre[item] + 1, end[item])
                k = bisect_left(type_ranks, stop)
                if k and type_ranks[k - 1] >= start:
                    n = order[type_ranks[k - 1]]
                    variables[var] = refs[n] or _node_ref(refs, n)
                    return

        def run() -> list:
            roots, trace = resolve(), self.trace
            if trace is not None:
                capture = SelectionCapture(q, list(roots), default, directly, dict(variables))
            clause, ranks = where, type_ranks
            if split is not None and split.ready(variables):
                # Every candidate fails when the invariant part does.
                clause = residual if invariant is None or invariant() else _reject
                if (clause is not _reject and link is not None
                        and type(fixed := variables.get(link[0])) is NodeRef):
                    ranks = self._link_ranks(link[1], fixed.id, ranks)
            inputs = roots if regions is None else regions
            rows: list = []
            count_stack.append(rows)
            try:
                loop(inputs, clause, ranks, rows)
                if ranks is not type_ranks:
                    bind_last(inputs)
            finally:
                count_stack.pop()
            if trace is not None:
                capture.rows = rows
                trace(capture)
            return rows

        return run

    def _loop(self, q: SelectQuery, directly: bool, default: bool, body: Thunk,
              emit: bool) -> Callable[..., None]:
        """`loop(inputs, where, ranks, rows)`: the pruned pre-order walk of
        each input region. For the default input, `inputs` holds the
        regions of `_root_regions`, each root a candidate; otherwise it
        holds the input nodes, whose regions exclude the node itself. The
        loop reads the nodes of `ranks` it reaches a run at a time, up to
        and with the next prune point: the next `directly` cut (a node of
        the input node's type) or the `outmost` row just taken. Each
        candidate, or each pair it heads, that `where` (None for none)
        accepts is appended, emitted and has the body run, once.
        `nodes_visited` gains each input region (an input node's own
        included) and each pair's outer region, and loses each pruned
        region once. Under `_reject`, a single pattern that is not `inmost`
        only binds its last candidate. A bound node's handle is the one in
        `_node_refs`."""
        pat, stats, variables, project = q.pattern, self.stats, self.env.variables, self.project
        var1, var2, emit_row = pat.var1, pat.var2, self.sink.rows.append
        outmost, inmost = q.modifier == MOD_OUTMOST, q.modifier == MOD_INMOST
        single, ellipsis = pat.kind == SINGLE, pat.kind == ELLIPSIS
        index, types, offset = project.index, project.type, 0 if default else 1
        order, pre, end, by_type = index.order, index.pre, index.end, index.by_type
        own, refs = project.type_ranks(pat.type1), _node_refs(index)
        env, over_budget, pos = self.env, self._over_budget, q.pos

        def add(n1: int, row: dict[str, int], rows: list) -> None:
            rows.append(row)
            stats.rows_yielded += 1
            if emit:
                emit_row(n1)
            body()

        def loop(inputs, where, ranks, rows) -> None:
            # Every candidate fails: a single pattern that is not `inmost`
            # only binds the last.
            last_only = where is _reject and single and not inmost
            seen = set() if len(inputs) > 1 else None
            inner = None if single or not inputs else project.type_ranks(pat.type2)
            last = None
            for item in inputs:
                if default:
                    start, stop = item
                else:
                    start, stop = pre[item], end[item]
                stats.nodes_visited += stop - start
                cuts = by_type[types[item]] if directly else ()
                # Both cursors stay past the last pruned region.
                i, j = bisect_left(ranks, start + offset), bisect_right(cuts, start)
                while True:
                    cut = cuts[j] if j < len(cuts) and cuts[j] < stop else stop
                    # The candidate at a cut's own rank comes before the cut.
                    k = bisect_left(ranks, cut + (cut < stop), i)
                    if last_only:
                        if i < k:
                            last = ranks[k - 1]
                        i = k
                    if i < k:
                        env.steps += k - i
                        if env.steps > MAX_PROJECT_STEPS:
                            raise over_budget(pos)
                    for r in ranks[i:k]:
                        n = order[r]
                        if not single:
                            below = end[n]
                            stats.nodes_visited += below - r - 1
                            pairs = inner[bisect_right(inner, r):bisect_left(inner, below)]
                            env.steps += len(pairs)
                            if env.steps > MAX_PROJECT_STEPS:
                                raise over_budget(pos)
                            for r2 in pairs:
                                n2 = order[r2]
                                variables[var1] = refs[n] or _node_ref(refs, n)
                                variables[var2] = refs[n2] or _node_ref(refs, n2)
                                if where is not None and not where():
                                    continue
                                if seen is not None and ((n, n2) in seen or seen.add((n, n2))):
                                    continue
                                if ellipsis:
                                    rows.append((n, n2))
                                else:
                                    add(n, {var1: n, var2: n2}, rows)
                            continue
                        if inmost and (b := bisect_right(own, r)) < len(own) and own[b] < end[n]:
                            continue  # a node of the type lies below n
                        variables[var1] = refs[n] or _node_ref(refs, n)
                        fresh = seen is None or n not in seen
                        if where is None or where():
                            if fresh:
                                if seen is not None:
                                    seen.add(n)
                                add(n, {var1: n}, rows)
                        elif fresh:
                            continue
                        if outmost:
                            # A row prunes below it, an earlier root's
                            # whatever the clause says now.
                            cut = r
                            break
                    if cut == stop:
                        break
                    skip = end[order[cut]]
                    stats.nodes_visited -= skip - cut - 1
                    i, j = bisect_left(ranks, skip, i), bisect_left(cuts, skip, j)
                    if i < k:
                        # Past an `outmost` row the slice's rest is read
                        # again: charge it then.
                        env.steps -= k - i
            if last is not None:
                n = order[last]
                variables[var1] = refs[n] or _node_ref(refs, n)
            if ellipsis and rows:
                found, depth = rows[:], index.depth
                rows.clear()
                best = max(depth[n2] - depth[n1] for n1, n2 in found)
                for n1, n2 in found:
                    if depth[n2] - depth[n1] == best:
                        variables[var1] = refs[n1] or _node_ref(refs, n1)
                        variables[var2] = refs[n2] or _node_ref(refs, n2)
                        add(n1, {var1: n1, var2: n2}, rows)

        return loop

    def _link_ranks(self, link: str, fixed: int, ranks: list[int]) -> list[int]:
        """The ranks in `ranks` of the nodes that `link` ties to node
        `fixed`, sorted."""
        project = self.project
        index = project.index
        if link == LINK_CHILD:
            linked = [index.pre[c] for c in project.kids[fixed]]
        elif link == LINK_METHOD_CHILD:
            linked = sorted(r for c in project.kids[fixed]
                            for r in project.bound_ranks("method", c))
        else:
            linked = project.bound_ranks(link, fixed)
        return [r for r in linked
                if (i := bisect_left(ranks, r)) < len(ranks) and ranks[i] == r]

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

    def _over_budget(self, pos: tuple[int, int]) -> QueryRuntimeError:
        """The error of a step at `pos` that takes `Environment.steps` past
        `MAX_PROJECT_STEPS`."""
        return QueryRuntimeError(
            f"project exceeded {MAX_PROJECT_STEPS} evaluation steps", self.source, pos)

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
        bounded = self._bounded

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
            variables[target] = bounded(old - number(value, pos), pos)

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
        cond, body, pos, env = self._test(s.cond), self._block(s.body), s.pos, self.env

        def while_() -> None:
            steps = 0
            while cond():
                if steps == MAX_WHILE_STEPS:
                    raise QueryRuntimeError(
                        f"while loop exceeded {MAX_WHILE_STEPS} steps", self.source, pos
                    )
                steps += 1
                env.steps += 1
                if env.steps > MAX_PROJECT_STEPS:
                    raise self._over_budget(pos)
                body()

        return while_

    def _select(self, q: SelectQuery) -> Thunk:
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
            env.steps += 1
            if env.steps > MAX_PROJECT_STEPS:
                raise self._over_budget(pos)
            env.call_depth += 1
            try:
                # A called query is a top-level query of the document: its rows emit.
                self.run_select(target, emit=True, input_override=s.input)
            finally:
                env.call_depth -= 1

        return callquery

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
        project = self.project
        tname = project.type[node_id]
        if name in self.schema.prop_kinds[tname]:
            value = project.props[node_id].get(name, UNDEFINED)
            if type(value) is int:
                return NodeRef(value)
            if type(value) is list:
                return NodeList(tuple(value))
            return value  # a token, or UNDEFINED for an absent property
        if self.schema.knows(name):
            matches = [c for c in project.kids[node_id] if project.matches_type(c, name)]
            if len(matches) == 1:
                return NodeRef(matches[0])
            if len(matches) > 1:
                raise QueryRuntimeError(
                    f"ambiguous child access {{{name}}} on {tname}", self.source, pos
                )
        return UNDEFINED

    def _prefix(self, e: Prefix) -> Thunk:
        if e.op == "!":
            test = self._test(e.operand)
            return lambda: not test()
        operand, pos = self._compile(e.operand), e.pos
        number, bounded = self._as_number, self._bounded
        return lambda: bounded(-number(operand(), pos), pos)

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
        number, plus, bounded = self._as_number, self._plus, self._bounded
        if op == "+":
            def add() -> Value:
                a, b = left(), right()
                if type(a) is int and type(b) is int:
                    return bounded(a + b, pos)
                return plus(a, b, pos)

            return add
        apply = _ARITHMETIC.get(op)
        if apply is None:
            return self._raiser(f"unknown operator {op}", pos, [left, right])

        def arithmetic() -> Value:
            a, b = left(), right()
            return apply(a if type(a) is int else number(a, pos),
                         b if type(b) is int else number(b, pos))

        if op == "-" or op == "*":
            return lambda: bounded(arithmetic(), pos)
        return arithmetic

    def _plus(self, left: Value, right: Value, pos: tuple[int, int]) -> Value:
        if isinstance(left, str) or isinstance(right, str):
            left, right = render_value(left, self.project), render_value(right, self.project)
            if len(left) + len(right) > MAX_STRING_CHARS:
                raise QueryRuntimeError(
                    f"string longer than {MAX_STRING_CHARS} characters", self.source, pos)
            return left + right
        return self._bounded(self._as_number(left, pos) + self._as_number(right, pos), pos)

    def _bounded(self, value: int, pos: tuple[int, int]) -> int:
        if -_INT_BOUND < value < _INT_BOUND:
            return value
        raise QueryRuntimeError(
            f"integer longer than {MAX_INT_DIGITS} digits", self.source, pos)

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
            if self.project.type[v.id] == "NumberLiteral":
                try:
                    return self._bounded(int(self.project.props[v.id]["token"]), pos)
                except ValueError:
                    raise QueryRuntimeError(
                        f"number literal is not an integer of at most {MAX_INT_DIGITS} digits",
                        self.source, pos) from None
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

        if name == "isnodetype" and type(e.args[0]) is TypeLit and (
                match := self.schema.matching.get(e.args[0].name)) is not None:
            # A known literal type folds into one set test of the node's type.
            (matching, token), types, props = match, self.project.type, self.project.props

            def probe() -> Value:
                recv = receiver()
                if type(recv) is NodeRef:
                    return types[recv.id] in matching and (
                        token is None or props[recv.id].get(token[0]) == token[1])
                return not_a_node(recv)

            return probe
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
        types, parents = project.type, project.parent
        bindings, index = project.bindings, project.index
        pre, end = index.pre, index.end

        def parent(n: int) -> Value:
            p = parents[n]
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
                return parents[arg.id] == n
            if type(arg) is TypeName:
                return any(project.matches_type(c, arg.name) for c in project.kids[n])
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
                # Whether the walk of n's region, for directly_contains pruned
                # at nodes of n's type, reaches a node of the type.
                ranks = project.type_ranks(arg.name)
                cuts = index.by_type[types[n]] if direct else ()
                i, j = bisect_right(ranks, pre[n]), bisect_right(cuts, pre[n])
                while i < len(ranks) and ranks[i] < end[n]:
                    if not (j < len(cuts) and cuts[j] < ranks[i]):
                        return True
                    skip = end[index.order[cuts[j]]]
                    i, j = bisect_left(ranks, skip, i), bisect_left(cuts, skip, j)
                return False
            if type(arg) is not NodeRef:
                raise QueryRuntimeError(
                    f"{name}() expects a node type or a node", self.source, pos
                )
            if not pre[n] < pre[arg.id] < end[n]:
                return False
            # directly_contains: no node of n's type may interpose.
            root_type = types[n]
            cur = parents[arg.id]
            while direct and cur != n:
                if types[cur] == root_type:
                    return False
                cur = parents[cur]
            return True

        return {
            "parent": parent,
            "position": lambda n: project.start[n],
            "linenumber": lambda n: project.line[n],
            "filename": lambda n: project.files[project.file[n]].name,
            "depth": lambda n: node_depth(project, n),
            "nodetype": lambda n: types[n],
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
    While: Evaluator._while, SelectQuery: Evaluator._select, CallQuery: Evaluator._callquery,
    ExprStmt: Evaluator._expr_stmt,
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


def _reject() -> bool:
    return False


def _root_regions(project: ProjectAst) -> list[tuple[int, int]]:
    """The default input's regions as (first rank, end rank) pairs, in
    root order: each maximal run of roots whose regions follow one another
    in rank order is one region. Roots out of rank order, listed twice or
    in another root's tree each keep their own region."""
    pre, end = project.index.pre, project.index.end
    regions: list[tuple[int, int]] = []
    for root in project.roots:
        if regions and regions[-1][1] == pre[root]:
            regions[-1] = (regions[-1][0], end[root])
        else:
            regions.append((pre[root], end[root]))
    return regions


def _node_refs(index: RegionIndex) -> list:
    """The project's shared node handles by node id, None for a node no
    select has bound yet; kept in its index, made on first use."""
    refs = index.refs
    if refs is None:
        refs = index.refs = [None] * len(index.pre)
    return refs


def _node_ref(refs: list, n: int) -> NodeRef:
    """Node n's handle, made and kept in `refs` on its first binding."""
    ref = refs[n] = NodeRef(n)
    return ref


def _arity_message(name: str, n: int, got: int) -> str:
    return f"{name}() takes {n} argument{'s' if n != 1 else ''}, got {got}"


_KIND_NAMES = {
    Undefined: "undefined", bool: "a boolean", int: "a number", str: "a string",
    NodeRef: "a node", NodeList: "a node list", TypeName: "a node type",
}


def _kind_name(v: Value) -> str:
    return _KIND_NAMES.get(type(v), type(v).__name__)

