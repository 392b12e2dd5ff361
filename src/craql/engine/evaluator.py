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
and Lapalme, "Using Closures for Code Generation", 1987) and builds the
select's one `run` closure. It resolves the input, tests the hoisted
conjuncts and walks: one pruned pre-order walk, whatever the pattern and
modifier. It bisects a sorted pre-order rank list, the pattern type's (see
`craql.astcore.RegionIndex`), to each input region (an input node's, or
for the default input a run of adjacent root regions), reads the
candidates up to the next `directly in` cut as one run, and jumps past a
pruned node's region (a cut's, or an `outmost` row's, inside the run as
well), the region skip of Grust's XPath accelerator (SIGMOD 2002). So it
reaches exactly the candidates of the walk, in order, without the walk.
It binds each candidate, or each pair a candidate heads, to the node's one
handle in the project, tests the where clause and appends, emits and runs
the body on each row in place, and adds the walk's `nodes_visited` and its
own `rows_yielded` to `Evaluator.stats`.
count(*) is the length of the list the innermost open select appends to
(the top of `Environment.count_stack`): its rows, or an ellipsis select's
passing pairs until the depth test.

The plan reads the where clause once (`craql.engine.links.split_where`).
When the split is ready as the select starts, its invariant conjuncts are
tested once. If they fail, nothing is accepted: a single pattern that is
not `inmost` reads no candidate and binds the last of each run it reaches,
and any other walks its candidates with `_reject` as its clause, so the
pattern variable ends where the unsplit select leaves it. If they hold,
each candidate runs the rest of the clause, and a link key such as
`m == i.methodbinding()` (`m` holding a node) narrows the rank list to
the nodes linked to `m` (`_link_ranks`); a bisection of the full list
then binds the pattern variable where the unkeyed walk would leave it.
Compiling checks each pattern, `{T}` literal and call against the rule
table of `craql.query.validate` and raises the first fault it finds, so
the select fails as it compiles, whether evaluation would reach the fault
or not. It decides nothing that depends on a value: the receiver runs
before the arguments and both operands before either is coerced, `&&` and
`||` short-circuit, and a receiver that holds no node, a `count(*)`
outside a select, an `isnodetype` argument that holds no type or
arithmetic on a node raises only when evaluation reaches it. A literal
argument folds: `n.isnodetype({T})` tests n's type against the schema's
`matching` set for `T`.
Values are Python values (`undefined` is None, a node list a tuple of
node ids), and a node is its one handle in the project's
`RegionIndex.refs`, whether a select, an accessor or a node function
produced it. A test, such as a where clause or an `if` condition,
compiles like any expression and reads its value's truth; `!`, `&&` and
`||` yield a bool.
An emitted row is its node id in the sink until the runner writes it.
A `print(v);` statement is the call `print(v)` and compiles like it.

A project's queries share one budget of `MAX_PROJECT_STEPS` steps, counted
in `Environment.steps`. The walk charges each candidate it reads from a
rank list once, a run at a time before it tests them (a candidate below
an `outmost` row is read, not tested), and each pair a candidate heads,
so a select that reads no candidate because its hoisted conjuncts fail
charges none; each `while` step and `callquery` entry takes one step.
The select, loop or call that passes the budget raises
`QueryRuntimeError`, which aborts only that project.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Callable

from craql import Record
from craql.astcore import ProjectAst, node_depth
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
    Pattern,
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
from craql.query.validate import (
    FREE_FORMS, LIBRARY_FUNCTIONS, NOT_A_NODE, NOT_A_TYPE, NOT_A_TYPE_OR_NODE, rule_errors,
)
from craql.engine.runtime import (
    Environment,
    ExecutionStats,
    NodeRef,
    OutputSink,
    TypeName,
    Value,
    render_value,
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
        # id(select), or for a run with emit or an input override (id, emit,
        # id(override)) -> ((select, its input), its run): each select run
        # is planned once, on first use.
        self._plans: dict[object, tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # Document execution
    # ------------------------------------------------------------------

    def execute_document(self, doc: QueryDocument) -> None:
        """Run the document's entry query; labeled queries run via callquery."""
        self._doc = doc
        self.source = doc.source
        entry = doc.queries[0][1]
        try:
            self.run_select(entry, emit=True)
        except RecursionError:
            # A deep where clause or body exhausts the interpreter's stack.
            raise QueryRuntimeError("query nested too deeply", self.source, entry.pos) from None
        finally:
            self._doc = None
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
        input, tests the hoisted conjuncts, narrows the rank list by the
        link key, walks each input region and returns the rows.

        For the default input the walk reads the regions of
        `_root_regions`, each root a candidate; otherwise it reads each
        input node's region, the node itself excluded. It reads the
        candidates of the rank list it reaches a run at a time, up to and
        with the next `directly` cut (a node of the input node's type),
        and passes over the candidates below an `outmost` row in the run
        or, when the row's region holds the cut, past the run. Each
        candidate, or each pair it heads, is bound to its one handle in
        `index.refs`; each that the clause (None for none, `_reject` when
        the hoisted conjuncts fail) accepts is appended, emitted and has
        the body run, once; under `_reject` a single pattern that is not
        `inmost` binds each run's last candidate and reads none.
        `nodes_visited` gains each input region (an input node's own
        included) and each pair's outer region, and loses each pruned
        region once. Under a link key, a bisection of the full
        rank list then binds the pattern variable where the unkeyed walk
        would leave it."""
        pat, project, env, stats = q.pattern, self.project, self.env, self.stats
        variables, count_stack, pos = env.variables, env.count_stack, q.pos
        self._check(pat)
        default, directly = spec.kind == INPUT_DEFAULT, spec.kind == INPUT_DIRECTLY_IN
        input_of = None if default else self._compile(spec.expr)
        where = None if q.where is None else self._compile(q.where)
        split = split_where(q, directly)
        if split is not None:
            link, invariant, residual = split.link, None, where
            if split.invariant is not None:
                invariant = self._compile(split.invariant)
                residual = None if split.residual is None else self._compile(split.residual)
        body = self._block(q.body)
        var1, var2, emit_row = pat.var1, pat.var2, self.sink.rows.append
        outmost, inmost = q.modifier == MOD_OUTMOST, q.modifier == MOD_INMOST
        single, ellipsis = pat.kind == SINGLE, pat.kind == ELLIPSIS
        index, types, offset = project.index, project.type, 0 if default else 1
        order, pre, end, by_type = index.order, index.pre, index.end, index.by_type
        own, refs, over_budget = project.type_ranks(pat.type1), index.refs, self._over_budget
        inner = None if single else project.type_ranks(pat.type2)
        # The roots do not change while a document runs.
        regions = _root_regions(project) if default else None

        def add(n1: int, row: dict[str, int], rows: list) -> None:
            rows.append(row)
            stats.rows_yielded += 1
            if emit:
                emit_row(n1)
            body()

        def run() -> list:
            if input_of is None:
                inputs = regions
            else:
                value = input_of()
                if type(value) is NodeRef:
                    inputs = (value.id,)
                elif value is None:
                    inputs = ()
                elif type(value) is tuple:
                    inputs = value
                else:
                    raise QueryRuntimeError(f"query input must be a node or node list, not "
                                            f"{_kind_name(value)}", self.source, spec.pos)
            trace, rows = self.trace, []
            if trace is not None:
                capture = SelectionCapture(q, list(project.roots if default else inputs),
                                           default, directly, dict(variables), rows)
            clause, ranks = where, own
            if split is not None and split.ready(variables):
                # Every candidate fails when the invariant part does.
                clause = residual if invariant is None or invariant() else _reject
                if (clause is not _reject and link is not None
                        and type(fixed := variables.get(link[0])) is NodeRef):
                    ranks = self._link_ranks(link[1], fixed.id, own)
            # Nothing can pass: a single pattern that is not `inmost` reads no
            # candidate and binds the last of each run, as the walk would.
            unread = clause is _reject and single and not inmost
            seen = set() if len(inputs) > 1 else None
            count_stack.append(rows)
            try:
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
                        if unread and i < k:
                            n = order[ranks[k - 1]]
                            variables[var1] = refs[n]
                            i = k
                        if i < k:
                            env.steps += k - i
                            if env.steps > MAX_PROJECT_STEPS:
                                raise over_budget(pos)
                        candidates = iter(ranks[i:k])
                        for r in candidates:
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
                                    variables[var1] = refs[n]
                                    variables[var2] = refs[n2]
                                    if clause is not None and not clause():
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
                            variables[var1] = refs[n]
                            fresh = seen is None or n not in seen
                            if clause is None or clause():
                                if fresh:
                                    if seen is not None:
                                        seen.add(n)
                                    add(n, {var1: n}, rows)
                            elif fresh:
                                continue
                            if outmost:
                                # A row prunes below it, an earlier root's
                                # whatever the clause says now.
                                below = end[n]
                                if below > cut:
                                    # Its region holds the rest of the run.
                                    cut = r
                                    break
                                stats.nodes_visited -= below - r - 1
                                # The run's candidates below it are read, not tested.
                                after = bisect_left(ranks, r, i) + 1
                                if (skipped := bisect_left(ranks, below, after) - after):
                                    next(islice(candidates, skipped, skipped), None)
                        if cut == stop:
                            break
                        skip = end[order[cut]]
                        stats.nodes_visited -= skip - cut - 1
                        i, j = bisect_left(ranks, skip, i), bisect_left(cuts, skip, j)
                if ellipsis and rows:
                    found, depth = rows[:], index.depth
                    rows.clear()
                    best = max(depth[n2] - depth[n1] for n1, n2 in found)
                    for n1, n2 in found:
                        if depth[n2] - depth[n1] == best:
                            variables[var1] = refs[n1]
                            variables[var2] = refs[n2]
                            add(n1, {var1: n1, var2: n2}, rows)
                if ranks is not own:
                    # The walk of the full list leaves the pattern variable at
                    # the last candidate of the last input region holding one.
                    for item in reversed(inputs):
                        start, stop = item if default else (pre[item] + 1, end[item])
                        k = bisect_left(own, stop)
                        if k and own[k - 1] >= start:
                            n = order[own[k - 1]]
                            variables[var1] = refs[n]
                            break
            finally:
                count_stack.pop()
            if trace is not None:
                trace(capture)
            return rows

        return run

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

    def _compile(self, e: Expr) -> Thunk:
        return _EXPRESSIONS[type(e)](self, e)

    def _block(self, body: list[Stmt]) -> Thunk:
        steps = [_STATEMENTS[type(s)](self, s) for s in body]
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

    def _check(self, node: Pattern | TypeLit | Call) -> None:
        """Raise the first rule of `craql.query.validate` that `node` breaks."""
        for message in rule_errors(node, self.schema):
            raise QueryRuntimeError(message, self.source, node.pos)

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
            old = variables.get(target)
            if old is None:
                old = "" if isinstance(value, str) else 0
            variables[target] = plus(old, value, pos)

        def subtract() -> None:
            value = value_of()
            # An undefined variable reads as 0.
            old = number(variables.get(target), pos)
            variables[target] = bounded(old - number(value, pos), pos)

        return assign if s.op == "=" else add if s.op == "+=" else subtract

    def _incr_decr(self, s: IncrDecr) -> Thunk:
        variables, target, pos, number = self.env.variables, s.target, s.pos, self._as_number
        step = 1 if s.op == "++" else -1

        def incr_decr() -> None:
            old = variables.get(target)
            variables[target] = (old if type(old) is int else number(old, pos)) + step

        return incr_decr

    def _if(self, s: If) -> Thunk:
        cond, then = self._compile(s.cond), self._block(s.then_body)
        orelse = None if s.else_body is None else self._block(s.else_body)

        def if_() -> None:
            if cond():
                then()
            elif orelse is not None:
                orelse()

        return if_

    def _while(self, s: While) -> Thunk:
        cond, body, pos, env = self._compile(s.cond), self._block(s.body), s.pos, self.env

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
        target = None if self._doc is None else self._doc.labels().get(s.label)
        if target is None:
            raise QueryRuntimeError(f"unresolved query label {s.label}", self.source, pos)

        def callquery() -> None:
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
        return lambda: get(name)

    def _type_lit(self, e: TypeLit) -> Thunk:
        self._check(e)
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
            value = project.props[node_id].get(name)
            if type(value) is int:
                return project.index.refs[value]
            if type(value) is list:
                return tuple(value)
            return value  # a token, or None for an absent property
        if self.schema.knows(name):
            matches = [c for c in project.kids[node_id] if project.matches_type(c, name)]
            if len(matches) == 1:
                return project.index.refs[matches[0]]
            if len(matches) > 1:
                raise QueryRuntimeError(
                    f"ambiguous child access {{{name}}} on {tname}", self.source, pos
                )
        return None

    def _prefix(self, e: Prefix) -> Thunk:
        operand, pos = self._compile(e.operand), e.pos
        if e.op == "!":
            return lambda: not operand()
        number, bounded = self._as_number, self._bounded
        return lambda: bounded(-number(operand(), pos), pos)

    def _infix(self, e: Infix) -> Thunk:
        op, pos = e.op, e.pos
        left, right = self._compile(e.lhs), self._compile(e.rhs)
        if op == "&&":
            return lambda: bool(left() and right())
        if op == "||":
            return lambda: bool(left() or right())
        # Both operands are evaluated before either is coerced.
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
        apply = _ARITHMETIC[op]

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
        if isinstance(v, tuple):
            return len(v)
        if v is None:
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
        """A call evaluates its receiver, then its arguments."""
        self._check(e)
        name, pos = e.name, e.pos
        receiver = None if e.receiver is None else self._compile(e.receiver)
        args = [self._compile(a) for a in e.args]
        if name in LIBRARY_FUNCTIONS:
            return self._library_call(name, pos, args)
        if receiver is None:
            # A free form, depth(n): its node is its sole argument.
            receiver, args = args[0], []
        # Probes and links on an absent node degrade instead of aborting, so
        # where clauses can test optional children and unresolved bindings.
        raises, on_undefined = name in FREE_FORMS, False if name in PROBES else None

        def not_a_node(recv: Value) -> Value:
            if recv is None and not raises:
                return on_undefined
            raise QueryRuntimeError(NOT_A_NODE.format(name, _kind_name(recv)), self.source, pos)

        if name == "isnodetype" and type(e.args[0]) is TypeLit:
            # A literal type folds into one set test of the node's type.
            matching, token = self.schema.matching[e.args[0].name]
            types, props = self.project.type, self.project.props

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

    def _library_call(self, name: str, pos: tuple[int, int], args: list[Thunk]) -> Thunk:
        """`print(v)`, `max(a, b)` and `min(a, b)`."""
        if name == "print":
            (value_of,), prints = args, self.sink.prints

            def print_() -> None:
                prints.append(render_value(value_of(), self.project))

            return print_
        (first, second), number = args, self._as_number
        pick = max if name == "max" else min

        def extreme() -> int:
            a, b = first(), second()
            return pick(number(a, pos, True), number(b, pos, True))

        return extreme

    def _node_function(self, name: str, pos: tuple[int, int]) -> Callable[..., Value]:
        """Node function `name` as a function of the receiver's node id and
        the argument's value, if it takes one."""
        project = self.project
        types, parents = project.type, project.parent
        bindings, index = project.bindings, project.index
        pre, end, refs = index.pre, index.end, index.refs

        def parent(n: int) -> Value:
            p = parents[n]
            return None if p is None else refs[p]

        def binding(table: dict[int, int]) -> Callable[[int], Value]:
            def bound(n: int) -> Value:
                target = table.get(n)
                return None if target is None else refs[target]

            return bound

        def isnodetype(n: int, arg: Value) -> bool:
            if type(arg) is not TypeName:
                raise QueryRuntimeError(NOT_A_TYPE, self.source, pos)
            return project.matches_type(n, arg.name)

        def isparent(n: int, arg: Value) -> bool:
            if type(arg) is NodeRef:
                return parents[arg.id] == n
            if type(arg) is TypeName:
                return any(project.matches_type(c, arg.name) for c in project.kids[n])
            if arg is None:
                return False
            raise QueryRuntimeError(NOT_A_TYPE_OR_NODE.format(name), self.source, pos)

        direct = name == "directly_contains"

        def contains(n: int, arg: Value) -> bool:
            if arg is None:
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
                raise QueryRuntimeError(NOT_A_TYPE_OR_NODE.format(name), self.source, pos)
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
    """The language's `==`: a node equals only itself, a node list against
    a number compares its length, a `{T}` value compares as its type name,
    and values of different kinds are never equal."""
    if type(a) is NodeRef:
        return type(b) is NodeRef and a.id == b.id
    if type(a) is tuple and type(b) is int:
        return len(a) == b
    if type(b) is tuple and type(a) is int:
        return len(b) == a
    a = a.name if type(a) is TypeName else a
    b = b.name if type(b) is TypeName else b
    return type(a) is type(b) and a == b


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


_KIND_NAMES = {
    type(None): "undefined", bool: "a boolean", int: "a number", str: "a string",
    NodeRef: "a node", tuple: "a node list", TypeName: "a node type",
}


def _kind_name(v: Value) -> str:
    return _KIND_NAMES.get(type(v), type(v).__name__)

