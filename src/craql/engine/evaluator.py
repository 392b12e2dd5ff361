"""The query evaluator: set selection with pruning, expression evaluation,
the builtin function library, and the imperative statement interpreter.

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

One loop, `run_select`, runs every select. `_candidates` yields the
candidates in row order with the pattern variables bound: the outer scan for
a single pattern, with the `outmost` prune and the `inmost` filter; the outer
and inner scans for a pair. The loop evaluates the where clause, sets the flag
the `outmost` prune reads and drops candidates already seen; `_add_row`
records each accepted row, emits it and runs the body. An ellipsis select
defers its rows to a replay through `_add_row` once the deepest are known.

No select walks the tree: `_scan` bisects the pattern type's pre-order rank
list (see `craql.astcore.RegionIndex`) to the input node's region and skips
the regions below pruned nodes, which yields exactly the candidates the
pruned pre-order walk would reach, in the same order.

A select whose where clause holds a link key (see `craql.engine.links`),
such as `m == i.methodbinding()` with `m` fixed for the whole select, takes
its candidates from `_linked` instead: the nodes the key links to that node,
in the scan's order. The where clause still runs on each of them; the scan's
other candidates are the ones the key rejects, and rejecting them has no
effect a later candidate or the output could see.
"""

from __future__ import annotations

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
from craql.engine.links import LINK_CHILD, LINK_METHOD_CHILD, LinkKey, find_link_key
from craql.engine.runtime import (
    Counter,
    Environment,
    ExecutionStats,
    NodeList,
    NodeRef,
    OutputSink,
    ResultSet,
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

NODE_FUNCTIONS = frozenset({
    "contains", "directly_contains", "isparent", "parent", "isnodetype",
    "position", "linenumber", "filename", "depth", "nodetype",
    "methodbinding", "typebinding",
})


class Evaluator:
    def __init__(
        self,
        project: ProjectAst,
        env: Environment | None = None,
        sink: OutputSink | None = None,
        recursion_limit: int = 512,
        source: str = "<query>",
    ):
        self.project = project
        self.schema = project.schema
        self.env = env if env is not None else Environment()
        self.sink = sink if sink is not None else OutputSink()
        self.recursion_limit = recursion_limit
        self.source = source
        self.stats = ExecutionStats()
        self.trace: Callable[[SelectionCapture], None] | None = None
        self._doc: QueryDocument | None = None
        # id(select) -> (select, its link key): each select is analysed once.
        self._link_keys: dict[int, tuple[SelectQuery, LinkKey | None]] = {}

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

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def run_select(
        self,
        q: SelectQuery,
        emit: bool = False,
        input_override: InputSpec | None = None,
    ) -> ResultSet:
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
        self._require_type(pat.type1, pat.pos)
        if pat.kind != SINGLE:
            self._require_type(pat.type2, pat.pos)
        rs = ResultSet()
        counter = Counter()
        self.env.count_stack.append(counter)
        accepted = False  # the candidate just handled passed the where clause

        def prune(n: int) -> bool:
            return accepted

        link_key = None if directly else self._link_key(q)
        fixed = None if link_key is None else link_key.fixed_node(self.env.variables)
        if fixed is not None:
            candidates = self._linked(
                pat.var1, pat.type1, link_key.link, fixed, input_nodes, include_root, rs.stats
            )
        else:
            candidates = self._candidates(
                q, input_nodes, include_root, directly, rs.stats,
                prune if q.modifier == MOD_OUTMOST else None,
            )
        where = q.where
        deferred: list[tuple[int, int]] = []  # ellipsis rows wait for the depth test
        seen: set[int | tuple[int, int]] = set()
        try:
            for key in candidates:
                accepted = where is None or truthy(self.eval(where))
                if not accepted or key in seen:
                    continue
                seen.add(key)
                if pat.kind == ELLIPSIS:
                    deferred.append(key)
                    counter.count += 1
                else:
                    self._add_row(q, key, rs, counter, emit)
            if deferred:
                depth = self.project.index.depth
                best = max(depth[n2] - depth[n1] for n1, n2 in deferred)
                counter.count = 0
                for n1, n2 in deferred:
                    if depth[n2] - depth[n1] == best:
                        self.env.set(pat.var1, NodeRef(n1))
                        self.env.set(pat.var2, NodeRef(n2))
                        self._add_row(q, (n1, n2), rs, counter, emit)
        finally:
            self.env.count_stack.pop()
        self.stats.nodes_visited += rs.stats.nodes_visited
        self.stats.rows_yielded += rs.stats.rows_yielded
        if capture is not None:
            capture.rows = [dict(r) for r in rs.rows]
            self.trace(capture)
        return rs

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

    def _require_type(self, name: str, pos: tuple[int, int]) -> None:
        if not self.schema.knows(name):
            raise QueryRuntimeError(f"unknown node type {name}", self.source, pos)

    def _has_descendant_of_type(self, node_id: int, type_name: str) -> bool:
        ranks = self.project.type_ranks(type_name)
        index = self.project.index
        i = bisect_right(ranks, index.pre[node_id])
        return i < len(ranks) and ranks[i] < index.end[node_id]

    def _scan(
        self,
        type_name: str,
        root: int,
        include_root: bool,
        directly: bool,
        stats: ExecutionStats,
        prune: Callable[[int], bool] | None = None,
    ) -> Iterator[int]:
        """The nodes matching `type_name` that the pruned pre-order walk of
        root's subtree would reach, in walk order, without the walk.

        Candidates come from the type's rank list over root's region; the
        region of a pruned node is skipped. A node is pruned when it is a
        `directly` cut (below root, with root's concrete type) or when
        `prune(node)`, asked as the caller resumes after `node`, is true.
        `stats.nodes_visited` gains what the walk would visit: root's region
        less the strict interior of each pruned node the walk reaches.
        """
        index = self.project.index
        order, end = index.order, index.end
        ranks = self.project.type_ranks(type_name)
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
        input_nodes: list[int],
        include_root: bool,
        directly: bool,
        stats: ExecutionStats,
        prune: Callable[[int], bool] | None,
    ) -> Iterator[int | tuple[int, int]]:
        """The select's candidates in row order, each with its pattern
        variables bound: a node for a single pattern, a pair of nodes for
        `*` and `...`. Modifiers apply to single patterns only."""
        pat = q.pattern
        var1, var2 = pat.var1, pat.var2
        inmost = q.modifier == MOD_INMOST
        variables = self.env.variables  # set directly: this runs per candidate
        for root in input_nodes:
            if pat.kind == SINGLE:
                for n in self._scan(pat.type1, root, include_root, directly, stats, prune):
                    if inmost and self._has_descendant_of_type(n, pat.type1):
                        continue
                    variables[var1] = NodeRef(n)
                    yield n
                continue
            for n1 in self._scan(pat.type1, root, include_root, directly, stats):
                stats.nodes_visited -= 1  # the outer scan has counted n1
                for n2 in self._scan(pat.type2, n1, False, False, stats):
                    variables[var1] = NodeRef(n1)
                    variables[var2] = NodeRef(n2)
                    yield n1, n2

    def _link_key(self, q: SelectQuery) -> LinkKey | None:
        entry = self._link_keys.get(id(q))
        if entry is None:
            entry = self._link_keys[id(q)] = (q, find_link_key(q, self.schema))
        return entry[1]

    def _linked(
        self,
        var: str,
        type_name: str,
        link: str,
        fixed: int,
        input_nodes: list[int],
        include_root: bool,
        stats: ExecutionStats,
    ) -> Iterator[int]:
        """The candidates of a single-pattern select, without modifier or
        `directly in`, that `link` ties to node `fixed`, in `_candidates`'
        order and with the pattern variable bound the same way.

        The linked nodes' ranks are bisected to each input root's region and
        tested against the pattern type's rank list. Each root adds its
        region to `stats.nodes_visited`, as the unpruned scan does, and the
        pattern variable is left bound to the scan's last candidate.
        """
        project = self.project
        index = project.index
        if link == LINK_CHILD:
            linked = [index.pre[c] for c in child_ids(project.node(fixed))]
        elif link == LINK_METHOD_CHILD:
            linked = sorted(r for c in child_ids(project.node(fixed))
                            for r in project.bound_ranks("method", c))
        else:
            linked = project.bound_ranks(link, fixed)
        order, variables = index.order, self.env.variables
        last = None  # the scan's last candidate so far
        for root in input_nodes:
            ranks = project.type_ranks(type_name)
            start, stop = index.pre[root], index.end[root]
            first = start if include_root else start + 1
            stats.nodes_visited += stop - start
            for r in linked[bisect_left(linked, first):bisect_left(linked, stop)]:
                i = bisect_left(ranks, r)
                if i < len(ranks) and ranks[i] == r:
                    variables[var] = NodeRef(order[r])
                    yield order[r]
            i = bisect_left(ranks, stop)
            if i and ranks[i - 1] >= first:
                last = order[ranks[i - 1]]
        if last is not None:
            variables[var] = NodeRef(last)

    def _add_row(
        self,
        q: SelectQuery,
        key: int | tuple[int, int],
        rs: ResultSet,
        counter: Counter,
        emit: bool,
    ) -> None:
        """Record an accepted candidate as a row, then run the body on it."""
        pat = q.pattern
        if pat.kind == SINGLE:
            first, row = key, {pat.var1: key}
        else:
            first, row = key[0], {pat.var1: key[0], pat.var2: key[1]}
        rs.rows.append(row)
        counter.count += 1
        rs.stats.rows_yielded += 1
        if emit:
            node = self.project.node(first)
            self.sink.result_row(RowRecord(
                self.project.files[node.span.file].name, node.span.line, node.type,
                source_text(self.project, first),
            ))
        self._exec_body(q.body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_body(self, body: list[Stmt]) -> None:
        for s in body:
            self._exec_stmt(s)

    def _exec_stmt(self, s: Stmt) -> None:
        if isinstance(s, Assign):
            value = self.eval(s.value)
            if s.op == "=":
                self.env.set(s.target, value)
            else:
                old = self.env.get(s.target)
                if old is UNDEFINED:
                    old = "" if isinstance(value, str) and s.op == "+=" else 0
                if s.op == "+=":
                    self.env.set(s.target, self._plus(old, value, s.pos))
                else:
                    self.env.set(
                        s.target,
                        self._as_number(old, s.pos) - self._as_number(value, s.pos),
                    )
        elif isinstance(s, IncrDecr):
            old = self._as_number(self.env.get(s.target), s.pos)
            self.env.set(s.target, old + 1 if s.op == "++" else old - 1)
        elif isinstance(s, If):
            if truthy(self.eval(s.cond)):
                self._exec_body(s.then_body)
            elif s.else_body is not None:
                self._exec_body(s.else_body)
        elif isinstance(s, While):
            steps = 0
            while truthy(self.eval(s.cond)):
                if steps == MAX_WHILE_STEPS:
                    raise QueryRuntimeError(
                        f"while loop exceeded {MAX_WHILE_STEPS} steps", self.source, s.pos
                    )
                steps += 1
                self._exec_body(s.body)
        elif isinstance(s, SelectStmt):
            self.run_select(s.query)
        elif isinstance(s, CallQuery):
            self._exec_callquery(s)
        elif isinstance(s, PrintStmt):
            self.sink.print_line(render_value(self.eval(s.value), self.project))
        elif isinstance(s, ExprStmt):
            self.eval(s.value)
        else:
            raise QueryRuntimeError(f"unknown statement {type(s).__name__}", self.source, s.pos)

    def _exec_callquery(self, s: CallQuery) -> None:
        if self._doc is None:
            raise QueryRuntimeError("callquery outside a document", self.source, s.pos)
        target = self._doc.labels().get(s.label)
        if target is None:
            raise QueryRuntimeError(f"unresolved query label {s.label}", self.source, s.pos)
        if self.env.call_depth >= self.recursion_limit:
            raise QueryRuntimeError("query recursion limit", self.source, s.pos)
        self.env.call_depth += 1
        try:
            # A called query is a top-level query of the document: its rows emit.
            self.run_select(target, emit=True, input_override=s.input)
        finally:
            self.env.call_depth -= 1

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval(self, e: Expr) -> Value:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, StrLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, VarRef):
            return self.env.get(e.name)
        if isinstance(e, TypeLit):
            self._require_type(e.name, e.pos)
            return TypeName(e.name)
        if isinstance(e, CountStar):
            if not self.env.count_stack:
                raise QueryRuntimeError("count(*) outside a select", self.source, e.pos)
            return self.env.count_stack[-1].count
        if isinstance(e, PropAccess):
            base = self.eval(e.base)
            if base is UNDEFINED:
                raise QueryRuntimeError(
                    f"property access .{e.name} on undefined", self.source, e.pos
                )
            if not isinstance(base, NodeRef):
                raise QueryRuntimeError(
                    f"property access .{e.name} on {_kind_name(base)}", self.source, e.pos
                )
            return self.eval_accessor(base.id, e.name, e.pos)
        if isinstance(e, Call):
            return self._eval_call(e)
        if isinstance(e, Prefix):
            if e.op == "!":
                return not truthy(self.eval(e.operand))
            return -self._as_number(self.eval(e.operand), e.pos)
        if isinstance(e, Infix):
            return self._eval_infix(e)
        raise QueryRuntimeError(f"unknown expression {type(e).__name__}", self.source,
                                getattr(e, "pos", (0, 0)))

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

    # -- builtin functions --

    def _eval_call(self, e: Call) -> Value:
        recv = self.eval(e.receiver) if e.receiver is not None else None
        args = [self.eval(a) for a in e.args]

        if e.name in ("max", "min"):
            self._check_arity(e, 2)
            a = self._as_number(args[0], e.pos, allow_literal_node=True)
            b = self._as_number(args[1], e.pos, allow_literal_node=True)
            return max(a, b) if e.name == "max" else min(a, b)
        if e.name == "print":
            self._check_arity(e, 1)
            self.sink.print_line(render_value(args[0], self.project))
            return UNDEFINED

        if e.name not in NODE_FUNCTIONS:
            raise QueryRuntimeError(f"unknown function {e.name}", self.source, e.pos)

        # Node functions accept the node as receiver or as the sole argument
        # (the free forms depth(n) and nodetype(n)).
        if recv is None:
            if e.name in ("depth", "nodetype", "position", "linenumber", "filename") and len(args) == 1:
                recv, args = args[0], []
            else:
                raise QueryRuntimeError(f"{e.name}() needs a node receiver", self.source, e.pos)
        if recv is UNDEFINED:
            # Probes on an absent node degrade instead of aborting, so where
            # clauses can test optional children and unresolved bindings.
            if e.name in ("isnodetype", "contains", "directly_contains", "isparent"):
                self._check_arity(e, 1)
                return False
            if e.name in ("parent", "methodbinding", "typebinding"):
                self._check_arity(e, 0)
                return UNDEFINED
        if not isinstance(recv, NodeRef):
            raise QueryRuntimeError(
                f"{e.name}() receiver is {_kind_name(recv)}, not a node", self.source, e.pos
            )
        node_id = recv.id
        node = self.project.node(node_id)

        if e.name == "parent":
            self._check_arity(e, 0)
            parent = node.parent
            return UNDEFINED if parent is None else NodeRef(parent)
        if e.name == "position":
            self._check_arity_already_bound(e, args)
            return node.span.start
        if e.name == "linenumber":
            self._check_arity_already_bound(e, args)
            return node.span.line
        if e.name == "filename":
            self._check_arity_already_bound(e, args)
            return self.project.files[node.span.file].name
        if e.name == "depth":
            self._check_arity_already_bound(e, args)
            return node_depth(self.project, node_id)
        if e.name == "nodetype":
            self._check_arity_already_bound(e, args)
            return node.type
        if e.name == "isnodetype":
            self._check_arity(e, 1)
            return self._type_arg_match(node_id, args[0], e)
        if e.name == "methodbinding":
            self._check_arity(e, 0)
            target = self.project.bindings.method.get(node_id)
            return UNDEFINED if target is None else NodeRef(target)
        if e.name == "typebinding":
            self._check_arity(e, 0)
            target = self.project.bindings.type.get(node_id)
            return UNDEFINED if target is None else NodeRef(target)
        if e.name == "isparent":
            self._check_arity(e, 1)
            return self._isparent(node_id, args[0], e)
        if e.name == "contains":
            self._check_arity(e, 1)
            return self._contains(node_id, args[0], e, direct_only=False)
        if e.name == "directly_contains":
            self._check_arity(e, 1)
            return self._contains(node_id, args[0], e, direct_only=True)
        raise QueryRuntimeError(f"unknown function {e.name}", self.source, e.pos)

    def _check_arity(self, e: Call, n: int) -> None:
        if len(e.args) != n:
            raise QueryRuntimeError(
                f"{e.name}() takes {n} argument{'s' if n != 1 else ''}, got {len(e.args)}",
                self.source, e.pos,
            )

    def _check_arity_already_bound(self, e: Call, args: list[Value]) -> None:
        # Free-form usage moved the single argument into the receiver slot.
        if args:
            raise QueryRuntimeError(
                f"{e.name}() takes no arguments beyond the node", self.source, e.pos
            )

    def _type_arg_match(self, node_id: int, arg: Value, e: Call) -> bool:
        if not isinstance(arg, TypeName):
            raise QueryRuntimeError(
                f"{e.name}() expects a node type like {{Block}}", self.source, e.pos
            )
        return self.project.matches_type(node_id, arg.name)

    def _isparent(self, node_id: int, arg: Value, e: Call) -> bool:
        if isinstance(arg, TypeName):
            children = child_ids(self.project.node(node_id))
            return any(self.project.matches_type(c, arg.name) for c in children)
        if isinstance(arg, NodeRef):
            return self.project.node(arg.id).parent == node_id
        if arg is UNDEFINED:
            return False
        raise QueryRuntimeError(
            "isparent() expects a node type or a node", self.source, e.pos
        )

    def _contains(self, node_id: int, arg: Value, e: Call, direct_only: bool) -> bool:
        if arg is UNDEFINED:
            return False
        if isinstance(arg, TypeName):
            if not direct_only:
                return self._has_descendant_of_type(node_id, arg.name)
            scan = self._scan(arg.name, node_id, False, True, ExecutionStats())
            return next(scan, None) is not None
        if isinstance(arg, NodeRef):
            pre, end = self.project.index.pre, self.project.index.end
            if not pre[node_id] < pre[arg.id] < end[node_id]:
                return False
            # directly_contains: no node of node_id's type may interpose.
            root_type = self.project.node(node_id).type
            cur = self.project.node(arg.id).parent
            while direct_only and cur != node_id:
                if self.project.node(cur).type == root_type:
                    return False
                cur = self.project.node(cur).parent
            return True
        raise QueryRuntimeError(
            f"{e.name}() expects a node type or a node", self.source, e.pos
        )

    # -- operators --

    def _eval_infix(self, e: Infix) -> Value:
        if e.op == "&&":
            return truthy(self.eval(e.lhs)) and truthy(self.eval(e.rhs))
        if e.op == "||":
            return truthy(self.eval(e.lhs)) or truthy(self.eval(e.rhs))
        left = self.eval(e.lhs)
        right = self.eval(e.rhs)
        if e.op in ("==", "!="):
            eq = self._values_equal(left, right)
            return eq if e.op == "==" else not eq
        if e.op in ("<", "<=", ">", ">="):
            a = self._as_number(left, e.pos)
            b = self._as_number(right, e.pos)
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
        if e.op == "+":
            return self._plus(left, right, e.pos)
        if e.op == "-":
            return self._as_number(left, e.pos) - self._as_number(right, e.pos)
        if e.op == "*":
            return self._as_number(left, e.pos) * self._as_number(right, e.pos)
        raise QueryRuntimeError(f"unknown operator {e.op}", self.source, e.pos)

    def _plus(self, left: Value, right: Value, pos: tuple[int, int]) -> Value:
        if isinstance(left, str) or isinstance(right, str):
            return render_value(left, self.project) + render_value(right, self.project)
        return self._as_number(left, pos) + self._as_number(right, pos)

    def _values_equal(self, a: Value, b: Value) -> bool:
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
    recursion_limit: int = 512,
) -> Evaluator:
    """Convenience wrapper: run a document and return the evaluator used."""
    ev = Evaluator(project, env, sink, recursion_limit, source=doc.source)
    ev.execute_document(doc)
    return ev
