"""Brute-force reference evaluator for the declarative select subset.

Deliberately naive: every subtree is materialized, modifiers are applied as
post-filters computed from explicit ancestor paths and descendant sets, and
candidates are processed in globally sorted pre-order. None of the engine's
traversal or pruning code is reused. Where clauses are the one shared piece:
they delegate to the engine's expression evaluator, because the claims under
test are the set-selection semantics, not the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from craql.astcore import ProjectAst, child_ids
from craql.engine.evaluator import Evaluator, SelectionCapture
from craql.engine.runtime import Environment, NodeRef, OutputSink, truthy
from craql.query.ast import (
    ELLIPSIS,
    Expr,
    MOD_INMOST,
    MOD_OUTMOST,
    SINGLE,
    SelectQuery,
)

WhereFn = Callable[[dict[str, int], int], bool]


@dataclass
class OracleResult:
    variables: list[str]
    # binding -> pre-order sort key; insertion order is irrelevant by design.
    rows: dict[tuple[int, ...], tuple[int, ...]] = field(default_factory=dict)

    def sorted_bindings(self) -> list[dict[str, int]]:
        ordered = sorted(self.rows.items(), key=lambda item: item[1])
        return [dict(zip(self.variables, ids)) for ids, _ in ordered]


def _subtree(project: ProjectAst, root: int) -> list[int]:
    out = [root]
    for child in child_ids(project.node(root)):
        out.extend(_subtree(project, child))
    return out


def _ancestors_between(project: ProjectAst, node: int, root: int) -> list[int]:
    """Nodes strictly between root and node on the parent path (both excluded)."""
    out: list[int] = []
    cur = project.node(node).parent
    while cur is not None and cur != root:
        out.append(cur)
        cur = project.node(cur).parent
    return out


def _depth(project: ProjectAst, node: int) -> int:
    d = 0
    cur = project.node(node).parent
    while cur is not None:
        d += 1
        cur = project.node(cur).parent
    return d


def oracle_select(
    project: ProjectAst,
    pattern_kind: str,
    types: tuple[str, ...],
    variables: list[str],
    modifier: str,
    input_nodes: list[int],
    include_root: bool,
    directly: bool,
    where_fn: WhereFn | None = None,
) -> OracleResult:
    result = OracleResult(list(variables))
    accepted: list[tuple[int, ...]] = []
    accepted_single: set[int] = set()

    def passes(bindings: tuple[int, ...]) -> bool:
        if where_fn is None:
            return True
        return where_fn(dict(zip(variables, bindings)), len(accepted))

    for root_idx, root in enumerate(input_nodes):
        everything = _subtree(project, root)
        rank = {n: i for i, n in enumerate(everything)}
        root_type = project.node(root).type

        def t1_candidates() -> list[int]:
            out = [n for n in everything if project.matches_type(n, types[0])]
            if not include_root and root in out:
                out.remove(root)
            if directly:
                out = [
                    n
                    for n in out
                    if not any(
                        project.node(a).type == root_type
                        for a in _ancestors_between(project, n, root)
                    )
                ]
            return out

        if pattern_kind == SINGLE:
            candidates = t1_candidates()
            if modifier == MOD_INMOST:
                candidates = [
                    n
                    for n in candidates
                    if not any(
                        project.matches_type(d, types[0])
                        for d in _subtree(project, n)[1:]
                    )
                ]
            for n in sorted(candidates, key=lambda n: rank[n]):
                if modifier == MOD_OUTMOST and any(
                    a in accepted_single for a in _ancestors_between(project, n, root)
                ):
                    continue
                if (n,) in result.rows:
                    continue
                if passes((n,)):
                    accepted.append((n,))
                    accepted_single.add(n)
                    result.rows[(n,)] = (root_idx, rank[n])
        else:
            pairs = [
                (n1, n2)
                for n1 in t1_candidates()
                for n2 in _subtree(project, n1)[1:]
                if project.matches_type(n2, types[1])
            ]
            for n1, n2 in sorted(pairs, key=lambda p: (rank[p[0]], rank[p[1]])):
                if (n1, n2) in result.rows:
                    continue
                if passes((n1, n2)):
                    accepted.append((n1, n2))
                    result.rows[(n1, n2)] = (root_idx, rank[n1], rank[n2])

    if pattern_kind == ELLIPSIS and result.rows:
        best = max(_depth(project, n2) - _depth(project, n1) for n1, n2 in result.rows)
        result.rows = {
            pair: key
            for pair, key in result.rows.items()
            if _depth(project, pair[1]) - _depth(project, pair[0]) == best
        }
    return result


def where_from_expr(
    project: ProjectAst,
    where: Expr | None,
    env_snapshot: dict,
) -> WhereFn | None:
    """Evaluate a query's where clause via the engine's expression evaluator.

    Each call sees the environment as it was when the select started, the
    candidate bindings, and a count(*) equal to rows accepted so far.
    """
    if where is None:
        return None
    # One evaluator, so the where clause is compiled once for all calls.
    evaluator = Evaluator(project, Environment(), OutputSink())
    env = evaluator.env

    def fn(bindings: dict[str, int], count: int) -> bool:
        env.variables.clear()
        env.variables.update(env_snapshot)
        env.count_stack[:] = [range(count)]
        for var, node_id in bindings.items():
            env.set(var, NodeRef(node_id))
        return truthy(evaluator.eval(where))

    return fn


def replay_capture(project: ProjectAst, capture: SelectionCapture) -> OracleResult:
    """Re-run a captured engine selection through the oracle."""
    q: SelectQuery = capture.query
    types = (q.pattern.type1,) if q.pattern.kind == SINGLE else (q.pattern.type1, q.pattern.type2)
    return oracle_select(
        project,
        q.pattern.kind,
        types,
        q.pattern.variables(),
        q.modifier,
        capture.input_nodes,
        capture.include_root,
        capture.directly,
        where_from_expr(project, q.where, capture.env_snapshot),
    )


@dataclass
class DiffReport:
    missing: list[str] = field(default_factory=list)   # oracle has, engine lacks
    extra: list[str] = field(default_factory=list)     # engine has, oracle lacks
    order_mismatch: bool = False

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra and not self.order_mismatch

    def __str__(self) -> str:
        if self.empty:
            return "rows match"
        lines = [f"missing: {m}" for m in self.missing]
        lines += [f"extra: {x}" for x in self.extra]
        if self.order_mismatch:
            lines.append("row order differs from pre-order sort")
        return "\n".join(lines)


def _describe(project: ProjectAst, binding: dict[str, int]) -> str:
    parts = []
    for var, node_id in binding.items():
        node = project.node(node_id)
        fname = project.files[node.span.file].name
        parts.append(f"{var}={node.type}@{fname}:{node.span.line}")
    return ", ".join(parts)


def compare(project: ProjectAst, engine_rows: list[dict[str, int]], oracle: OracleResult) -> DiffReport:
    report = DiffReport()
    oracle_rows = oracle.sorted_bindings()
    engine_keys = [tuple(r[v] for v in oracle.variables) for r in engine_rows]
    oracle_keys = [tuple(r[v] for v in oracle.variables) for r in oracle_rows]
    engine_set, oracle_set = set(engine_keys), set(oracle_keys)
    for key in oracle_keys:
        if key not in engine_set:
            report.missing.append(_describe(project, dict(zip(oracle.variables, key))))
    for key in engine_keys:
        if key not in oracle_set:
            report.extra.append(_describe(project, dict(zip(oracle.variables, key))))
    if not report.missing and not report.extra and engine_keys != oracle_keys:
        report.order_mismatch = True
    return report
