"""Traced `craql` launcher: the CLI with spans around each layer's public calls.

    python3 perfbench/traceshim.py SPANS.json <craql CLI arguments...>

Runs `craql.cli.main` on the given arguments in this process after wrapping
the public functions each layer exposes to the runner. The program itself
is not modified. Spans and counts are kept in memory and written to
SPANS.json when the command ends; `summarize` turns one or more such files
into per-layer metrics.

A span is `[name, start, end, parent, project, detail]`: the layer-qualified
function name, `perf_counter` times, the index of the enclosing span (or
None), the project being run (or None) and, for `execute_document`, the
query file (else None). A layer's self time is the time its spans cover
minus the time their child spans cover, so the layers plus the uncovered
remainder add up to the wall time of the traced process. Calls to
`ProjectAst.matches_type` are counted but get no span, so astcore's self
time is only deserialization and the engine's includes its type tests.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

LAYERS = ("runner", "query", "minilang", "astcore", "engine")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.project: str | None = None
        self.counts = {
            "matches_type_calls": 0,
            "matches_type_true": 0,
            "nodes_loaded": 0,
            "nodes_parsed": 0,
            "method_invocations": 0,
            "method_bindings": 0,
            "nodes_visited": 0,
            "rows_yielded": 0,
        }

    def wrap(self, name, fn, detail=None, before=None, after=None):
        """Return `fn` recorded as span `name`.

        `detail(args)` labels the span; `before(args)` runs before the span
        opens and its value goes to `after(args, before_value, result)`, which
        runs once the span has closed.
        """
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            pre = before(args) if before is not None else None
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.project,
                      detail(args) if detail is not None else None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, pre, result)
            return result

        return wrapped

    def install(self) -> None:
        import craql.cli
        import craql.minilang
        import craql.runner
        from craql.astcore import ProjectAst
        from craql.engine.evaluator import Evaluator

        counts = self.counts

        def tally(key, measure):
            def after(args, pre, result):
                counts[key] += measure(result)
            return after

        def parsed(args, before_count, result):
            counts["nodes_parsed"] += len(args[0].nodes) - before_count

        def bound(args, pre, table):
            # The scan is bookkeeping, not binding: give it its own span so
            # it lands in the uncovered remainder instead of minilang.
            start = perf_counter()
            invocations = sum(1 for n in args[0].nodes if n.type == "MethodInvocation")
            self.spans.append(["trace.bookkeeping", start, perf_counter(),
                               self.stack[-1] if self.stack else None, self.project, None])
            counts["method_invocations"] += invocations
            counts["method_bindings"] += len(table.method)

        def ran(args, pre, record):
            counts["nodes_visited"] += record.stats.nodes_visited
            counts["rows_yielded"] += record.stats.rows_yielded

        run_project = self.wrap("runner.run_project", craql.runner.run_project, after=ran)

        def run_project_in(name, *rest, **kw):
            outer, self.project = self.project, name
            try:
                return run_project(name, *rest, **kw)
            finally:
                self.project = outer

        craql.cli.run_batch = self.wrap("runner.run_batch", craql.cli.run_batch)
        craql.cli.collate_csv = self.wrap("runner.collate_csv", craql.cli.collate_csv)
        craql.runner.run_project = run_project_in
        craql.runner.load_project_sources = self.wrap(
            "runner.load_project_sources", craql.runner.load_project_sources)
        craql.runner.parse_query_document = self.wrap(
            "query.parse_query_document", craql.runner.parse_query_document)
        craql.runner.deserialize_project = self.wrap(
            "astcore.deserialize_project", craql.runner.deserialize_project,
            after=tally("nodes_loaded", lambda project: len(project.nodes)))
        craql.runner.load_project = self.wrap(
            "minilang.load_project", craql.runner.load_project,
            after=tally("nodes_loaded", lambda result: len(result[0].nodes)))
        craql.minilang.parse_minilang = self.wrap(
            "minilang.parse_minilang", craql.minilang.parse_minilang,
            before=lambda a: len(a[0].nodes), after=parsed)
        craql.minilang.bind_project = self.wrap(
            "minilang.bind_project", craql.minilang.bind_project, after=bound)
        Evaluator.execute_document = self.wrap(
            "engine.execute_document", Evaluator.execute_document, detail=lambda a: a[1].source)

        Evaluator.run_select = self.wrap("engine.run_select", Evaluator.run_select)

        # Counted, not timed: a span per call would cost more than the type
        # test itself (millions of calls per batch), so the time of type
        # tests stays in the self time of the engine that makes them.
        matches_type = ProjectAst.matches_type

        def counted_matches_type(project, node_id, type_name):
            result = matches_type(project, node_id, type_name)
            counts["matches_type_calls"] += 1
            if result:
                counts["matches_type_true"] += 1
            return result

        ProjectAst.matches_type = counted_matches_type

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"counts": self.counts, "spans": self.spans}, handle)


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from the span files of one traced batch.

    Times are in seconds. Keys are layer-qualified, as in BENCHMARK.json,
    without the units; `<layer>.self_s` is the layer's self time.
    """
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    per_query: dict[str, float] = {}
    project_times: list[float] = []
    selects = 0
    counts: dict[str, int] = {}
    for trace in traces:
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _project, _detail in spans:
            if parent is not None:
                covered[parent] += end - start
        for i, (name, start, end, _parent, _project, detail) in enumerate(spans):
            duration = end - start
            inclusive[name] = inclusive.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - covered[i]
            if name == "engine.execute_document":
                query = detail.removesuffix(".craql")
                per_query[query] = per_query.get(query, 0.0) + duration
            elif name == "runner.run_project":
                project_times.append(duration)
            elif name == "engine.run_select":
                selects += 1

    for name, seconds in self_time.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += seconds

    def incl(name: str) -> float:
        return inclusive.get(name, 0.0)

    parse_s = incl("minilang.parse_minilang")
    visited = counts["nodes_visited"]
    calls = counts["matches_type_calls"]
    invocations = counts["method_invocations"]
    out.update({
        "engine.eval_s": incl("engine.execute_document"),
        "engine.selects": selects,
        "engine.nodes_visited": visited,
        "engine.rows_yielded": counts["rows_yielded"],
        "engine.rows_per_visit": counts["rows_yielded"] / visited if visited else 0.0,
        "astcore.matches_type_calls": calls,
        "astcore.match_ratio": counts["matches_type_true"] / calls if calls else 0.0,
        "astcore.deserialize_s": incl("astcore.deserialize_project"),
        "astcore.nodes": counts["nodes_loaded"],
        "minilang.parse_s": parse_s,
        "minilang.nodes_per_s": counts["nodes_parsed"] / parse_s if parse_s else 0.0,
        "minilang.bind_s": incl("minilang.bind_project"),
        "minilang.bind_ratio": counts["method_bindings"] / invocations if invocations else 0.0,
        "runner.read_s": self_time.get("runner.load_project_sources", 0.0),
        "runner.write_s": self_time.get("runner.run_project", 0.0),
        "runner.collate_s": incl("runner.collate_csv"),
        "runner.project_p50_s": statistics.median(project_times) if project_times else 0.0,
        "runner.project_max_s": max(project_times, default=0.0),
        "query.parse_s": incl("query.parse_query_document"),
    })
    for query, seconds in per_query.items():
        out[f"engine.query.{query}_s"] = seconds
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traceshim.py SPANS.json <craql arguments...>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import craql.cli

    try:
        return craql.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
