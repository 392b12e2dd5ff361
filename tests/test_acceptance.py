"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values are frozen from hand enumeration of the bundled fixtures;
the comments in each table entry say what was counted.
"""

from __future__ import annotations

import random
import time

import pytest

from craql import (
    BUNDLED_QUERIES,
    Environment,
    Evaluator,
    OutputSink,
    bundled_query_path,
    load_project,
    MINILANG_SCHEMA,
    parse_query_document,
    validate_against_schema,
)
from craql.engine.runtime import NodeRef
from craql.fixtures import (
    fixture_text,
    generate_block_sea,
    generate_nested_blocks,
    generate_random_source,
)
from craql.oracle import compare, replay_capture
from craql.query.ast import (
    INPUT_DEFAULT,
    INPUT_DIRECTLY_IN,
    INPUT_IN,
    InputSpec,
    MOD_INMOST,
    MOD_NONE,
    MOD_OUTMOST,
    Pattern,
    SINGLE,
    SelectQuery,
    VarRef,
)
from craql.results import RunConfig, collate_csv, generate_props
from craql.runner import run_batch

GETTER_LINE_F1 = "int getCount() { return count; } is a getter"
GETTER_LINE_F3 = "int step() {\n    return total;\n  } is a getter"

# The six normative fixtures. F4 and F5 are generated, per their definition.
FIXTURES = {
    "F1": ("Sample.mj", lambda: fixture_text("Sample.mj")),
    "F2": ("Fact.mj", lambda: fixture_text("Fact.mj")),
    "F3": ("AB.mj", lambda: fixture_text("AB.mj")),
    "F4": ("Deep.mj", lambda: generate_nested_blocks(10)),
    "F5": ("Sea.mj", lambda: generate_block_sea(250)),
    "F6": ("Unreachable.mj", lambda: fixture_text("Unreachable.mj")),
}

# Exported variables after running each query document on each fixture.
# Entries absent from a row mean "no variables exported".
EXPECTED_VARS: dict[str, dict[str, dict[str, int]]] = {
    "blocktop_declarations": {
        "F1": {"num_blocktops": 1, "num_inlines": 1},  # i at top, j inline
    },
    "block_children": {
        "F1": {"num_child_statements": 6},    # 1 + 4 + 1 per block
        "F2": {"num_child_statements": 1},
        "F3": {"num_child_statements": 3},
        "F4": {"num_child_statements": 10},   # each nesting level but the innermost
        "F5": {"num_child_statements": 225},  # 25 bodies x 9 empty blocks
        "F6": {"num_child_statements": 14},
    },
    "bound_calls": {
        "F2": {"num_bound_calls": 1},  # the recursive fact() call
        "F3": {"num_bound_calls": 2},  # b.run() and step()
    },
    "calls_in_out": {
        "F1": {"num_incoming": 0, "num_outgoing": 1},  # unresolved log() leaves
        "F2": {"num_incoming": 0, "num_outgoing": 0},  # self call stays inside
        "F3": {"num_incoming": 1, "num_outgoing": 0},  # A's b.run() arrives in B
        "F4": {"num_incoming": 0, "num_outgoing": 0},
        "F5": {"num_incoming": 0, "num_outgoing": 0},
        "F6": {"num_incoming": 0, "num_outgoing": 7},  # seven unresolved log() calls
    },
    "top_statements": {
        "F1": {"num_top_statements": 2},   # one pruned body block per method
        "F2": {"num_top_statements": 1},
        "F3": {"num_top_statements": 3},
        "F4": {"num_top_statements": 1},
        "F5": {"num_top_statements": 25},
        "F6": {"num_top_statements": 5},
    },
    "recursive_methods": {
        "F2": {"num_recursive_calls": 1},
    },
    "deepest_block": {
        "F1": {"block_depth": 2, "deepest_block_depth": 2},   # while body
        "F2": {"block_depth": 0, "deepest_block_depth": 0},   # only the method body
        "F3": {"block_depth": 0, "deepest_block_depth": 0},
        "F4": {"block_depth": 10, "deepest_block_depth": 10},
        "F5": {"block_depth": 1, "deepest_block_depth": 1},   # empty blocks in bodies
        "F6": {"block_depth": 2, "deepest_block_depth": 2},   # loop/if bodies
    },
    "call_chains": {
        "F1": {"max_chain_length": 1},
        "F2": {"max_chain_length": 1},
        "F3": {"max_chain_length": 1},
        "F6": {"max_chain_length": 1},
    },
    "nested_loops": {},    # no for statements anywhere in F1-F6
    "throwing_catches": {},
    "nested_types": {},    # MiniLang has no nested type declarations
    "self_typed": {},
    "getters": {},
    "unreachable": {},
    "capped_blocks": {},
}

# Block counts drive the capped query: rows == min(blocks, 100), prints 1..rows.
BLOCK_COUNTS = {"F1": 3, "F2": 1, "F3": 3, "F4": 11, "F5": 250, "F6": 8}

EXPECTED_PRINTS: dict[tuple[str, str], list[str]] = {
    ("getters", "F1"): [GETTER_LINE_F1],
    ("getters", "F3"): [GETTER_LINE_F3],
    ("unreachable", "F6"): [
        "Unreachable.mj - 4",
        "Unreachable.mj - 9",
        "Unreachable.mj - 16",
        "Unreachable.mj - 21",
    ],
}
for key, count in BLOCK_COUNTS.items():
    EXPECTED_PRINTS[("capped_blocks", key)] = [str(i) for i in range(1, min(count, 100) + 1)]
for key in FIXTURES:
    EXPECTED_PRINTS.setdefault(("getters", key), [])
    EXPECTED_PRINTS.setdefault(("unreachable", key), [])

# Operation examples whose scenarios need fixtures beyond F1-F6.
EXTRA_FIXTURES = {
    "Loops.mj": ("nested_loops", {"nested_for_count": 3}),
    "Chain.mj": ("call_chains", {"max_chain_length": 3}),
    "Trycatch.mj": ("throwing_catches", {"num_throwing_catches": 1}),
    "Linked.mj": ("self_typed", {"num_self_typed": 1}),
}


@pytest.fixture(scope="module")
def fixture_projects():
    projects = {}
    for key, (file_name, text_fn) in FIXTURES.items():
        project, diagnostics = load_project(key, [(file_name, text_fn())])
        assert not diagnostics, (key, diagnostics)
        projects[key] = project
    return projects


@pytest.fixture(scope="module")
def parsed_queries():
    docs = {}
    for name in BUNDLED_QUERIES:
        docs[name[: -len(".craql")]] = parse_query_document(
            bundled_query_path(name).read_text(), name
        )
    return docs


def run_doc(project, doc, trace=None):
    env = Environment()
    sink = OutputSink()
    evaluator = Evaluator(project, env, sink, source=doc.source)
    if trace is not None:
        evaluator.trace = trace
    evaluator.execute_document(doc)
    return env, sink, evaluator


def test_criterion_1_figure_query_suite(fixture_projects, parsed_queries):
    started = time.monotonic()
    for qname, doc in parsed_queries.items():
        assert validate_against_schema(doc, MINILANG_SCHEMA) == [], qname
        for fkey, project in fixture_projects.items():
            env, sink, _ = run_doc(project, doc)
            expected = EXPECTED_VARS[qname].get(fkey, {})
            assert env.exported() == expected, (qname, fkey)
            if (qname, fkey) in EXPECTED_PRINTS:
                assert sink.prints == EXPECTED_PRINTS[(qname, fkey)], (qname, fkey)
    for file_name, (qname, expected) in EXTRA_FIXTURES.items():
        project, diagnostics = load_project(file_name, [(file_name, fixture_text(file_name))])
        assert not diagnostics
        env, _, _ = run_doc(project, parsed_queries[qname])
        assert env.exported() == expected, file_name
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"figure suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: figure-query suite exact outputs ({elapsed:.2f}s)")


def test_criterion_2_query_compactness():
    lines = bundled_query_path("unreachable.craql").read_text().splitlines()
    index = 0
    while index < len(lines) and (
        lines[index].lstrip().startswith("//") or not lines[index].strip()
    ):
        index += 1
    body = "\n".join(lines[index:]) + "\n"
    non_blank = [line for line in body.splitlines() if line.strip()]
    assert len(non_blank) <= 15, f"{len(non_blank)} non-blank lines"
    assert len(body) <= 418, f"{len(body)} characters"
    print(f"\nACCEPTANCE 2 PASS: unreachable query is {len(non_blank)} lines, {len(body)} chars")


def test_criterion_3_oracle_equivalence(fixture_projects, parsed_queries):
    checked = 0
    for fkey, project in fixture_projects.items():
        for qname, doc in parsed_queries.items():
            captures = []
            run_doc(project, doc, trace=captures.append)
            for capture in captures:
                report = compare(project, capture.rows, replay_capture(project, capture))
                assert report.empty, (qname, fkey, str(report))
                checked += 1
    assert checked > 0
    print(f"\nACCEPTANCE 3 PASS: engine == oracle on {checked} selections")


def _rows(project, type_name, modifier, input_spec, env=None):
    query = SelectQuery(Pattern(SINGLE, type_name, "n"), modifier, input_spec, None, [])
    evaluator = Evaluator(project, env or Environment(), OutputSink())
    return [r["n"] for r in evaluator.run_select(query)]


def test_criterion_4_modifier_laws():
    rng = random.Random(1234)
    counterexamples = 0
    files = 0
    for i in range(110):
        source = generate_random_source(rng, classes=rng.randint(1, 3), max_depth=rng.randint(1, 5))
        project, diagnostics = load_project(f"law{i}", [("R.mj", source)])
        assert not diagnostics
        files += 1
        for type_name in ("Statement", "Block", "MethodInvocation", "Expression"):
            plain = _rows(project, type_name, MOD_NONE, InputSpec(INPUT_DEFAULT))
            outer = _rows(project, type_name, MOD_OUTMOST, InputSpec(INPUT_DEFAULT))
            inner = _rows(project, type_name, MOD_INMOST, InputSpec(INPUT_DEFAULT))
            if not (set(outer) <= set(plain) and set(inner) <= set(plain)):
                counterexamples += 1
            both = set(outer) & set(inner)
            if not (both <= set(outer) and both <= set(inner)):
                counterexamples += 1
            methods = [n.id for n in project.nodes if n.type == "MethodDeclaration"][:2]
            for m in methods:
                env = Environment({"r": NodeRef(m)})
                via_in = _rows(project, type_name, MOD_NONE, InputSpec(INPUT_IN, VarRef("r")), env)
                env = Environment({"r": NodeRef(m)})
                via_dir = _rows(
                    project, type_name, MOD_NONE, InputSpec(INPUT_DIRECTLY_IN, VarRef("r")), env
                )
                if not set(via_dir) <= set(via_in):
                    counterexamples += 1
    assert files >= 100
    assert counterexamples == 0
    print(f"\nACCEPTANCE 4 PASS: modifier laws on {files} random files, 0 counterexamples")


def test_criterion_5_pruning_effectiveness(fixture_projects):
    project = fixture_projects["F4"]
    body = next(
        n for n in project.nodes
        if n.type == "Block" and project.node(n.parent).type == "MethodDeclaration"
    )
    env = Environment({"r": NodeRef(body.id)})
    query = SelectQuery(
        Pattern(SINGLE, "Block", "b"), MOD_OUTMOST,
        InputSpec(INPUT_DIRECTLY_IN, VarRef("r")), None, [],
    )
    pruned = Evaluator(project, env, OutputSink())
    pruned.run_select(query)
    env = Environment({"r": NodeRef(body.id)})
    query = SelectQuery(
        Pattern(SINGLE, "Block", "b"), MOD_NONE, InputSpec(INPUT_IN, VarRef("r")), None, [],
    )
    plain = Evaluator(project, env, OutputSink())
    plain.run_select(query)
    assert pruned.stats.nodes_visited < plain.stats.nodes_visited
    print(
        f"\nACCEPTANCE 5 PASS: pruned select visited {pruned.stats.nodes_visited} nodes"
        f" vs {plain.stats.nodes_visited} unpruned"
    )


def _batch_tree(root, projects, queries):
    for sub in ("projects", "queries", "properties", "results"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    for name, files in projects.items():
        pdir = root / "projects" / name
        pdir.mkdir(exist_ok=True)
        for fname, text in files.items():
            (pdir / fname).write_text(text)
    for fname, text in queries.items():
        (root / "queries" / fname).write_text(text)
    (root / "projects.txt").write_text("\n".join(projects) + "\n")
    (root / "queries.txt").write_text("\n".join(queries) + "\n")
    return RunConfig(root, root / "projects.txt", root / "queries.txt")


def test_criterion_6_parse_once(tmp_path):
    project_files = {"alpha": {"Sample.mj": fixture_text("Sample.mj"),
                               "AB.mj": fixture_text("AB.mj")}}
    one_query = {"q0.craql": "select ({Block} b) { n += 1; }"}
    config = _batch_tree(tmp_path / "one", project_files, one_query)
    _, records_one = run_batch(config)
    fifty = {f"q{i}.craql": "select ({Block} b) { n += 1; }" for i in range(50)}
    config = _batch_tree(tmp_path / "fifty", project_files, fifty)
    _, records_fifty = run_batch(config)
    assert records_one[0].stats.files_parsed == 2
    assert records_fifty[0].stats.files_parsed == 2
    assert len(records_fifty[0].row_counts) == 50
    print("\nACCEPTANCE 6 PASS: files-parsed identical for 1-query and 50-query runs")


def test_criterion_7_throughput_sanity(tmp_path, monkeypatch):
    rng = random.Random(99)
    corpus: dict[str, dict[str, str]] = {}
    total_lines = 0
    bundle = {
        "Sample.mj": fixture_text("Sample.mj"),
        "Fact.mj": fixture_text("Fact.mj"),
        "AB.mj": fixture_text("AB.mj"),
        "Unreachable.mj": fixture_text("Unreachable.mj"),
        "Loops.mj": fixture_text("Loops.mj"),
        "Chain.mj": fixture_text("Chain.mj"),
        "Deep.mj": generate_nested_blocks(10),
        "Sea.mj": generate_block_sea(250),
    }
    corpus["bundle"] = bundle
    total_lines += sum(text.count("\n") for text in bundle.values())
    pindex = 0
    while total_lines < 10_000:
        files = {}
        for f in range(8):
            text = generate_random_source(rng, classes=2, max_depth=4)
            files[f"gen{f}.mj"] = text
            total_lines += text.count("\n")
        corpus[f"gen{pindex}"] = files
        pindex += 1
    queries = {
        name: bundled_query_path(name).read_text() for name in BUNDLED_QUERIES
    }
    config = _batch_tree(tmp_path, corpus, queries)
    selects = 0
    run_select = Evaluator.run_select

    def counted_run_select(self, *args, **kwargs):
        nonlocal selects
        selects += 1
        return run_select(self, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "run_select", counted_run_select)
    started = time.monotonic()
    status, records = run_batch(config)
    elapsed = time.monotonic() - started
    assert status == 0, [r.diagnostics for r in records if r.aborted]
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
    # The engine's work on this corpus, the benchmark's corpus workload: any
    # change to what it visits, yields, emits or runs shows here.
    assert sum(r.stats.nodes_visited for r in records) == 2_209_635
    assert sum(r.stats.rows_yielded for r in records) == 36_985
    assert sum(n for r in records for n in r.row_counts.values()) == 17_430
    assert selects == 20_936
    print(
        f"\nACCEPTANCE 7 PASS: {total_lines} LOC x {len(queries)} queries in {elapsed:.1f}s"
    )


def test_criterion_8_workflow_round_trip(tmp_path):
    tags = "project,platform,stars\nalpha,android,1200\nbeta,j2se,7\n"
    outputs = []
    for run_name in ("one", "two"):
        config = _batch_tree(
            tmp_path / run_name,
            {
                "alpha": {"Sample.mj": fixture_text("Sample.mj")},
                "beta": {"AB.mj": fixture_text("AB.mj")},
            },
            {"blocks.craql": "select ({Block} b) { num_blocks += 1; }"},
        )
        (config.properties_dir / "projecttags.csv").write_text(tags)
        generate_props(config.properties_dir)
        status, _ = run_batch(config)
        assert status == 0
        out = collate_csv(config.results_dir)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    text = outputs[0].decode()
    lines = text.strip().split("\r\n")
    assert lines[0] == "project,num_blocks,platform,stars"
    assert lines[1] == "alpha,3,android,1200"
    assert lines[2] == "beta,3,j2se,7"
    print("\nACCEPTANCE 8 PASS: genprops -> run -> collate round-trips, byte-identical twice")


def test_criterion_9_binding_counts(fixture_projects, parsed_queries):
    env, _, _ = run_doc(fixture_projects["F3"], parsed_queries["calls_in_out"])
    # Hand-computed on AB.mj: the final iteration binds t to class B; A's
    # b.run() arrives into B (incoming 1) and B's internal step() call never
    # leaves it (outgoing 0).
    assert env.exported() == {"num_incoming": 1, "num_outgoing": 0}
    print("\nACCEPTANCE 9 PASS: in/out call counts match the hand-computed call graph")
