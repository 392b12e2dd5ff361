"""What each `craql` launch imports, writes and traces, each in a fresh
interpreter: `collate` and `genprops` load no engine, outputs are UTF-8
whatever the locale, and the benchmark's trace shim still finds the calls
it wraps and counts what they load, parse and bind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from craql.fixtures import fixture_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = ROOT / "perfbench" / "traceshim.py"
# A locale whose encoding is ASCII: what the program writes must not
# follow it.
C_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=environ, capture_output=True, timeout=120)


def make_root(root: Path, projects: dict[str, dict[str, str]], query: str) -> Path:
    for sub in ("queries", "properties", "results"):
        (root / sub).mkdir(parents=True)
    for project, files in projects.items():
        (root / "projects" / project).mkdir(parents=True)
        for name, text in files.items():
            (root / "projects" / project / name).write_bytes(text.encode())
    (root / "queries" / "q.craql").write_bytes(query.encode())
    (root / "projects.txt").write_text("\n".join(projects) + "\n")
    (root / "queries.txt").write_text("q.craql\n")
    return root


def run_args(root: Path) -> list[str]:
    return ["-P", str(root / "projects.txt"), "-Q", str(root / "queries.txt"),
            "--dirs", str(root)]


def test_outputs_are_utf8_in_an_ascii_locale(tmp_path):
    root = make_root(
        tmp_path,
        {"p": {"Cafe.mj": 'class Cafe { String name() { return "café"; } }\n'}},
        'select ({StringLiteral} s) { label = "café"; print("café " + s); }\n',
    )
    (root / "properties" / "projecttags.csv").write_bytes("project,tag\np,thé\n".encode())
    cli = ["-m", "craql.cli"]

    genprops = python(cli + ["genprops", "--dirs", str(root)], **C_LOCALE)
    assert genprops.returncode == 0, genprops.stderr.decode()
    batch = python(cli + run_args(root), **C_LOCALE)
    assert batch.returncode == 0, batch.stderr.decode()
    collate = python(cli + ["collate", "--dirs", str(root)], **C_LOCALE)
    assert collate.returncode == 0, collate.stderr.decode()

    assert (root / "properties" / "p.properties").read_bytes() == "tag=thé\n".encode()
    assert batch.stdout == 'café "café"\n'.encode()
    results = root / "results"
    assert (results / "p.vars").read_bytes() == "label=café\ntag=thé\n".encode()
    assert (results / "p.q.rows").read_bytes() == 'Cafe.mj\t1\tStringLiteral\t"café"\n'.encode()
    assert (results / "craql_output.csv").read_bytes() == "project,label,tag\r\np,café,thé\r\n".encode()


def test_python_m_runs_a_batch_and_exits_with_its_status(tmp_path):
    root = make_root(tmp_path, {"a": {"A.mj": "class A { void m() { x = 1; } }\n"},
                                "b": {"B.mj": "class B { }\n"}},
                     "select ({TypeDeclaration} t) { n += 1; print(t.name); }\n")
    batch = python(["-m", "craql.cli"] + run_args(root))
    assert (batch.returncode, batch.stdout) == (0, b"A\nB\n")
    assert batch.stderr.decode() == f"2/2 projects completed; results in {root / 'results'}\n"
    results = root / "results"
    assert {p.name: p.read_bytes() for p in results.iterdir()} == {
        "a.vars": b"n=1\n", "b.vars": b"n=1\n",
        "a.q.rows": b"A.mj\t1\tTypeDeclaration\tclass A { void m() { x = 1; } }\n",
        "b.q.rows": b"B.mj\t1\tTypeDeclaration\tclass B { }\n"}
    (root / "projects.txt").write_text("a\nmissing\n")
    batch = python(["-m", "craql.cli"] + run_args(root))
    assert (batch.returncode, batch.stdout) == (1, b"A\n")
    assert batch.stderr.decode().splitlines()[-1] == (
        f"1/2 projects completed; results in {root / 'results'}")
    collate = python(["-m", "craql.cli", "collate", "--dirs", str(root)])
    assert (collate.returncode, collate.stderr) == (0, b"")
    assert collate.stdout.decode() == f"wrote {results / 'craql_output.csv'}\n"
    assert (results / "craql_output.csv").read_bytes() == b"project,n\r\na,1\r\nb,1\r\n"


# The console script's entry, with an exit handler that reports whether the
# collector is frozen when the interpreter shuts down.
ENTRY_WITH_EXIT_HANDLER = """
import atexit, gc, sys
import craql.cli

atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv[1:] = ["collate", "--dirs", sys.argv[1]]
craql.cli.launch()
"""


def test_the_entry_freezes_the_collector_and_still_runs_exit_handlers(tmp_path):
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "p.vars").write_text("n=1\n")
    proc = python(["-c", ENTRY_WITH_EXIT_HANDLER, str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (0, b"frozen True\n")
    assert proc.stdout.decode() == f"wrote {tmp_path / 'results' / 'craql_output.csv'}\n"
    proc = python(["-c", ENTRY_WITH_EXIT_HANDLER, str(tmp_path / "nowhere")])
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines()[-1] == "frozen True"


# What a launch that only reads and writes result files must not import.
ENGINE_MODULES = ("craql.engine", "craql.minilang", "craql.query", "craql.astcore", "craql.runner")

COLLATE_THEN_GENPROPS = """
import json, sys
from pathlib import Path
import craql.cli

root = Path(sys.argv[1])
statuses = [craql.cli.main(["collate", "--dirs", str(root)]),
            craql.cli.main(["genprops", "--dirs", str(root)])]
print(json.dumps([statuses, sorted(m for m in sys.modules if m.startswith("craql"))]))
"""


def test_collate_and_genprops_load_no_engine(tmp_path):
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "p.vars").write_text("n=1\n")
    (tmp_path / "properties").mkdir()
    (tmp_path / "properties" / "projecttags.csv").write_text("project,tag\np,core\n")
    proc = python(["-c", COLLATE_THEN_GENPROPS, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr.decode()
    statuses, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert statuses == [0, 0]
    assert [m for m in loaded if m.startswith(ENGINE_MODULES)] == []
    assert (tmp_path / "results" / "craql_output.csv").read_text() == "project,n\np,1\n"
    assert (tmp_path / "properties" / "p.properties").read_text() == "tag=core\n"


# What no launch imports until it logs: `logging`, and `dataclasses` with the
# modules it pulls in.
HEAVY_MODULES = {"dataclasses", "logging", "inspect", "traceback"}


def imported(proc: subprocess.CompletedProcess) -> set[str]:
    """The modules a launch run under `-X importtime` imported, when it
    started or later."""
    lines = proc.stderr.decode().splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def test_quiet_launches_import_no_logging_or_dataclasses(tmp_path):
    root = make_root(tmp_path, {"p": {"A.mj": "class A { void m() { x = 1; } }\n"}},
                     "select ({Block} b) { n += 1; }\n")
    cli = ["-X", "importtime", "-m", "craql.cli"]
    batch = python(cli + run_args(root))
    assert batch.returncode == 0, batch.stderr.decode()
    assert not [line for line in batch.stderr.decode().splitlines()
                if not line.startswith("import time:") and "projects completed" not in line]
    collate = python(cli + ["collate", "--dirs", str(root)])
    assert collate.returncode == 0, collate.stderr.decode()
    assert "craql.engine.evaluator" in imported(batch)
    assert imported(batch) & HEAVY_MODULES == set()
    assert imported(collate) & HEAVY_MODULES == set()


# What no batch launch imports: the oracle and the fixture generators serve
# library callers and the tests, never a batch.
LIBRARY_ONLY_MODULES = {"craql.oracle", "craql.fixtures"}


def test_a_batch_loads_no_oracle_or_fixtures(tmp_path):
    root = make_root(tmp_path, {"p": {"A.mj": "class A { void m() { x = 1; } }\n"}},
                     "select ({Block} b) { n += 1; }\n")
    batch = python(["-X", "importtime", "-m", "craql.cli"] + run_args(root))
    assert batch.returncode == 0, batch.stderr.decode()
    assert (root / "results" / "p.vars").read_text() == "n=1\n"
    assert "craql.engine.evaluator" in imported(batch)
    assert imported(batch) & LIBRARY_ONLY_MODULES == set()


def test_skipped_file_is_logged_in_the_cli_format(tmp_path):
    root = make_root(tmp_path, {"p": {"A.mj": "class A { void m() { x = 1; } }\n",
                                      "Bad.mj": "class {\n"}},
                     "select ({Block} b) { n += 1; }\n")
    batch = python(["-m", "craql.cli"] + run_args(root))
    assert batch.returncode == 0, batch.stderr.decode()
    assert batch.stderr.decode().splitlines() == [
        "WARNING p: Bad.mj:1:7: error: expected identifier, found '{'",
        f"1/1 projects completed; results in {root / 'results'}",
    ]
    assert (root / "results" / "p.vars").read_text() == "n=1\n"


@pytest.mark.parametrize("entry, reason", [("sub.mj", "Is a directory"),
                                           ("dangling.mj", "No such file or directory")])
def test_an_unreadable_source_is_skipped_with_a_warning(tmp_path, entry, reason):
    root = make_root(tmp_path, {"p": {"Sample.mj": fixture_text("Sample.mj")}},
                     "select ({Block} b) { n += 1; }\n")
    if entry == "sub.mj":
        (root / "projects" / "p" / entry).mkdir()
    else:
        (root / "projects" / "p" / entry).symlink_to(root / "nowhere")
    batch = python(["-m", "craql.cli"] + run_args(root))
    assert batch.returncode == 0, batch.stderr.decode()
    assert batch.stderr.decode().splitlines() == [
        f"WARNING p: {entry}: cannot read: {reason}",
        f"1/1 projects completed; results in {root / 'results'}",
    ]
    assert (root / "results" / "p.vars").read_text() == "n=3\n"


def test_a_control_character_in_a_project_name_reaches_stderr_quoted(tmp_path):
    root = make_root(tmp_path, {"p": {"A.mj": "class A { void m() { x = 1; } }\n"}},
                     "select ({Block} b) { n += 1; }\n")
    (root / "projects.txt").write_text("a\0b\np\n")
    batch = python(["-m", "craql.cli"] + run_args(root))
    assert batch.returncode == 1
    assert batch.stderr.decode().splitlines() == [
        f"ERROR aborting 'a\\x00b': project directory missing: {root / 'projects'}/'a\\x00b'",
        f"1/2 projects completed; results in {root / 'results'}",
    ]


def test_import_craql_loads_no_submodule():
    proc = python(["-c", "import sys, craql; print([m for m in sys.modules if m.startswith('craql.')])"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


RESOLVE_EXPORTS = """
import json, sys
import craql

# Exports whose objects carry no `__module__` of their own.
HOMES = {"BUNDLED_QUERIES": "craql", "MINILANG_SCHEMA": "craql.minilang.schema"}

def loaded():
    return sorted(m for m in sys.modules if m.startswith("craql."))

craql.ProjectAst
after_first = loaded()
star = {}
exec("from craql import *", star)
wrong = []
for name in craql.__all__:
    value = getattr(craql, name)
    home = sys.modules[HOMES.get(name) or value.__module__]
    if star[name] is not value or getattr(home, name) is not value:
        wrong.append(name)
print(json.dumps([after_first, wrong, sorted(set(craql.__all__) - set(dir(craql)))]))
"""


def test_exports_resolve_on_first_use_to_their_home_objects():
    proc = python(["-c", RESOLVE_EXPORTS])
    assert proc.returncode == 0, proc.stderr.decode()
    after_first, wrong, undiscoverable = json.loads(proc.stdout.splitlines()[-1])
    assert after_first == ["craql.astcore"]
    assert wrong == []
    assert undiscoverable == []


ROUND_TRIP = """
import json, sys
from craql import deserialize_project, serialize_project

with open(sys.argv[1], encoding="utf-8") as f:
    text = f.read()
print(json.dumps(serialize_project(deserialize_project(text)) == text))
"""


def test_serialized_ast_round_trips_in_a_fresh_interpreter(tmp_path):
    from craql import load_project, serialize_project

    project, _ = load_project("p", [("Sample.mj", fixture_text("Sample.mj"))])
    text = serialize_project(project)
    assert json.loads(text)["schema"] == "minilang"
    path = tmp_path / "p.ast.json"
    path.write_bytes(text.encode("utf-8"))
    proc = python(["-c", ROUND_TRIP, str(path)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout.splitlines()[-1]) is True


def in_process_counts(root: Path, names: list[str], query: str, monkeypatch) -> dict[str, int]:
    """The trace shim's counts for a batch over `names`, computed in this
    process from the node columns rather than through `ProjectAst.nodes`."""
    from craql.astcore import ProjectAst
    from craql.minilang.binder import BUILTINS_FILE
    from craql.runner import SERIALIZED_AST, load_project_sources

    from conftest import run_document

    counts = dict.fromkeys(("nodes_loaded", "nodes_parsed", "method_invocations",
                            "method_bindings", "matches_type_calls"), 0)
    matches_type = ProjectAst.matches_type

    def counted_matches_type(project, node_id, type_name):
        counts["matches_type_calls"] += 1
        return matches_type(project, node_id, type_name)

    monkeypatch.setattr(ProjectAst, "matches_type", counted_matches_type)
    for name in names:
        project, _ = load_project_sources(root / "projects" / name, name)
        counts["nodes_loaded"] += len(project.type)
        if not (root / "projects" / name / SERIALIZED_AST).exists():
            builtins = [f.name for f in project.files].index(BUILTINS_FILE)
            counts["nodes_parsed"] += sum(1 for f in project.file if f != builtins)
            counts["method_invocations"] += project.type.count("MethodInvocation")
            counts["method_bindings"] += len(project.bindings.method)
        run_document(project, query)
    return counts


def test_trace_shim_spans_every_layer(tmp_path, monkeypatch):
    from craql import load_project, serialize_project

    fact, _ = load_project("gamma", [("Fact.mj", fixture_text("Fact.mj"))])
    query = "select ({Block} b) { n += 1; }\n"
    root = make_root(
        tmp_path,
        {"alpha": {"Sample.mj": fixture_text("Sample.mj"), "Chain.mj": fixture_text("Chain.mj")},
         "beta": {"AB.mj": fixture_text("AB.mj")},
         "gamma": {"project.ast.json": serialize_project(fact)}},
        query,
    )
    run_spans, collate_spans = tmp_path / "run.json", tmp_path / "collate.json"
    run = python([str(SHIM), str(run_spans), *run_args(root)])
    assert run.returncode == 0, run.stderr.decode()
    collate = python([str(SHIM), str(collate_spans), "collate", "--dirs", str(root)])
    assert collate.returncode == 0, collate.stderr.decode()

    trace = json.loads(run_spans.read_text())
    spans = trace["spans"]
    names = {span[0] for span in spans}
    assert {"runner.run_batch", "runner.run_project", "query.parse_query_document",
            "minilang.parse_minilang", "astcore.deserialize_project",
            "engine.execute_document"} <= names
    projects = [span for span in spans if span[0] == "runner.run_project"]
    assert [span[4] for span in projects] == ["alpha", "beta", "gamma"]
    assert all(spans[span[3]][0] == "runner.run_batch" for span in projects)
    collated = json.loads(collate_spans.read_text())["spans"]
    assert [span[0] for span in collated] == ["runner.collate_csv"]

    expected = in_process_counts(root, ["alpha", "beta", "gamma"], query, monkeypatch)
    assert expected["nodes_parsed"] and expected["method_bindings"]
    assert {key: trace["counts"][key] for key in expected} == expected
