import json
import re

import pytest

from craql import load_project, serialize_project
from craql.cli import main
from craql.fixtures import fixture_text


def make_root(tmp_path, with_project=True):
    for sub in ("projects", "queries", "properties", "results"):
        (tmp_path / sub).mkdir(parents=True, exist_ok=True)
    if with_project:
        pdir = tmp_path / "projects" / "alpha"
        pdir.mkdir()
        (pdir / "Sample.mj").write_text(fixture_text("Sample.mj"))
    (tmp_path / "queries" / "blocks.craql").write_text(
        "select ({Block} b) { num_blocks += 1; print(num_blocks); }"
    )
    (tmp_path / "projects.txt").write_text("alpha\n")
    (tmp_path / "queries.txt").write_text("blocks.craql\n")
    return tmp_path


def run_main(tmp_path, *extra):
    return main([
        "-P", str(tmp_path / "projects.txt"),
        "-Q", str(tmp_path / "queries.txt"),
        "--dirs", str(tmp_path),
        *extra,
    ])


def test_run_exit_zero_and_prints_to_stdout(tmp_path, capsys):
    root = make_root(tmp_path)
    assert run_main(root) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1", "2", "3"]
    assert (root / "results" / "alpha.vars").read_text() == "num_blocks=3\n"


def test_missing_project_exits_one(tmp_path):
    root = make_root(tmp_path, with_project=False)
    assert run_main(root) == 1


def test_config_error_exits_two(tmp_path):
    (tmp_path / "projects.txt").write_text("alpha\n")
    (tmp_path / "queries.txt").write_text("blocks.craql\n")
    assert run_main(tmp_path) == 2


def test_collate_subcommand(tmp_path, capsys):
    root = make_root(tmp_path)
    run_main(root)
    assert main(["collate", "--dirs", str(root)]) == 0
    assert (root / "results" / "craql_output.csv").exists()


def test_collate_without_vars_exits_two(tmp_path):
    make_root(tmp_path, with_project=False)
    assert main(["collate", "--dirs", str(tmp_path)]) == 2


def test_genprops_subcommand(tmp_path):
    root = make_root(tmp_path)
    (root / "properties" / "projecttags.csv").write_text("project,tag\nalpha,core\n")
    assert main(["genprops", "--dirs", str(root)]) == 0
    assert (root / "properties" / "alpha.properties").read_text() == "tag=core\n"


def test_genprops_with_a_path_name_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "properties" / "projecttags.csv").write_text("project,tag\nsub/p,core\n")
    assert main(["genprops", "--dirs", str(root)]) == 2
    assert capsys.readouterr().err.startswith("error: bad project name")
    assert sorted(p.name for p in (root / "properties").iterdir()) == ["projecttags.csv"]


def test_genprops_with_a_value_under_an_empty_header_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "properties" / "projecttags.csv").write_text("project,,lang\nalpha,1,java\n")
    assert main(["genprops", "--dirs", str(root)]) == 2
    assert "column 2 has no name" in capsys.readouterr().err
    assert sorted(p.name for p in (root / "properties").iterdir()) == ["projecttags.csv"]


def test_genprops_with_a_value_past_the_header_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "properties" / "projecttags.csv").write_text("project,x\np,1,2\n")
    assert main(["genprops", "--dirs", str(root)]) == 2
    assert "column 3 has no name, but project p has a value in it" in capsys.readouterr().err
    assert sorted(p.name for p in (root / "properties").iterdir()) == ["projecttags.csv"]


def test_genprops_with_a_project_column_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "properties" / "projecttags.csv").write_text("project,project,x\nalpha,beta,1\n")
    assert main(["genprops", "--dirs", str(root)]) == 2
    assert "column 2's name 'project' collides" in capsys.readouterr().err
    assert sorted(p.name for p in (root / "properties").iterdir()) == ["projecttags.csv"]


def test_an_unlabeled_later_select_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "queries" / "two.craql").write_text(
        "select ({Block} b) { a++; }\nselect ({Block} c) { z++; }\n")
    (root / "queries.txt").write_text("two.craql\n")
    assert run_main(root) == 2
    assert capsys.readouterr().err.startswith(
        "error: unparseable query file two.craql: two.craql:2:1: an unlabeled select")
    assert list((root / "results").iterdir()) == []


@pytest.mark.parametrize("listed, message", [
    ("blocks.craql\nblocks.craql\n", "query file blocks.craql is listed twice"),
    ("blocks.craql\nsub/blocks.craql\n",
     "query files blocks.craql and sub/blocks.craql both write results named blocks"),
], ids=["listed twice", "shared stem"])
def test_query_files_that_share_a_result_name_exit_two(tmp_path, capsys, listed, message):
    root = make_root(tmp_path)
    (root / "queries" / "sub").mkdir()
    (root / "queries" / "sub" / "blocks.craql").write_text("select ({Block} b) { m++; }")
    (root / "queries.txt").write_text(listed)
    assert run_main(root) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((root / "results").iterdir()) == []


@pytest.mark.parametrize("listed", [
    "../elsewhere/outside.craql", "{root}/elsewhere/outside.craql", "a\0b.craql",
], ids=["parent part", "absolute", "NUL byte"])
def test_a_query_name_outside_the_query_directory_exits_two(tmp_path, capsys, listed):
    root = make_root(tmp_path)
    (root / "elsewhere").mkdir()
    (root / "elsewhere" / "outside.craql").write_text("select ({Block} b) { n++; }")
    qname = listed.format(root=root)
    (root / "queries.txt").write_text(qname + "\n")
    assert run_main(root) == 2
    assert capsys.readouterr().err == (
        f"error: query file name {qname!r} is not a path under {root / 'queries'}\n")
    assert list((root / "results").iterdir()) == []


def test_an_unknown_node_type_exits_two_before_any_project_runs(tmp_path, capsys):
    # Even inside a labeled select that nothing calls: the batch checks
    # each document whole against the schema once, before any project.
    root = make_root(tmp_path)
    (root / "queries" / "typo.craql").write_text(
        "select ({Block} b) { n += 1; }\nidle : select ({Blok} b) { m = {Stmt}; }\n")
    (root / "queries.txt").write_text("typo.craql\n")
    assert run_main(root) == 2
    assert capsys.readouterr().err == (
        "error: invalid query file typo.craql: typo.craql:2:15: unknown node type Blok\n")
    assert list((root / "results").iterdir()) == []


def test_a_literal_node_function_argument_exits_two_before_any_project_runs(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "queries" / "lit.craql").write_text(
        "select ({Block} b) where false && b.directly_contains(true) { k++; }\n")
    (root / "queries.txt").write_text("lit.craql\n")
    assert run_main(root) == 2
    assert capsys.readouterr().err == (
        "error: invalid query file lit.craql: lit.craql:1:37: directly_contains() expects a node type or a node\n")
    assert list((root / "results").iterdir()) == []


def test_an_undeclared_accessor_warns_once_per_batch(tmp_path, capsys, caplog):
    root = make_root(tmp_path)
    (root / "projects" / "beta").mkdir()
    (root / "projects" / "beta" / "AB.mj").write_text(fixture_text("AB.mj"))
    (root / "projects.txt").write_text("alpha\nbeta\n")
    (root / "queries" / "typo.craql").write_text(
        "select ({Block} b) where b.nme == 1 || b.nme == 2 { n += 1; }")
    (root / "queries.txt").write_text("typo.craql\n")
    assert run_main(root) == 0
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "typo.craql:1:28: no type declares property nme"),
        ("WARNING", "typo.craql:1:42: no type declares property nme"),
    ]
    assert "2/2 projects completed" in capsys.readouterr().err
    assert (root / "results" / "alpha.vars").read_text() == ""


def test_a_record_document_aborts_only_its_project(tmp_path, capsys, caplog):
    # One object per node under "nodes", the format of earlier versions:
    # without columns, it is a document like any other that lacks a key.
    root = make_root(tmp_path)
    (root / "projects" / "old").mkdir()
    (root / "projects" / "old" / "project.ast.json").write_text(json.dumps({
        "schema": "minilang", "project": "old", "files": [{"name": "f"}],
        "nodes": [{"id": 0, "type": "Block", "file": 0, "span": [0, 0, 1], "props": {}}],
        "roots": [0]}))
    (root / "projects.txt").write_text("alpha\nold\n")
    assert run_main(root) == 1
    assert [r.getMessage() for r in caplog.records] == [
        "aborting old: missing key 'columns' (top level)"]
    err = capsys.readouterr().err
    assert "1/2 projects completed" in err
    assert "Traceback" not in err + caplog.text
    assert (root / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
    assert not (root / "results" / "old.vars").exists()


def test_recursion_limit_exits_one(tmp_path, caplog):
    root = make_root(tmp_path)
    (root / "queries" / "loop.craql").write_text(
        "q1 : select ({CompilationUnit} u) { callquery(q1); }"
    )
    (root / "queries.txt").write_text("loop.craql\n")
    assert run_main(root) == 1
    assert "aborting alpha: loop.craql:1:37: query recursion limit" in caplog.text


def test_squaring_past_the_integer_bound_aborts_only_its_project(tmp_path, capsys, caplog):
    root = make_root(tmp_path)
    (root / "projects" / "beta").mkdir()
    (root / "projects" / "beta" / "AB.mj").write_text(fixture_text("AB.mj"))
    (root / "projects.txt").write_text("alpha\nbeta\n")
    query = "select ({CompilationUnit} u) { x = 2; i = 0; while (i < n) { x = x * x; i++; } }"
    (root / "queries" / "sq.craql").write_text(query)
    (root / "queries.txt").write_text("sq.craql\n")
    (root / "properties" / "alpha.properties").write_text("n=14\n")
    assert run_main(root) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "1/2 projects completed" in err
    assert (root / "results" / "beta.vars").read_text() == "i=0\nx=2\n"
    assert not (root / "results" / "alpha.vars").exists()
    assert f"aborting alpha: sq.craql:1:{query.index('*') + 1}: integer longer than" \
        in caplog.text
    assert not any(r.exc_info for r in caplog.records)


def test_integer_literal_too_long_to_convert_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "queries" / "big.craql").write_text(f"select ({{Block}} b) {{ x = {'9' * 5000}; }}")
    (root / "queries.txt").write_text("big.craql\n")
    assert run_main(root) == 2
    err = capsys.readouterr().err
    assert "unparseable query file big.craql: big.craql:1:26: integer literal too long" in err


def test_non_ascii_digit_in_query_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "queries" / "digit.craql").write_text("select ({Block} b) where 1 < ² { }")
    (root / "queries.txt").write_text("digit.craql\n")
    assert run_main(root) == 2
    err = capsys.readouterr().err
    assert "unparseable query file digit.craql: digit.craql:1:30: stray character '²'" in err


def test_deeply_nested_query_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    nested = "(" * 3000 + "true" + ")" * 3000
    (root / "queries" / "deep.craql").write_text(f"select ({{Block}} b) where {nested} {{ }}")
    (root / "queries.txt").write_text("deep.craql\n")
    assert run_main(root) == 2
    err = capsys.readouterr().err
    assert re.search(r"unparseable query file deep\.craql: deep\.craql:1:\d+: ", err), err
    assert "nested too deeply" in err


def test_skipped_file_is_logged_and_changes_no_output(tmp_path, capsys, caplog):
    clean = make_root(tmp_path / "clean")
    assert run_main(clean) == 0
    clean_out = capsys.readouterr().out
    root = make_root(tmp_path / "skip")
    (root / "projects" / "alpha" / "Bad.mj").write_text("not java at all")
    assert run_main(root) == 0
    assert capsys.readouterr().out == clean_out
    assert (root / "results" / "alpha.vars").read_bytes() == \
        (clean / "results" / "alpha.vars").read_bytes()
    assert (root / "results" / "alpha.blocks.rows").read_bytes() == \
        (clean / "results" / "alpha.blocks.rows").read_bytes()
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["alpha: Bad.mj:1:1: error: expected type declaration, found 'not'"]


def test_missing_source_text_is_logged(tmp_path, capsys, caplog):
    root = make_root(tmp_path)
    project, _ = load_project("alpha", [("Sample.mj", fixture_text("Sample.mj"))])
    document = json.loads(serialize_project(project))
    for entry in document["files"]:
        del entry["text"]
    pdir = root / "projects" / "alpha"
    (pdir / "Sample.mj").unlink()
    (pdir / "project.ast.json").write_text(json.dumps(document))
    (root / "queries" / "blocks.craql").write_text("select ({Block} b) { print(b.statements); }")
    assert run_main(root) == 0
    assert capsys.readouterr().out.splitlines()[0] == "[<ReturnStatement@Sample.mj:3>]"
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "alpha: source text missing: rows and prints show <Type@file:line> placeholders"
    ]


def test_genprops_onto_a_directory_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "properties" / "projecttags.csv").write_text("project,tag\nalpha,core\n")
    (root / "properties" / "alpha.properties").mkdir()
    assert main(["genprops", "--dirs", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha.properties" in err
    assert "Traceback" not in err


def test_collate_onto_a_directory_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    run_main(root)
    capsys.readouterr()
    (root / "results" / "craql_output.csv").mkdir()
    assert main(["collate", "--dirs", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "craql_output.csv" in err
    assert "Traceback" not in err


def test_results_that_is_a_file_exits_two(tmp_path, capsys):
    root = make_root(tmp_path)
    (root / "results").rmdir()
    (root / "results").write_text("")
    assert run_main(root) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "results" in err
    assert "Traceback" not in err
