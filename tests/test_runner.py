import contextlib
import csv
import gc
import hashlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest

import craql.astcore
import craql.engine.evaluator

from craql import (
    BUNDLED_QUERIES,
    Evaluator,
    OutputSink,
    bundled_query_path,
    load_project,
    serialize_project,
)
from craql.astcore import SINGLE, TOKEN, FileInfo, NodeTypeSchema, ProjectAst
from craql.fixtures import fixture_text, generate_block_sea, generate_nested_blocks
from craql.engine.runtime import render_value, row_line
from craql.results import (OUTPUT_CSV, RunConfig, RunnerError, collate_csv, generate_props,
                           properties_file, read_text)
from craql.runner import SERIALIZED_AST, load_properties, run_batch

from conftest import BAD_AST_DOCS, BAD_COLUMN_DOCS, ast_document, run_document


def make_tree(tmp_path, projects: dict[str, dict[str, str]], queries: dict[str, str]):
    """Lay out the directory convention and return a RunConfig."""
    for sub in ("projects", "queries", "properties", "results"):
        (tmp_path / sub).mkdir(parents=True, exist_ok=True)
    for project, files in projects.items():
        pdir = tmp_path / "projects" / project
        pdir.mkdir()
        for name, text in files.items():
            (pdir / name).write_text(text)
    for name, text in queries.items():
        (tmp_path / "queries" / name).write_text(text)
    (tmp_path / "projects.txt").write_text("\n".join(projects) + "\n")
    (tmp_path / "queries.txt").write_text("\n".join(queries) + "\n")
    return RunConfig(tmp_path, tmp_path / "projects.txt", tmp_path / "queries.txt")


COUNT_BLOCKS = "select ({Block} b) { num_blocks += 1; }"
COUNT_METHODS = "select ({MethodDeclaration} m) { num_methods += 1; }"
COUNT_TYPES = "select ({TypeDeclaration} t) { num_types += 1; }"


class TestLoadProperties:
    def test_typed_values(self, tmp_path):
        (tmp_path / "p.properties").write_text("platform=android\nstars=1200\nlive=true\n")
        seed = load_properties(tmp_path, "p")
        assert seed == {"platform": "android", "stars": 1200, "live": True}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_properties(tmp_path, "absent") == {}

    def test_malformed_line_skipped_with_warning(self, tmp_path, caplog):
        (tmp_path / "p.properties").write_text("novalue\nok=1\n")
        with caplog.at_level("WARNING", logger="craql"):
            seed = load_properties(tmp_path, "p")
        assert seed == {"ok": 1}
        assert any("malformed" in r.message for r in caplog.records)

    def test_empty_key_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "p.properties"
        path.write_text("ok=1\n = 5\n")
        with caplog.at_level("WARNING", logger="craql"):
            seed = load_properties(tmp_path, "p")
        assert seed == {"ok": 1}
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:2: skipping malformed line '= 5'"]


class TestGenerateProps:
    def test_expansion(self, tmp_path):
        (tmp_path / "projecttags.csv").write_text(
            "project,platform,stars\nalpha,android,1200\nbeta,j2se,\ngamma,,\n"
        )
        written = generate_props(tmp_path)
        assert len(written) == 3
        assert (tmp_path / "alpha.properties").read_text() == "platform=android\nstars=1200\n"
        assert (tmp_path / "beta.properties").read_text() == "platform=j2se\n"
        assert (tmp_path / "gamma.properties").read_text() == ""

    def test_duplicate_project_rejected(self, tmp_path):
        (tmp_path / "projecttags.csv").write_text("project,x\na,1\na,2\n")
        with pytest.raises(RunnerError, match="duplicate project row: a"):
            generate_props(tmp_path)

    @pytest.mark.parametrize("name", ["../evil", "sub/p", "sub\\p", ".", "..", "a\0b"])
    def test_path_names_are_rejected_before_any_write(self, tmp_path, name):
        properties = tmp_path / "properties"
        properties.mkdir()
        (properties / "projecttags.csv").write_text(f"project,x\nalpha,1\n{name},2\n")
        with pytest.raises(RunnerError, match=re.escape(f"bad project name in {properties}")):
            generate_props(properties)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "properties", "properties/projecttags.csv"]

    def test_a_value_under_an_empty_header_is_rejected_before_any_write(self, tmp_path):
        (tmp_path / "projecttags.csv").write_text("project,,lang,\nalpha,,java,\nbeta,1,java,\n")
        with pytest.raises(RunnerError, match=re.escape(
                "projecttags.csv: column 2 has no name, but project beta has a value in it")):
            generate_props(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["projecttags.csv"]
        # A nameless column without values, such as a trailing comma's, is harmless.
        (tmp_path / "projecttags.csv").write_text("project,,lang,\nalpha,,java,\n")
        generate_props(tmp_path)
        assert (tmp_path / "alpha.properties").read_text() == "lang=java\n"
        # So is a blank cell past the header's last one.
        (tmp_path / "projecttags.csv").write_text("project,x\np,1,\n")
        generate_props(tmp_path)
        assert (tmp_path / "p.properties").read_text() == "x=1\n"

    @pytest.mark.parametrize("tags, message", [
        ("project,x,x\np,1,2\n", "column 3 repeats the name 'x'"),
        ("project,x, x \np,1,2\n", "column 3 repeats the name 'x'"),
        ("project,x,a=b\np,1,3\n", "column 3's name 'a=b' holds '='"),
        ('project,x,"c\nd"\np,1,4\n', "column 3's name or project p's value in it spans lines"),
        ('project,x\np,"1\n2"\n', "column 2's name or project p's value in it spans lines"),
        ("project,x\np,1\u20282\n", "column 2's name or project p's value in it spans lines"),
        ("project,x\np,1,2\n", "column 3 has no name, but project p has a value in it"),
    ], ids=["repeat", "repeat-once-stripped", "equals-in-name", "break-in-name",
            "break-in-value", "line-separator-in-value", "value-past-the-header"])
    def test_names_and_values_that_read_back_wrong_are_rejected_before_any_write(
            self, tmp_path, tags, message):
        (tmp_path / "projecttags.csv").write_text(f"{tags}q,5\n")
        with pytest.raises(RunnerError, match=re.escape(f"projecttags.csv: {message}")):
            generate_props(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["projecttags.csv"]

    def test_round_trip_with_load_properties(self, tmp_path, caplog):
        """Each header name of a well-formed CSV reads back, stripped, under
        that name, with no warning."""
        (tmp_path / "projecttags.csv").write_text(
            'project,platform,stars, lang ,a b,ünï,x.y-z_1,"k,v",#c\n'
            'alpha,android,1200, java ,"1,2",é,x=y,-7, #\n'
        )
        generate_props(tmp_path)
        with caplog.at_level("WARNING", logger="craql"):
            seed = load_properties(tmp_path, "alpha")
        assert seed == {"platform": "android", "stars": 1200, "lang": "java", "a b": "1,2",
                        "ünï": "é", "x.y-z_1": "x=y", "k,v": -7, "#c": "#"}
        assert caplog.records == []


# 0xff is never UTF-8; here it follows "ab" and a two-byte "é" on line 2,
# so it is at column 4 and byte offset 10.
NOT_UTF8 = b"x = 1\nab\xc3\xa9\xff\n"
NOT_UTF8_AT = ":2:4: error: not UTF-8: byte 0xff at offset 10"


class TestUndecodableFiles:
    @pytest.fixture
    def config(self, tmp_path):
        return make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      "beta": {"AB.mj": fixture_text("AB.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )

    @pytest.mark.parametrize("list_file", ["projects.txt", "queries.txt"])
    def test_list_file_is_a_config_error(self, config, tmp_path, list_file):
        (tmp_path / list_file).write_bytes(NOT_UTF8)
        with pytest.raises(RunnerError, match=re.escape(str(tmp_path / list_file) + NOT_UTF8_AT)):
            run_batch(config)

    def test_query_file_is_a_config_error(self, config, tmp_path):
        (tmp_path / "queries" / "blocks.craql").write_bytes(NOT_UTF8)
        path = tmp_path / "queries" / "blocks.craql"
        with pytest.raises(RunnerError, match=re.escape(str(path) + NOT_UTF8_AT)):
            run_batch(config)
        assert list((tmp_path / "results").iterdir()) == []

    def test_project_tags_are_a_config_error(self, tmp_path):
        (tmp_path / "projecttags.csv").write_bytes(b"project,x\n" + NOT_UTF8)
        with pytest.raises(RunnerError, match=r"projecttags\.csv:3:4: .* offset 20"):
            generate_props(tmp_path)

    def test_vars_file_is_a_config_error(self, tmp_path):
        (tmp_path / "A.vars").write_text("x=1\n")
        (tmp_path / "B.vars").write_bytes(NOT_UTF8)
        with pytest.raises(RunnerError, match=re.escape(str(tmp_path / "B.vars") + NOT_UTF8_AT)):
            collate_csv(tmp_path)
        assert not (tmp_path / OUTPUT_CSV).exists()

    def test_properties_file_aborts_only_its_project(self, config, tmp_path):
        path = tmp_path / "properties" / "alpha.properties"
        path.write_bytes(NOT_UTF8)
        status, records = run_batch(config)
        assert status == 1
        alpha, beta = records
        assert alpha.aborted and not beta.aborted
        assert alpha.diagnostics == [str(path) + NOT_UTF8_AT]
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "beta.blocks.rows", "beta.vars"]

    def test_source_file_is_skipped(self, config, tmp_path, caplog):
        (tmp_path / "projects" / "alpha" / "Bad.mj").write_bytes(NOT_UTF8)
        status, records = run_batch(config)
        assert status == 0
        assert records[0].diagnostics == ["Bad.mj" + NOT_UTF8_AT]
        assert records[0].stats.files_parsed == 1
        assert (tmp_path / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
        assert not any(r.exc_info for r in caplog.records)

    def test_serialized_ast_is_a_format_error(self, config, tmp_path, caplog):
        (tmp_path / "projects" / "alpha" / SERIALIZED_AST).write_bytes(NOT_UTF8)
        status, records = run_batch(config)
        assert status == 1
        alpha, beta = records
        assert alpha.aborted and not beta.aborted
        assert alpha.diagnostics == [SERIALIZED_AST + NOT_UTF8_AT]
        assert not any(r.exc_info for r in caplog.records)


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark, which Windows editors write, is
    no part of any input: each input kind reads the same with it."""

    INPUTS = ("source", "query", "project list", "query list", "serialized ast", "properties")

    @staticmethod
    def tree(root, marked):
        config = make_tree(
            root,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}, "beta": {}},
            queries={"show.craql": 'select ({Block} b) { n += 1; print(b.linenumber() + " " + n); }'},
        )
        donor, _ = load_project("donor", [("AB.mj", fixture_text("AB.mj"))])
        (config.projects_dir / "beta" / SERIALIZED_AST).write_text(serialize_project(donor))
        properties_file(config.properties_dir, "alpha").write_text("n=2\ntag=core\n")
        path = {"source": config.projects_dir / "alpha" / "Sample.mj",
                "query": config.queries_dir / "show.craql",
                "project list": config.project_list, "query list": config.query_list,
                "serialized ast": config.projects_dir / "beta" / SERIALIZED_AST,
                "properties": properties_file(config.properties_dir, "alpha")}.get(marked)
        if path is not None:
            path.write_bytes(BOM + path.read_bytes())
        return config

    @pytest.mark.parametrize("marked", INPUTS)
    def test_a_marked_input_reads_as_it_reads_unmarked(self, tmp_path, marked):
        outputs = []
        for case in (None, marked):
            config = self.tree(tmp_path / str(case), case)
            status, records = run_batch(config)
            outputs.append((status, [(r.print_lines, r.diagnostics) for r in records],
                            {p.name: p.read_bytes() for p in config.results_dir.iterdir()}))
        assert outputs[0] == outputs[1]
        status, _, results = outputs[0]
        assert status == 0 and results["alpha.vars"] == b"n=5\ntag=core\n"

    def test_marked_tags_and_vars_read_as_unmarked(self, tmp_path):
        for marked in (False, True):
            root = tmp_path / str(marked)
            root.mkdir()
            mark = BOM if marked else b""
            (root / "projecttags.csv").write_bytes(mark + b"project,tag\np,core\n")
            (root / "p.vars").write_bytes(mark + b"n=1\n")
            generate_props(root)
            collate_csv(root)
            assert (root / "p.properties").read_bytes() == b"tag=core\n"
            assert (root / OUTPUT_CSV).read_bytes() == b"project,n\r\np,1\r\n"

    @pytest.mark.parametrize("mark", [b"", BOM])
    def test_an_undecodable_first_line_counts_columns_after_the_mark(self, tmp_path, mark):
        # The offset is the byte's offset in the file, the mark included.
        path = tmp_path / "f.txt"
        path.write_bytes(mark + b"ab\xff\n")
        with pytest.raises(RunnerError, match=re.escape(
                f"f.txt:1:3: error: not UTF-8: byte 0xff at offset {len(mark) + 2}")):
            read_text(path, "f.txt")

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(BOM + BOM + b"x\n")
        assert read_text(path, "f.txt") == "\ufeffx\n"


class TestUnencodableText:
    """A lone surrogate escape in a serialized AST, which `json.loads`
    accepts and UTF-8 cannot encode, costs only its own project."""

    QUERY = "select ({TypeDeclaration} c) { print(c); }"

    @pytest.fixture
    def config(self, tmp_path):
        project, _ = load_project("p1", [("Sample.mj", fixture_text("Sample.mj"))])
        document = serialize_project(project)
        assert document.count("class ") == 1
        config = make_tree(
            tmp_path,
            projects={"p1": {SERIALIZED_AST: document.replace("class ", "c\\ud800ass ")},
                      "p2": {"AB.mj": fixture_text("AB.mj")}},
            queries={"q.craql": self.QUERY},
        )
        return config

    def run(self, tmp_path, config):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status, records = run_batch(config)
        assert status == 1
        assert [r.aborted for r in records] == [True, False]
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["p2.q.rows", "p2.vars"]
        assert out.getvalue().startswith("class A")
        return records[0].diagnostics

    def test_load_rejects_the_project(self, tmp_path, config):
        assert self.run(tmp_path, config) == [
            "the text holds a lone surrogate at 1, which UTF-8 cannot encode (files[0])"]

    def test_unwritable_results_abort_only_their_project(self, tmp_path, config, monkeypatch):
        # Past the load check, the rows cannot be encoded: nothing of p1 is
        # written, and its prints are dropped with it.
        monkeypatch.setattr(craql.astcore, "_require_utf8", lambda project: None)
        (diagnostic,) = self.run(tmp_path, config)
        assert diagnostic.startswith("writing p1's results failed: UnicodeEncodeError")

    def test_write_error_leaves_no_partial_files(self, tmp_path, config):
        (tmp_path / "projects" / "p1" / SERIALIZED_AST).unlink()
        (tmp_path / "projects" / "p1" / "Sample.mj").write_text(fixture_text("Sample.mj"))
        (tmp_path / "results" / "p1.q.rows").mkdir()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status, records = run_batch(config)
        assert status == 1
        assert records[0].aborted and not records[1].aborted
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "p1.q.rows", "p2.q.rows", "p2.vars"]
        assert (tmp_path / "results" / "p1.q.rows").is_dir()


class TestCollate:
    def test_union_header_and_missing_cells(self, tmp_path):
        (tmp_path / "A.vars").write_text("x=1\n")
        (tmp_path / "B.vars").write_text("y=2\n")
        out = collate_csv(tmp_path)
        assert out.name == OUTPUT_CSV
        assert out.read_bytes() == b"project,x,y\r\nA,1,\r\nB,,2\r\n"

    def test_single_project(self, tmp_path):
        (tmp_path / "only.vars").write_text("n=3\n")
        lines = collate_csv(tmp_path).read_text().splitlines()
        assert lines == ["project,n", "only,3"]

    def test_comma_value_quoted(self, tmp_path):
        (tmp_path / "A.vars").write_text("msg=a,b\n")
        assert 'A,"a,b"' in collate_csv(tmp_path).read_text()

    def test_no_vars_files_is_an_error(self, tmp_path):
        with pytest.raises(RunnerError, match="no .vars files"):
            collate_csv(tmp_path)

    def test_a_variable_named_project_is_an_error(self, tmp_path):
        # As from a properties key `project` or a query's `project = 5;`.
        (tmp_path / "A.vars").write_text("n=1\n")
        (tmp_path / "B.vars").write_text("n=2\nproject=5\n")
        with pytest.raises(RunnerError,
                           match=re.escape(f"{tmp_path / 'B.vars'}: variable 'project'")):
            collate_csv(tmp_path)
        assert not (tmp_path / OUTPUT_CSV).exists()


class TestRunBatch:
    def test_two_projects_three_queries(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={
                "alpha": {"Sample.mj": fixture_text("Sample.mj")},
                "beta": {"AB.mj": fixture_text("AB.mj")},
            },
            queries={
                "blocks.craql": COUNT_BLOCKS,
                "methods.craql": COUNT_METHODS,
                "types.craql": COUNT_TYPES,
            },
        )
        status, records = run_batch(config)
        assert status == 0
        results = tmp_path / "results"
        assert len(list(results.glob("*.vars"))) == 2
        assert len(list(results.glob("*.rows"))) == 6
        alpha = next(r for r in records if r.project == "alpha")
        assert alpha.stats.files_parsed == 1
        assert (results / "alpha.vars").read_text() == (
            "num_blocks=3\nnum_methods=2\nnum_types=1\n"
        )
        assert (results / "beta.vars").read_text() == (
            "num_blocks=3\nnum_methods=3\nnum_types=2\n"
        )

    def test_print_lines_go_to_a_text_stream_without_a_buffer(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"t.craql": 'select ({TypeDeclaration} t) { print("type é"); }'},
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status, _ = run_batch(config)
        assert status == 0
        assert out.getvalue() == "type é\n"

    def test_zero_source_project_keeps_seed_only(self, tmp_path):
        config = make_tree(
            tmp_path, projects={"hollow": {}}, queries={"blocks.craql": COUNT_BLOCKS}
        )
        (tmp_path / "properties" / "hollow.properties").write_text("tag=empty\n")
        status, _ = run_batch(config)
        assert status == 0
        assert (tmp_path / "results" / "hollow.vars").read_text() == "tag=empty\n"

    def test_missing_project_skipped_with_nonzero_exit(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"real": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        (tmp_path / "projects.txt").write_text("real\nghost\n")
        status, records = run_batch(config)
        assert status == 1
        assert (tmp_path / "results" / "real.vars").exists()
        assert not (tmp_path / "results" / "ghost.vars").exists()
        ghost = next(r for r in records if r.project == "ghost")
        assert ghost.aborted

    def test_project_names_with_paths_are_missing_projects(self, tmp_path):
        # Both names reach a real directory of sources, and both would write
        # outside results/: neither is read, and nothing is written for it.
        config = make_tree(
            tmp_path,
            projects={"real": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        for where in ("projects/sub/proj", "escape"):
            (tmp_path / where).mkdir(parents=True)
            (tmp_path / where / "Sample.mj").write_text(fixture_text("Sample.mj"))
        (tmp_path / "projects.txt").write_text("sub/proj\na\0b\nreal\n../escape\n")
        status, records = run_batch(config)
        assert status == 1
        assert [(r.project, r.aborted) for r in records] == [
            ("sub/proj", True), ("a\0b", True), ("real", False), ("../escape", True)]
        for record in records[0], records[1], records[3]:
            assert record.diagnostics == [
                f"project directory missing: {config.projects_dir / repr(record.project)}"]
            assert record.stats.files_parsed == 0
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "real.blocks.rows", "real.vars"]
        assert not list(tmp_path.glob("escape.*"))

    def test_crlf_files_read_as_lf(self, tmp_path):
        outputs = []
        for newline in ("\n", "\r\n"):
            config = make_tree(
                tmp_path / repr(newline),
                projects={"alpha": {}},
                queries={"show.craql": "select ({Statement} s) {\n  print(s);\n}\n"},
            )
            for path in (config.projects_dir / "alpha" / "Sample.mj",
                         config.queries_dir / "show.craql", config.project_list):
                text = fixture_text("Sample.mj") if path.suffix == ".mj" else path.read_text()
                path.write_bytes(text.replace("\n", newline).encode())
            _, records = run_batch(config)
            outputs.append((records[0].print_lines,
                            (config.results_dir / "alpha.show.rows").read_bytes()))
        assert outputs[0] == outputs[1]
        assert "\\r" not in outputs[0][1].decode()

    def test_unparseable_query_aborts_before_any_project(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"bad.craql": "select oops"},
        )
        with pytest.raises(RunnerError, match="unparseable query file"):
            run_batch(config)
        assert list((tmp_path / "results").iterdir()) == []

    def test_runtime_error_aborts_project_without_vars(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"boom.craql": "select ({Block} b) { x = b + 1; }"},
        )
        status, records = run_batch(config)
        assert status == 1
        assert records[0].aborted
        assert not (tmp_path / "results" / "alpha.vars").exists()

    def test_long_expression_chain_aborts_without_traceback(self, tmp_path, caplog):
        chain = "+".join(["1"] * 3000)
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"chain.craql": f"select ({{Block}} b) {{ x = {chain}; }}"},
        )
        status, records = run_batch(config)
        assert status == 1
        assert records[0].aborted
        assert "chain.craql:1:1: query nested too deeply" in records[0].diagnostics[0]
        assert not any(r.exc_info for r in caplog.records)

    def test_endless_while_aborts_only_its_project(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      "beta": {"I.mj": "interface I { int ping(); }"}},
            queries={"spin.craql": "select ({Block} b) { while (true) { x++; } }",
                     "blocks.craql": COUNT_BLOCKS},
        )
        status, records = run_batch(config)
        assert status == 1
        alpha, beta = records
        assert alpha.aborted and not beta.aborted
        assert "spin.craql:1:22: while loop exceeded 1000000 steps" in alpha.diagnostics[0]
        assert not (tmp_path / "results" / "alpha.vars").exists()
        assert (tmp_path / "results" / "beta.vars").read_text() == ""

    def test_overlong_string_aborts_only_its_project(self, tmp_path, monkeypatch):
        monkeypatch.setattr(craql.engine.evaluator, "MAX_STRING_CHARS", 9)
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      "beta": {"I.mj": "interface I { int ping(); }"}},
            queries={"grow.craql": 'select ({Block} b) { s = s + "ab"; }'},
        )
        # Three blocks: "abcde" grows to 7 and 9 characters, then fails at 11.
        (tmp_path / "properties" / "alpha.properties").write_text("s=abcde\n")
        status, records = run_batch(config)
        assert status == 1
        alpha, beta = records
        assert alpha.aborted and not beta.aborted
        assert "grow.craql:1:28: string longer than 9 characters" in alpha.diagnostics[0]
        assert not (tmp_path / "results" / "alpha.vars").exists()
        assert (tmp_path / "results" / "beta.vars").read_text() == ""

    @pytest.mark.parametrize("text, where, beta_vars", [
        # Each call runs the select again, so the work grows like blocks^40
        # while the call depth stays under MAX_CALL_DEPTH.
        ("select ({CompilationUnit} u) { d = 0; callquery(q1); }\n"
         "q1 : select ({Block} b2) where d < 40 { d += 1; n += 1; callquery(q1); d -= 1; }",
         "2:6", "d=0\n"),
        # Each loop stays under MAX_WHILE_STEPS; their product does not.
        ("select ({Block} b) {\n  i = 0;\n  while (i < 1500) {\n    i++;\n"
         "    j = 0;\n    while (j < 1500) { j++; }\n  }\n}",
         "6:5", ""),
    ], ids=["recursive-callquery", "nested-whiles"])
    def test_project_budget_aborts_only_its_project(self, tmp_path, monkeypatch, text, where,
                                                    beta_vars):
        monkeypatch.setattr(craql.engine.evaluator, "MAX_PROJECT_STEPS", 10_000)
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      "beta": {"I.mj": "interface I { int ping(); }"}},
            queries={"deep.craql": text},
        )
        status, records = run_batch(config)
        assert status == 1
        alpha, beta = records
        assert alpha.aborted and not beta.aborted
        assert alpha.diagnostics == [
            f"query deep failed on alpha: deep.craql:{where}: project exceeded 10000 evaluation steps"]
        assert not (tmp_path / "results" / "alpha.vars").exists()
        # Each project has its own budget.
        assert (tmp_path / "results" / "beta.vars").read_text() == beta_vars

    def test_deeply_nested_source_skips_only_its_file(self, tmp_path):
        nested = "(" * 3000 + "1" + ")" * 3000
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Deep.mj": f"class D {{ void f() {{ x = {nested}; }} }}",
                                "Sample.mj": fixture_text("Sample.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        status, records = run_batch(config)
        assert status == 0
        assert (tmp_path / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
        assert re.match(r"Deep\.mj:1:\d+: .*nested too deeply", records[0].diagnostics[0])

    def test_unexpected_error_aborts_only_its_project(self, tmp_path, monkeypatch):
        config = make_tree(
            tmp_path,
            projects={
                "alpha": {"Sample.mj": fixture_text("Sample.mj")},
                "beta": {"AB.mj": fixture_text("AB.mj")},
            },
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        execute_document = Evaluator.execute_document

        def faulty(evaluator, doc):
            if evaluator.project.name == "beta":
                raise RuntimeError("evaluator fault")
            return execute_document(evaluator, doc)

        monkeypatch.setattr(Evaluator, "execute_document", faulty)
        status, records = run_batch(config)
        assert status == 1
        assert (tmp_path / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
        assert not (tmp_path / "results" / "beta.vars").exists()
        alpha, beta = records
        assert not alpha.aborted and beta.aborted
        assert "RuntimeError: evaluator fault" in beta.diagnostics[0]

    def test_an_unreadable_source_is_skipped_like_an_undecodable_one(self, tmp_path, caplog):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        (tmp_path / "projects" / "alpha" / "Dir.mj").mkdir()
        status, records = run_batch(config)
        assert status == 0
        assert (tmp_path / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
        assert records[0].diagnostics == ["Dir.mj: cannot read: Is a directory"]
        assert not any(r.exc_info for r in caplog.records)

    @pytest.mark.parametrize("unreadable", ["alpha.properties", SERIALIZED_AST])
    def test_an_input_that_cannot_be_read_aborts_only_its_project(
            self, tmp_path, caplog, monkeypatch, unreadable):
        project, _ = load_project("alpha", [("Sample.mj", fixture_text("Sample.mj"))])
        config = make_tree(
            tmp_path,
            projects={"alpha": {SERIALIZED_AST: serialize_project(project)},
                      "beta": {"AB.mj": fixture_text("AB.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        (config.properties_dir / "alpha.properties").write_text("n=1\n")
        read_bytes = Path.read_bytes

        def denied(path):
            if path.name == unreadable:
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", denied)
        status, records = run_batch(config)
        assert status == 1
        assert [r.aborted for r in records] == [True, False]
        shown = SERIALIZED_AST if unreadable == SERIALIZED_AST else config.properties_dir / unreadable
        assert records[0].diagnostics == [f"{shown}: cannot read: Permission denied"]
        assert not any(r.exc_info for r in caplog.records)
        assert sorted(p.name for p in config.results_dir.iterdir()) == [
            "beta.blocks.rows", "beta.vars"]

    @pytest.mark.parametrize("entry", ["directory", "dangling link"])
    @pytest.mark.parametrize("unreadable", ["alpha.properties", SERIALIZED_AST])
    def test_an_input_that_is_no_regular_file_aborts_only_its_project(
            self, tmp_path, caplog, entry, unreadable):
        # Not absent: a properties entry would leave the project unseeded,
        # and a document entry would load the `.mj` files beside it.
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      "beta": {"AB.mj": fixture_text("AB.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        parent = config.properties_dir if unreadable.endswith(".properties") else (
            config.projects_dir / "alpha")
        path = parent / unreadable
        if entry == "directory":
            path.mkdir()
        else:
            path.symlink_to(tmp_path / "nowhere")
        status, records = run_batch(config)
        assert status == 1
        assert [r.aborted for r in records] == [True, False]
        shown = SERIALIZED_AST if unreadable == SERIALIZED_AST else path
        reason = "Is a directory" if entry == "directory" else "No such file or directory"
        assert records[0].diagnostics == [f"{shown}: cannot read: {reason}"]
        assert not any(r.exc_info for r in caplog.records)
        assert sorted(p.name for p in config.results_dir.iterdir()) == [
            "beta.blocks.rows", "beta.vars"]

    def test_parse_once_across_query_counts(self, tmp_path):
        one = make_tree(
            tmp_path / "one",
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"q0.craql": COUNT_BLOCKS},
        )
        _, records_one = run_batch(one)
        many_queries = {f"q{i}.craql": COUNT_BLOCKS for i in range(50)}
        many = make_tree(
            tmp_path / "many",
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries=many_queries,
        )
        _, records_many = run_batch(many)
        assert records_one[0].stats.files_parsed == records_many[0].stats.files_parsed == 1
        assert len(records_many[0].row_counts) == 50

    def test_serialized_ast_ingestion(self, tmp_path):
        project, _ = load_project("donor", [("Sample.mj", fixture_text("Sample.mj"))])
        config = make_tree(
            tmp_path,
            projects={"ingested": {}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        (tmp_path / "projects" / "ingested" / "project.ast.json").write_text(
            serialize_project(project)
        )
        status, records = run_batch(config)
        assert status == 0
        assert (tmp_path / "results" / "ingested.vars").read_text() == "num_blocks=3\n"

    def test_bad_serialized_asts_skip_only_their_project(self, tmp_path, capsys, caplog):
        bad_docs = BAD_AST_DOCS | BAD_COLUMN_DOCS
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      **{name: {} for name in bad_docs}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        for name, (doc, message, location) in bad_docs.items():
            (tmp_path / "projects" / name / SERIALIZED_AST).write_text(ast_document(doc))
        status, records = run_batch(config)
        assert status == 1
        assert (tmp_path / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
        for record in records:
            assert record.aborted == (record.project in bad_docs)
            assert (tmp_path / "results" / f"{record.project}.vars").exists() != record.aborted
            if record.aborted:
                _, message, location = bad_docs[record.project]
                assert message in record.diagnostics[0]
                assert f"({location})" in record.diagnostics[0]
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_rows_records_are_tab_separated(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"methods.craql": COUNT_METHODS},
        )
        run_batch(config)
        lines = (tmp_path / "results" / "alpha.methods.rows").read_text().splitlines()
        assert len(lines) == 2
        file_name, line, node_type, text = lines[0].split("\t")
        assert file_name == "Sample.mj"
        assert node_type == "MethodDeclaration"
        assert "\n" not in text  # escaped

    def test_vars_values_round_trip_through_collate(self, tmp_path):
        # Escapes in the query string give a newline, a backslash and a tab;
        # the form feed and line separator are literal and need no escape.
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"s.craql": 'select ({CompilationUnit} u) '
                                '{ s = "a\\nb\\\\c\\td\x0ce\u2028f"; }'},
        )
        assert run_batch(config)[0] == 0
        vars_text = (tmp_path / "results" / "alpha.vars").read_text()
        assert vars_text == "s=a\\nb\\\\c\\td\x0ce\u2028f\n"
        with collate_csv(tmp_path / "results").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["project", "s"], ["alpha", "a\nb\\c\td\x0ce\u2028f"]]

    def test_determinism_byte_identical(self, tmp_path):
        outputs = []
        for run in ("first", "second"):
            config = make_tree(
                tmp_path / run,
                projects={
                    "alpha": {"Sample.mj": fixture_text("Sample.mj")},
                    "beta": {"AB.mj": fixture_text("AB.mj")},
                },
                queries={"blocks.craql": COUNT_BLOCKS, "methods.craql": COUNT_METHODS},
            )
            run_batch(config)
            collate_csv(config.results_dir)
            tree = {
                p.name: p.read_bytes()
                for p in sorted(config.results_dir.iterdir())
            }
            outputs.append(tree)
        assert outputs[0] == outputs[1]

    # sha256 of every output of the acceptance-7 bundle project under all
    # bundled queries, recorded before the engine's walks and type tests were
    # last rewritten; batch outputs must stay byte-identical.
    BUNDLE_DIGESTS = {
        "bundle.block_children.rows": "d20a5b2fc10fbf6eeb3b30ec68342b4d673b17aa7530c665110795301a4ec361",
        "bundle.blocktop_declarations.rows": "d20a5b2fc10fbf6eeb3b30ec68342b4d673b17aa7530c665110795301a4ec361",
        "bundle.bound_calls.rows": "ae8b8fcb143bc3e6d03e1cedcb51b7a6a19f32e5457f870bf69507730ac5801e",
        "bundle.call_chains.rows": "1c321bece13d3b18f76fbb8e723c4a59abc4b7556fa0c898d2536b9b5e2b3c08",
        "bundle.calls_in_out.rows": "4851a6cf49e569f1a2f48a528807a351c83930f073435860185eba841ce57478",
        "bundle.capped_blocks.rows": "c6f82c3e6d00e71d4293885df8ec988ff78d7da1423a30a98aa3b26898cb3889",
        "bundle.deepest_block.rows": "7279d0f6e75785231cf68543840782a6cec3a36e73a2909eb4610ee4314f2cd6",
        "bundle.getters.rows": "797f995a7d71e6f39b183d6dd0c321f38ccdf3da09822df44ca150498e8e8768",
        "bundle.nested_loops.rows": "3f4285e1c7503881a2901c0cc6a6f584673071825b67eeab64da14d2c7d04ad8",
        "bundle.nested_types.rows": "4851a6cf49e569f1a2f48a528807a351c83930f073435860185eba841ce57478",
        "bundle.recursive_methods.rows": "9aa5820c2a6e5426772824fe82001511f26cdc2873e4137700deebda04fa3e11",
        "bundle.self_typed.rows": "4851a6cf49e569f1a2f48a528807a351c83930f073435860185eba841ce57478",
        "bundle.throwing_catches.rows": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bundle.top_statements.rows": "ae8b8fcb143bc3e6d03e1cedcb51b7a6a19f32e5457f870bf69507730ac5801e",
        "bundle.unreachable.rows": "d20a5b2fc10fbf6eeb3b30ec68342b4d673b17aa7530c665110795301a4ec361",
        "bundle.vars": "4c77e18b2910b4196ed00db1315edde8dd9e71205520b0729d7acbb802542a87",
        "craql_output.csv": "34a90f310dba6b361e8c647d2e1b6bc8887d2da0f3d681c0643e79b0098974d2",
    }

    def test_bundle_outputs_match_recorded_digests(self, tmp_path):
        config = make_bundle_tree(tmp_path)
        status, records = run_batch(config)
        collate_csv(config.results_dir)
        assert status == 0
        assert (records[0].stats.nodes_visited, records[0].stats.rows_yielded) == (41470, 1791)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(config.results_dir.iterdir())
        }
        assert digests == self.BUNDLE_DIGESTS


def make_bundle_tree(tmp_path):
    """The acceptance-7 `bundle` project under every bundled query."""
    bundle = {
        name: fixture_text(name)
        for name in ("Sample.mj", "Fact.mj", "AB.mj", "Unreachable.mj", "Loops.mj", "Chain.mj")
    }
    bundle["Deep.mj"] = generate_nested_blocks(10)
    bundle["Sea.mj"] = generate_block_sea(250)
    return make_tree(
        tmp_path,
        projects={"bundle": bundle},
        queries={name: bundled_query_path(name).read_text() for name in BUNDLED_QUERIES},
    )



@pytest.mark.parametrize("enabled", [True, False])
def test_a_batch_leaves_no_cyclic_garbage(tmp_path, enabled):
    # The batch runs with the cyclic collector off, so a cycle it made would
    # stay in memory until the caller's next collection.
    config = make_tree(
        tmp_path,
        projects={
            "bundle": {name: fixture_text(name)
                       for name in ("Sample.mj", "Fact.mj", "AB.mj", "Loops.mj", "Chain.mj")},
            "faulty": {"F.mj": "class F { void f() { while (true) { continue; } } }"},
        },
        queries={**{name: bundled_query_path(name).read_text() for name in BUNDLED_QUERIES},
                 "node_sum.craql": "select ({ContinueStatement} c) { n = c + 1; }"},
    )
    (config.projects_dir / "bundle" / "Latin1.mj").write_bytes(b"class L { } // \xe9\n")
    # Every collection from the batch's start on counts: once the collector
    # is back on, the next allocation may run one before `gc.collect` does.
    collected = []

    def tally(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.collect()
    gc.callbacks.append(tally)
    try:
        status, records = run_batch(config)
        assert gc.isenabled() == enabled
        gc.collect()
    finally:
        gc.callbacks.remove(tally)
        (gc.enable if was else gc.disable)()
    assert collected and sum(collected) == 0
    assert status == 1
    assert [r.aborted for r in records] == [False, True]
    assert records[0].diagnostics == ["Latin1.mj:1:16: error: not UTF-8: byte 0xe9 at offset 15"]
    assert records[1].diagnostics == [
        "query node_sum failed on faulty: node_sum.craql:1:40: arithmetic on a node"]


# The README's escapes of a `.rows` line's source text.
ROW_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def test_rows_files_are_each_row_node_in_columns(tmp_path, monkeypatch):
    """Each `.rows` line is its node's file name, line, type and escaped
    source slice, and the writer renders each node once per project, for
    all of its documents."""
    sinks, rendered = [], []

    class RecordedSink(OutputSink):
        def __init__(self):
            super().__init__()
            sinks.append(self)

    def counted_row_line(project, n):
        rendered.append((project, n))
        return row_line(project, n)

    config = make_bundle_tree(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr("craql.runner.OutputSink", RecordedSink)
        patch.setattr("craql.engine.runtime.row_line", counted_row_line)
        assert run_batch(config)[0] == 0
    project = rendered[0][0]
    assert all(p is project for p, _ in rendered)
    assert len(sinks) == len(BUNDLED_QUERIES)
    escaped = 0
    for name, sink in zip(BUNDLED_QUERIES, sinks):
        expected = []
        for n in sink.rows:
            info = project.files[project.file[n]]
            source = info.text[project.start[n]:project.end[n]]
            text = "".join(ROW_ESCAPES.get(c, c) for c in source)
            escaped += text != source
            expected.append(f"{info.name}\t{project.line[n]}\t{project.type[n]}\t{text}\n")
        written = (config.results_dir / f"bundle.{name.removesuffix('.craql')}.rows").read_bytes()
        assert written == "".join(expected).encode(), name
    emitted = [n for sink in sinks for n in sink.rows]
    assert sorted(n for _, n in rendered) == sorted(set(emitted))
    assert len(emitted) > 1000 and len(emitted) > 2 * len(rendered) and escaped > 100


class TestAbortRemovesEarlierResults:
    """An aborted project keeps no result file of this batch's queries,
    whichever batch wrote it, so `collate` does not read an earlier run's
    results as this one's. Files are removed by exact name."""

    QUERY = "top_statements.craql"

    @pytest.fixture
    def config(self, tmp_path):
        config = make_tree(
            tmp_path,
            # q.x runs before q, so a removal of q's files by pattern would
            # show.
            projects={name: {"Sample.mj": fixture_text("Sample.mj")} for name in ("p", "q.x", "q")},
            queries={self.QUERY: bundled_query_path(self.QUERY).read_text()},
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_batch(config)[0] == 0
        assert self.collated(config) == ["p", "q", "q.x"]
        (tmp_path / "projects" / "q" / SERIALIZED_AST).write_text('{"schema": 1}')
        return config

    @staticmethod
    def collated(config):
        with collate_csv(config.results_dir).open(newline="", encoding="utf-8") as handle:
            return [row[0] for row in csv.reader(handle)][1:]

    def rerun(self, config):
        with contextlib.redirect_stdout(io.StringIO()):
            status, records = run_batch(config)
        assert status == 1
        assert [(r.project, r.aborted) for r in records] == [
            ("p", False), ("q.x", False), ("q", True)]
        assert records[2].diagnostics == ["'schema' must be a string (top level)"]

    def test_an_aborted_project_loses_its_earlier_results(self, config):
        results = config.results_dir
        kept = {path.name: path.read_bytes() for path in results.glob("q.x.*")}
        assert sorted(kept) == ["q.x.top_statements.rows", "q.x.vars"]
        self.rerun(config)
        assert sorted(p.name for p in results.iterdir()) == [
            OUTPUT_CSV, "p.top_statements.rows", "p.vars", "q.x.top_statements.rows", "q.x.vars"]
        assert {name: (results / name).read_bytes() for name in kept} == kept
        assert self.collated(config) == ["p", "q.x"]

    def test_a_file_that_cannot_be_removed_is_logged(self, config, caplog, monkeypatch):
        unlink = Path.unlink

        def refuse_vars(path, missing_ok=False):
            if path.name == "q.vars":
                raise PermissionError(13, "Permission denied", str(path))
            unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", refuse_vars)
        self.rerun(config)
        assert (config.results_dir / "q.vars").exists()
        assert not (config.results_dir / "q.top_statements.rows").exists()
        messages = [(r.levelname, r.getMessage()) for r in caplog.records]
        assert messages == [
            ("ERROR", "aborting q: 'schema' must be a string (top level)"),
            ("WARNING", f"q: cannot remove {config.results_dir / 'q.vars'}: "
                        f"[Errno 13] Permission denied: '{config.results_dir / 'q.vars'}'")]

    def test_names_with_paths_remove_nothing(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"real": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        (tmp_path / "results" / "sub").mkdir()
        planted = [tmp_path / "results" / "sub" / "proj.vars", tmp_path / "escape.vars",
                   tmp_path / "escape.blocks.rows"]
        for path in planted:
            path.write_text("x=1\n")
        (tmp_path / "projects.txt").write_text("sub/proj\nreal\n../escape\n")
        status, records = run_batch(config)
        assert status == 1
        assert [r.aborted for r in records] == [True, False, True]
        assert [path.read_text() for path in planted] == ["x=1\n"] * 3


def test_rows_without_source_text_show_placeholders(tmp_path, caplog):
    """A query that prints nothing still marks its output degraded: the
    rows render the source text, at write time."""
    project, _ = load_project("alpha", [("Sample.mj", fixture_text("Sample.mj"))])
    document = json.loads(serialize_project(project))
    for entry in document["files"]:
        del entry["text"]
    query = "select ({Block} b) { }"
    config = make_tree(
        tmp_path,
        projects={"alpha": {SERIALIZED_AST: json.dumps(document)}},
        queries={"blocks.craql": query},
    )
    status, (record,) = run_batch(config)
    assert status == 0
    blocks = [(project.files[project.file[n]].name, project.line[n])
              for n in run_document(project, query)[1].rows]
    assert len(blocks) == 3
    assert (config.results_dir / "alpha.blocks.rows").read_text() == "".join(
        f"{file}\t{line}\tBlock\t<Block@{file}:{line}>\n" for file, line in blocks)
    message = "source text missing: rows and prints show <Type@file:line> placeholders"
    assert record.diagnostics == [message]
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"alpha: {message}"]


# One query for the failure matrix: `n` squarings of 2, then one `m++`. A
# project without properties exports i=0, m=1 and x=2.
SQUARINGS = "select ({CompilationUnit} u) { x = 2; i = 0; while (i < n) { x = x * x; i++; } m++; }"


def _fails_on_42(value, project):
    if value == 42:
        raise ValueError("42 does not render")
    return render_value(value, project)


# Stage -> (how the first project fails there, given the root and pytest's
# `monkeypatch`, and the start of its diagnostic).
STAGE_FAILURES = {
    "directory": (lambda root, _: shutil.rmtree(root / "projects" / "alpha"),
                  "project directory missing: {root}/projects/alpha"),
    "load": (lambda root, _: (root / "projects" / "alpha" / SERIALIZED_AST).write_bytes(NOT_UTF8),
             SERIALIZED_AST + NOT_UTF8_AT),
    "properties": (lambda root, _: (root / "properties" / "alpha.properties").write_bytes(
                       NOT_UTF8),
                   "{root}/properties/alpha.properties" + NOT_UTF8_AT),
    # Fourteen squarings make a 4,933-digit integer.
    "query": (lambda root, _: (root / "properties" / "alpha.properties").write_text("n=14\n"),
              f"query sq failed on alpha: sq.craql:1:{SQUARINGS.index('*') + 1}: "
              "integer longer than 4000 digits"),
    # Every integer a project can hold renders, so a renderer that fails on
    # alpha's `m` (41, one `m++` on) stands in for an export fault.
    "export": (lambda root, monkeypatch: (
                   (root / "properties" / "alpha.properties").write_text("m=41\n"),
                   monkeypatch.setattr("craql.runner.render_value", _fails_on_42)),
               "writing alpha's results failed: ValueError: 42 does not render"),
    "write": (lambda root, _: (root / "results" / "alpha.sq.rows").mkdir(),
              "writing alpha's results failed: IsADirectoryError: "),
}


@pytest.mark.parametrize("stage", STAGE_FAILURES)
def test_a_failure_at_any_stage_aborts_only_its_project(tmp_path, caplog, monkeypatch, stage):
    config = make_tree(
        tmp_path,
        projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                  "beta": {"AB.mj": fixture_text("AB.mj")}},
        queries={"sq.craql": SQUARINGS},
    )
    fail, expected = STAGE_FAILURES[stage]
    fail(tmp_path, monkeypatch)
    status, records = run_batch(config)
    assert status == 1
    alpha, beta = records
    assert alpha.aborted and not beta.aborted
    (diagnostic,) = alpha.diagnostics
    assert diagnostic.startswith(expected.format(root=tmp_path))
    assert not (tmp_path / "results" / "alpha.vars").exists()
    assert (tmp_path / "results" / "beta.vars").read_text() == "i=0\nm=1\nx=2\n"
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["aborting alpha"]


class TestSeededIntegers:
    """A seeded integer is bounded as a query result is, so every integer a
    project holds renders."""

    @pytest.fixture
    def config(self, tmp_path):
        return make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")},
                      "beta": {"AB.mj": fixture_text("AB.mj")}},
            queries={"inc.craql": "select ({CompilationUnit} u) { m++; }"},
        )

    def test_more_than_4000_digits_aborts_only_its_project(self, config, tmp_path, caplog):
        path = tmp_path / "properties" / "alpha.properties"
        path.write_text("tag=x\nm=" + "9" * 4001 + "\n")
        status, records = run_batch(config)
        assert status == 1
        alpha, beta = records
        assert alpha.aborted and not beta.aborted
        assert alpha.diagnostics == [f"{path}:2: integer longer than 4000 digits"]
        assert (tmp_path / "results" / "beta.vars").read_text() == "m=1\n"
        assert not any(r.exc_info for r in caplog.records)

    @pytest.mark.parametrize("value", ["9" * 5000, "-" + "9_9" * 2001, "0" * 5000 + "9" * 4001],
                             ids=["5000_nines", "negative_with_underscores", "zero_padded"])
    def test_past_what_int_reads_aborts_too(self, config, tmp_path, value):
        # `int` refuses more than 4,300 digits; such a value is still an
        # integer, not a string.
        path = tmp_path / "properties" / "alpha.properties"
        path.write_text(f"m={value}\n")
        status, records = run_batch(config)
        assert status == 1
        assert records[0].diagnostics == [f"{path}:1: integer longer than 4000 digits"]

    def test_leading_zeros_do_not_count(self, config, tmp_path):
        (tmp_path / "properties" / "alpha.properties").write_text(
            "m=" + "0" * 5000 + "9" * 4000 + "\n")
        status, _ = run_batch(config)
        assert status == 0
        assert (tmp_path / "results" / "alpha.vars").read_text() == f"m=1{'0' * 4000}\n"

    def test_4000_digits_still_step_and_render(self, config, tmp_path):
        (tmp_path / "properties" / "alpha.properties").write_text("m=" + "9" * 4000 + "\n")
        status, _ = run_batch(config)
        assert status == 0
        assert (tmp_path / "results" / "alpha.vars").read_text() == f"m=1{'0' * 4000}\n"


class TestNumberLiteralTokens:
    """A number literal whose token is no bounded integer aborts its project
    where the query reads it, with no traceback."""

    QUERY = "select ({NumberLiteral} n) { top = max(n, top); }"

    def run(self, tmp_path, caplog, files):
        config = make_tree(
            tmp_path,
            projects={"alpha": files, "beta": {"Sample.mj": fixture_text("Sample.mj")}},
            queries={"top.craql": self.QUERY},
        )
        status, records = run_batch(config)
        assert status == 1
        assert [r.aborted for r in records] == [True, False]
        assert (tmp_path / "results" / "beta.vars").read_text() == "top=2\n"
        assert not any(r.exc_info for r in caplog.records)
        return records[0].diagnostics

    def test_serialized_token_that_is_not_a_number(self, tmp_path, caplog):
        project, _ = load_project("donor", [("A.mj", "class A { int f() { return 7; } }")])
        document = serialize_project(project)
        assert document.count('{"token":"7"}') == 1
        files = {SERIALIZED_AST: document.replace('{"token":"7"}', '{"token":"0x1F"}')}
        assert self.run(tmp_path, caplog, files) == [
            "query top failed on alpha: top.craql:1:36: "
            "number literal is not an integer of at most 4000 digits"]

    def test_minilang_literal_of_5000_digits(self, tmp_path, caplog):
        files = {"A.mj": f"class A {{ int f() {{ return {'9' * 5000}; }} }}"}
        assert self.run(tmp_path, caplog, files) == [
            "query top failed on alpha: top.craql:1:36: "
            "number literal is not an integer of at most 4000 digits"]


def test_query_files_with_one_result_name_are_a_config_error(tmp_path):
    config = make_tree(
        tmp_path,
        projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
        queries={},
    )
    for where in ("x", "y"):
        (tmp_path / "queries" / where).mkdir()
        (tmp_path / "queries" / where / "q.craql").write_text(COUNT_BLOCKS)
    (tmp_path / "queries.txt").write_text("x/q.craql\ny/q.craql\n")
    with pytest.raises(RunnerError, match=re.escape(
            "query files x/q.craql and y/q.craql both write results named q")):
        run_batch(config)
    assert list((tmp_path / "results").iterdir()) == []


def test_a_query_file_listed_twice_is_a_config_error(tmp_path):
    config = make_tree(
        tmp_path,
        projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}},
        queries={"q.craql": COUNT_BLOCKS},
    )
    (tmp_path / "queries.txt").write_text("q.craql\nq.craql\n")
    with pytest.raises(RunnerError, match=re.escape("query file q.craql is listed twice")):
        run_batch(config)
    assert list((tmp_path / "results").iterdir()) == []


def test_pairs_that_write_one_rows_file_are_a_config_error(tmp_path):
    config = make_tree(
        tmp_path,
        projects={"a": {"Sample.mj": fixture_text("Sample.mj")},
                  "a.b": {"Sample.mj": fixture_text("Sample.mj")}},
        queries={"b.c.craql": COUNT_BLOCKS, "c.craql": COUNT_METHODS},
    )
    with pytest.raises(RunnerError, match=re.escape(
            "project a with query file b.c.craql and project a.b with query file c.craql "
            f"both write {tmp_path / 'results' / 'a.b.c.rows'}")):
        run_batch(config)
    assert list((tmp_path / "results").iterdir()) == []
    # One project listed twice rewrites its own files: no clash.
    (tmp_path / "projects.txt").write_text("a\na\n")
    status, _ = run_batch(config)
    assert status == 0
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
        "a.b.c.rows", "a.c.rows", "a.vars"]


def test_validate_creates_nothing_when_a_check_fails(tmp_path):
    (tmp_path / "projects.txt").write_text("alpha\n")
    (tmp_path / "queries.txt").write_text("q.craql\n")
    config = RunConfig(
        tmp_path / "nope" / "deeper", tmp_path / "projects.txt", tmp_path / "queries.txt")
    with pytest.raises(RunnerError, match="missing directory: "):
        run_batch(config)
    assert not (tmp_path / "nope").exists()


def test_a_type_unknown_to_another_schema_aborts_only_its_project(tmp_path, caplog, monkeypatch):
    """A batch checks each query file against MiniLang's schema. A project
    on another schema meets a type that schema lacks as its select
    compiles: that project aborts with a located diagnostic, and the
    others complete."""
    toy = NodeTypeSchema("toy")
    toy.add_type("Leaf", props=[("name", TOKEN)])
    toy.add_type("Pair", props=[("left", SINGLE), ("right", SINGLE)])
    toy.validate()
    monkeypatch.setitem(craql.astcore._REGISTRY, "toy", toy)
    pair = ProjectAst("t", toy)
    pair.files.append(FileInfo("t.toy", None))
    left, right = (pair.add_node("Leaf", 0, 0, 0, 1, {"name": name}, ()) for name in "ab")
    pair.roots.append(pair.add_node("Pair", 0, 0, 0, 1, {"left": left, "right": right},
                                    [left, right]))
    pair.link_parents()
    config = make_tree(tmp_path, projects={"t": {SERIALIZED_AST: serialize_project(pair)},
                                           "m": {"Sample.mj": fixture_text("Sample.mj")}},
                       queries={"q.craql": "select ({Block} b) { k++; }"})
    status, records = run_batch(config)
    assert status == 1
    assert [(r.project, r.aborted) for r in records] == [("t", True), ("m", False)]
    assert records[0].diagnostics == ["query q failed on t: q.craql:1:8: unknown node type Block"]
    assert (config.results_dir / "m.vars").read_text() == "k=3\n"
    assert "Traceback" not in caplog.text and "SchemaError" not in caplog.text
