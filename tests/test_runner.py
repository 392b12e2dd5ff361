import contextlib
import csv
import hashlib
import io
import re
import shutil

import pytest

import craql.astcore
import craql.engine.evaluator

from craql import (
    BUNDLED_QUERIES,
    Evaluator,
    bundled_query_path,
    load_project,
    serialize_project,
)
from craql.fixtures import fixture_text, generate_block_sea, generate_nested_blocks
from craql.runner import (
    OUTPUT_CSV,
    RunConfig,
    RunnerError,
    SERIALIZED_AST,
    collate_csv,
    generate_props,
    load_properties,
    render_variable,
    run_batch,
)

from conftest import BAD_AST_DOCS, BAD_COLUMN_DOCS, ast_document


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
    return RunConfig.from_root(
        tmp_path, tmp_path / "projects.txt", tmp_path / "queries.txt"
    )


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

    @pytest.mark.parametrize("name", ["../evil", "sub/p", "sub\\p", ".", ".."])
    def test_path_names_are_rejected_before_any_write(self, tmp_path, name):
        properties = tmp_path / "properties"
        properties.mkdir()
        (properties / "projecttags.csv").write_text(f"project,x\nalpha,1\n{name},2\n")
        with pytest.raises(RunnerError, match=re.escape(f"bad project name in {properties}")):
            generate_props(properties)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "properties", "properties/projecttags.csv"]

    def test_round_trip_with_load_properties(self, tmp_path):
        (tmp_path / "projecttags.csv").write_text(
            "project,platform,stars\nalpha,android,1200\n"
        )
        generate_props(tmp_path)
        assert load_properties(tmp_path, "alpha") == {"platform": "android", "stars": 1200}


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
        (tmp_path / "projects.txt").write_text("sub/proj\nreal\n../escape\n")
        status, records = run_batch(config)
        assert status == 1
        assert [(r.project, r.aborted) for r in records] == [
            ("sub/proj", True), ("real", False), ("../escape", True)]
        for record in records[0], records[2]:
            assert record.diagnostics[0].startswith("project directory missing: ")
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

    def test_unreadable_source_skips_only_its_project(self, tmp_path):
        config = make_tree(
            tmp_path,
            projects={"alpha": {"Sample.mj": fixture_text("Sample.mj")}, "odd": {}},
            queries={"blocks.craql": COUNT_BLOCKS},
        )
        (tmp_path / "projects" / "odd" / "Dir.mj").mkdir()
        status, records = run_batch(config)
        assert status == 1
        assert (tmp_path / "results" / "alpha.vars").read_text() == "num_blocks=3\n"
        assert records[1].aborted
        assert "IsADirectoryError" in records[1].diagnostics[0]

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

    def test_bad_serialized_asts_skip_only_their_project(self, tmp_path):
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
        bundle = {
            name: fixture_text(name)
            for name in ("Sample.mj", "Fact.mj", "AB.mj", "Unreachable.mj", "Loops.mj", "Chain.mj")
        }
        bundle["Deep.mj"] = generate_nested_blocks(10)
        bundle["Sea.mj"] = generate_block_sea(250)
        config = make_tree(
            tmp_path,
            projects={"bundle": bundle},
            queries={name: bundled_query_path(name).read_text() for name in BUNDLED_QUERIES},
        )
        status, records = run_batch(config)
        collate_csv(config.results_dir)
        assert status == 0
        assert (records[0].stats.nodes_visited, records[0].stats.rows_yielded) == (41470, 1791)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(config.results_dir.iterdir())
        }
        assert digests == self.BUNDLE_DIGESTS


def test_runner_keeps_the_names_results_took_over():
    import craql.engine.runtime
    import craql.results
    import craql.runner

    for name in ("OUTPUT_CSV", "PROJECT_TAGS", "RunConfig", "RunnerError", "collate_csv",
                 "escape_text", "generate_props", "is_project_name", "read_list",
                 "read_text", "unescape_text"):
        assert getattr(craql.runner, name) is getattr(craql.results, name), name
    assert craql.engine.runtime.unescape_text is craql.results.unescape_text


# One query for the failure matrix: `n` squarings of 2, then one `m++`. A
# project without properties exports i=0, m=1 and x=2.
SQUARINGS = "select ({CompilationUnit} u) { x = 2; i = 0; while (i < n) { x = x * x; i++; } m++; }"


def _fails_on_42(value):
    if value == 42:
        raise ValueError("42 does not render")
    return render_variable(value)


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
                   monkeypatch.setattr("craql.runner.render_variable", _fails_on_42)),
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


def test_validate_creates_nothing_when_a_check_fails(tmp_path):
    (tmp_path / "projects.txt").write_text("alpha\n")
    (tmp_path / "queries.txt").write_text("q.craql\n")
    config = RunConfig.from_root(
        tmp_path / "nope" / "deeper", tmp_path / "projects.txt", tmp_path / "queries.txt")
    with pytest.raises(RunnerError, match="missing directory: "):
        run_batch(config)
    assert not (tmp_path / "nope").exists()
