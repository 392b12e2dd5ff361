import pytest

from craql import (
    Environment,
    Evaluator,
    OutputSink,
    QueryRuntimeError,
    bundled_query_path,
    parse_query_document,
)

import craql.engine.evaluator
from craql.engine.evaluator import MAX_CALL_DEPTH

from conftest import load_fixture_project, run_document


def bundled_text(query_name: str) -> str:
    return bundled_query_path(query_name).read_text()


class TestAssignments:
    def test_plus_equals_defaults_undefined_to_zero(self, sample_project):
        env, _, _ = run_document(sample_project, "select ({CompilationUnit} u) { total += 1; }")
        assert env.variables["total"] == 1

    def test_minus_equals_and_incr_decr(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({CompilationUnit} u) { a -= 2; b ++; c --; }",
        )
        assert env.variables["a"] == -2
        assert env.variables["b"] == 1
        assert env.variables["c"] == -1

    def test_string_concat_assignment(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            'select ({CompilationUnit} u) { s = "a"; s += "b"; fresh += "c"; }',
        )
        assert env.variables["s"] == "ab"
        assert env.variables["fresh"] == "c"

    def test_pattern_variable_is_assignable(self):
        project = load_fixture_project("chain", "Chain.mj")
        env, _, _ = run_document(project, bundled_text("call_chains.craql"))
        assert env.variables["max_chain_length"] == 3


class TestControlFlow:
    def test_if_else(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({CompilationUnit} u) { if (1 < 2) { x = 1; } else { x = 2; } "
            "if (2 < 1) { y = 1; } else { y = 2; } }",
        )
        assert env.variables["x"] == 1
        assert env.variables["y"] == 2

    def test_while_false_never_runs(self, sample_project):
        env, _, _ = run_document(
            sample_project, "select ({CompilationUnit} u) { while (false) { x = 1; } }"
        )
        assert "x" not in env.variables

    def test_while_loop_counts(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({CompilationUnit} u) { i = 0; while (i < 5) { i ++; } }",
        )
        assert env.variables["i"] == 5

    def test_receiver_walk_terminates_on_receiverless_call(self, sample_project):
        # The chain walk steps onto an absent receiver; the loop condition
        # must degrade to false rather than abort.
        env, _, _ = run_document(sample_project, bundled_text("call_chains.craql"))
        assert env.variables["max_chain_length"] == 1


class TestCallQuery:
    def test_recursive_descent_counts_loops(self):
        project = load_fixture_project("loops", "Loops.mj")
        env, _, _ = run_document(project, bundled_text("nested_loops.craql"))
        assert env.variables["nested_for_count"] == 3

    def test_no_loops_means_no_counter(self, sample_project):
        env, _, _ = run_document(sample_project, bundled_text("nested_loops.craql"))
        assert "nested_for_count" not in env.variables

    def test_recursion_limit(self, sample_project):
        text = "q1 : select ({CompilationUnit} u) { runs += 1; callquery(q1); }"
        doc = parse_query_document(text, "loop.craql")
        env = Environment()
        evaluator = Evaluator(sample_project, env, OutputSink(), source="loop.craql")
        with pytest.raises(QueryRuntimeError, match="loop.craql:1:48: query recursion limit"):
            evaluator.execute_document(doc)
        # The entry query and MAX_CALL_DEPTH nested calls ran; the next call aborted.
        assert env.variables["runs"] == MAX_CALL_DEPTH + 1
        assert env.call_depth == 0

    def test_called_query_shares_environment(self, sample_project):
        text = (
            "main : select ({CompilationUnit} u) { seen = 1; callquery(helper); }\n"
            "helper : select ({TypeDeclaration} t) { seen += 10; }"
        )
        env, _, _ = run_document(sample_project, text)
        assert env.variables["seen"] == 11

    def test_callquery_rows_are_emitted(self, sample_project):
        text = (
            "main : select ({CompilationUnit} u) { callquery(helper); }\n"
            "helper : select ({MethodDeclaration} m) { }"
        )
        _, sink, _ = run_document(sample_project, text)
        types = [sample_project.type[n] for n in sink.rows]
        assert types == ["CompilationUnit", "MethodDeclaration", "MethodDeclaration"]


class TestPrint:
    @pytest.mark.parametrize("value, prints, error", [
        ('"line " + b.linenumber()', ["line 3", "line 4", "line 8"], None),
        ("nope", ["undefined"] * 3, None),
        ("b + 1", [], "q.craql:2:13: arithmetic on a node"),
        ("b.isnodetype(1)", [], "q.craql:2:13: isnodetype() expects a node type like {Block}"),
    ])
    def test_statement_and_expression_forms_agree(self, sample_project, value, prints, error):
        # The value sits at the same column in both forms.
        for stmt in (f"    print({value});", f"y = print({value});"):
            doc = parse_query_document(f"select ({{Block}} b) {{\n{stmt}\n}}", "q.craql")
            sink = OutputSink()
            evaluator = Evaluator(sample_project, Environment(), sink, source="q.craql")
            if error is None:
                evaluator.execute_document(doc)
            else:
                with pytest.raises(QueryRuntimeError) as raised:
                    evaluator.execute_document(doc)
                assert str(raised.value) == error
            assert sink.prints == prints


class TestProjectBudget:
    """`Environment.steps` counts the candidates a select reads, each pair a
    candidate heads, `while` steps and callquery entries; Sample.mj has
    three blocks, two method declarations and nine statements."""

    @pytest.mark.parametrize("text, steps", [
        ("select ({Block} b) { i = 0; while (i < 2) { i++; } }", 3 + 3 * 2),
        ("main : select ({CompilationUnit} u) { callquery(helper); }\n"
         "helper : select ({TypeDeclaration} t) { }", 1 + 1 + 1),
        ("select ({MethodDeclaration} m * {Statement} s) { }", 2 + 9),
        # The third block, below the second row, is read but not tested.
        ("select outmost ({Block} b) { }", 3),
    ])
    def test_steps_counted(self, sample_project, text, steps):
        env, _, _ = run_document(sample_project, text)
        assert env.steps == steps

    @pytest.mark.parametrize("text, where", [
        ("select ({Block} b) { i = 0; while (i < 2) { i++; } }", "1:29"),
        ("select ({Statement} s) { }", "1:1"),
        ("main : select ({CompilationUnit} u) { i = 0; while (i < 7) { i++; } callquery(m); }\n"
         "m : select ({Block} b) { }", "1:69"),
    ])
    def test_exceeding_aborts_at_the_statement(self, sample_project, monkeypatch, text, where):
        monkeypatch.setattr(craql.engine.evaluator, "MAX_PROJECT_STEPS", 8)
        with pytest.raises(QueryRuntimeError) as raised:
            run_document(sample_project, text, source="q.craql")
        assert str(raised.value) == f"q.craql:{where}: project exceeded 8 evaluation steps"

    def test_budget_spans_the_projects_documents(self, sample_project, monkeypatch):
        monkeypatch.setattr(craql.engine.evaluator, "MAX_PROJECT_STEPS", 5)
        env = Environment()
        doc = parse_query_document("select ({Block} b) { n++; }", "q.craql")
        Evaluator(sample_project, env, OutputSink(), source="q.craql").execute_document(doc)
        with pytest.raises(QueryRuntimeError, match="q.craql:1:1: project exceeded 5"):
            Evaluator(sample_project, env, OutputSink(), source="q.craql").execute_document(doc)
        assert env.steps == 6 and env.variables["n"] == 3


class TestEnvironmentSharing:
    def test_flat_namespace_accumulates_across_blocks(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({Block} b) { select ({VariableDeclaration} v) directly in b { n += 1; } }",
        )
        assert env.variables["n"] == 2  # i and j

    def test_temp_variables_not_exported(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({CompilationUnit} u) { temp_x = 1; kept = 2; }",
        )
        exported = env.exported()
        assert "temp_x" not in exported
        assert exported["kept"] == 2

    def test_node_values_not_exported(self, sample_project):
        env, _, _ = run_document(sample_project, "select ({Block} b) { n += 1; }")
        exported = env.exported()
        assert "b" not in exported
        assert exported["n"] == 3

    def test_seeded_variables_flow_and_update(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({CompilationUnit} u) { stars += 1; }",
            seed={"stars": 10, "platform": "android"},
        )
        assert env.exported() == {"stars": 11, "platform": "android"}

    def test_empty_project_leaves_environment_untouched(self):
        from craql import load_project

        project, _ = load_project("empty", [])
        env, sink, _ = run_document(project, "select ({Block} b) { x = 1; }", seed={"a": 1})
        assert env.variables == {"a": 1}
        assert sink.rows == []


class TestOutputSink:
    def test_sinks_that_share_lines_render_each_node_once(self, sample_project):
        """A sink's rows are its emitted node ids; `render` reuses the lines
        it is given and adds the rest."""
        text = "select ({MethodDeclaration} m) { }"
        (_, first, _), (_, second, _) = (run_document(sample_project, text) for _ in range(2))
        assert first.rows == second.rows and len(first.rows) == 2
        assert [sample_project.type[n] for n in first.rows] == ["MethodDeclaration"] * 2
        lines = {first.rows[0]: "known\n"}
        assert first.render(sample_project, lines).startswith("known\n")
        assert set(lines) == set(first.rows)
        assert second.render(sample_project, lines) == "".join(lines[n] for n in first.rows)
        assert first.render(sample_project, {}).startswith("Sample.mj\t")


class TestDeterminism:
    def test_two_runs_identical_output(self, sample_project):
        outputs = []
        for _ in range(2):
            env, sink, _ = run_document(
                sample_project, bundled_text("blocktop_declarations.craql")
            )
            outputs.append((dict(env.exported()), list(sink.prints),
                            sink.render(sample_project, {})))
        assert outputs[0] == outputs[1]
