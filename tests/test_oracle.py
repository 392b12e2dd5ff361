import random

from craql import Environment, Evaluator, OutputSink, load_project, parse_query_document
from craql.fixtures import generate_nested_blocks, generate_random_source
from craql.oracle import compare, oracle_select, replay_capture, where_from_expr
from craql.query.ast import (
    INPUT_DEFAULT,
    InputSpec,
    MOD_NONE,
    MOD_OUTMOST,
    Pattern,
    SINGLE,
    STAR,
    SelectQuery,
)


def engine_rows(project, query, env=None):
    evaluator = Evaluator(project, env or Environment(), OutputSink())
    return evaluator.run_select(query)


def run_with_trace(project, text):
    doc = parse_query_document(text)
    evaluator = Evaluator(project, Environment(), OutputSink())
    captures = []
    evaluator.trace = captures.append
    evaluator.execute_document(doc)
    return captures


class TestAgreement:
    def test_plain_blocks(self, sample_project):
        (capture,) = run_with_trace(sample_project, "select ({Block} b) { }")
        assert compare(sample_project, capture.rows, replay_capture(sample_project, capture)).empty

    def test_inmost_blocks(self, sample_project):
        (capture,) = run_with_trace(sample_project, "select inmost ({Block} b) { }")
        assert compare(sample_project, capture.rows, replay_capture(sample_project, capture)).empty

    def test_outmost_with_where(self, sample_project):
        (capture, *_) = run_with_trace(
            sample_project,
            "select outmost ({Statement} s) where s.isnodetype({ReturnStatement}) { }",
        )
        assert compare(sample_project, capture.rows, replay_capture(sample_project, capture)).empty

    def test_star_on_fact(self, fact_project):
        (capture,) = run_with_trace(
            fact_project,
            "select ({MethodDeclaration} d * {MethodInvocation} c) "
            "where c.methodbinding() == d { }",
        )
        oracle = replay_capture(fact_project, capture)
        assert len(oracle.rows) == 1
        assert compare(fact_project, capture.rows, oracle).empty

    def test_count_star_cap_matches(self):
        from craql.fixtures import generate_block_sea

        project, _ = load_project("sea", [("Sea.mj", generate_block_sea(120))])
        (capture,) = run_with_trace(project, "select ({Block} b) where count(*) < 100 { }")
        oracle = replay_capture(project, capture)
        assert len(oracle.rows) == 100
        assert compare(project, capture.rows, oracle).empty


class TestDiffDetection:
    def test_disabling_outmost_shows_extras(self):
        project, _ = load_project("deep", [("Deep.mj", generate_nested_blocks(10))])
        q_plain = SelectQuery(
            Pattern(SINGLE, "Block", "b"), MOD_NONE, InputSpec(INPUT_DEFAULT), None, []
        )
        plain_rows = engine_rows(project, q_plain)
        oracle = oracle_select(
            project, SINGLE, ("Block",), ["b"], MOD_OUTMOST,
            list(project.roots), True, False, None,
        )
        report = compare(project, plain_rows, oracle)
        assert not report.empty
        # All ten nested blocks are extras; the outermost one agrees.
        assert len(report.extra) == 10
        assert report.missing == []

    def test_outmost_of_the_roots_own_type_keeps_only_the_root(self):
        project, _ = load_project("deep", [("Deep.mj", generate_nested_blocks(10))])
        oracle = oracle_select(
            project, SINGLE, ("CompilationUnit",), ["u"], MOD_OUTMOST,
            list(project.roots), True, False, None,
        )
        assert list(oracle.rows) == [(project.roots[0],)]

    def test_empty_vs_empty(self, sample_project):
        oracle = oracle_select(
            sample_project, SINGLE, ("ForStatement",), ["f"], MOD_NONE,
            list(sample_project.roots), True, False, None,
        )
        assert compare(sample_project, [], oracle).empty

    def test_order_mismatch_detected(self, sample_project):
        q = SelectQuery(Pattern(SINGLE, "Block", "b"), MOD_NONE, InputSpec(INPUT_DEFAULT), None, [])
        rows = engine_rows(sample_project, q)
        oracle = oracle_select(
            sample_project, SINGLE, ("Block",), ["b"], MOD_NONE,
            list(sample_project.roots), True, False, None,
        )
        report = compare(sample_project, list(reversed(rows)), oracle)
        assert report.order_mismatch


class TestOracleInternals:
    def test_input_order_invariance(self, ab_project):
        roots = list(ab_project.roots)
        forward = oracle_select(
            ab_project, SINGLE, ("MethodDeclaration",), ["m"], MOD_NONE,
            roots, True, False, None,
        )
        backward = oracle_select(
            ab_project, SINGLE, ("MethodDeclaration",), ["m"], MOD_NONE,
            list(reversed(roots)), True, False, None,
        )
        assert set(forward.rows) == set(backward.rows)

    def test_where_delegation_sees_snapshot(self, sample_project):
        doc = parse_query_document("select ({Block} b) where limit > 2 { }")
        where_fn = where_from_expr(
            sample_project, doc.entry.where, {"limit": 5}
        )
        assert where_fn({"b": sample_project.roots[0]}, 0) is True
        where_fn = where_from_expr(sample_project, doc.entry.where, {"limit": 0})
        assert where_fn({"b": sample_project.roots[0]}, 0) is False


class TestRandomizedAgreement:
    def test_engine_matches_oracle_on_random_sources(self):
        rng = random.Random(7)
        for i in range(25):
            source = generate_random_source(rng, classes=rng.randint(1, 2), max_depth=4)
            project, diags = load_project(f"r{i}", [("R.mj", source)])
            assert not diags
            for type_name in ("Statement", "Block", "Expression"):
                for modifier in ("none", "outmost", "inmost"):
                    q = SelectQuery(
                        Pattern(SINGLE, type_name, "n"), modifier,
                        InputSpec(INPUT_DEFAULT), None, [],
                    )
                    rows = engine_rows(project, q)
                    oracle = oracle_select(
                        project, SINGLE, (type_name,), ["n"], modifier,
                        list(project.roots), True, False, None,
                    )
                    assert compare(project, rows, oracle).empty, (i, type_name, modifier)

    def test_star_matches_on_random_sources(self):
        rng = random.Random(11)
        for i in range(10):
            source = generate_random_source(rng, classes=1, max_depth=4)
            project, _ = load_project(f"s{i}", [("R.mj", source)])
            q = SelectQuery(
                Pattern(STAR, "Statement", "a", "Expression", "e"), MOD_NONE,
                InputSpec(INPUT_DEFAULT), None, [],
            )
            rows = engine_rows(project, q)
            oracle = oracle_select(
                project, STAR, ("Statement", "Expression"), ["a", "e"], MOD_NONE,
                list(project.roots), True, False, None,
            )
            assert compare(project, rows, oracle).empty, i
