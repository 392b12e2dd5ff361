import pytest

from craql import Environment, Evaluator, OutputSink, load_project
from craql.engine.runtime import NodeList, NodeRef
from craql.query.ast import (
    ELLIPSIS,
    INPUT_DEFAULT,
    INPUT_DIRECTLY_IN,
    INPUT_IN,
    InputSpec,
    MOD_INMOST,
    MOD_NONE,
    MOD_OUTMOST,
    Pattern,
    SINGLE,
    STAR,
    SelectQuery,
    VarRef,
)
from craql.fixtures import generate_block_sea, generate_nested_blocks

from conftest import find_node, run_document


def select(project, pattern, modifier=MOD_NONE, input_spec=None, where=None, env=None):
    query = SelectQuery(pattern, modifier, input_spec or InputSpec(INPUT_DEFAULT), where, [])
    evaluator = Evaluator(project, env or Environment(), OutputSink())
    return evaluator.run_select(query)


def single(type_name, var="n"):
    return Pattern(SINGLE, type_name, var)


class TestSelectSingle:
    def test_all_blocks_in_sample(self, sample_project):
        rows = select(sample_project, single("Block")).rows
        assert len(rows) == 3

    def test_inmost_blocks_in_sample(self, sample_project):
        rows = select(sample_project, single("Block"), MOD_INMOST).rows
        assert len(rows) == 2
        getcount_body = find_node(sample_project, "Block", "return count")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        assert [r["n"] for r in rows] == [getcount_body.id, while_body.id]

    def test_outmost_directly_in_greet_body(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        env = Environment({"gb": NodeRef(greet_body.id)})
        rows = select(
            sample_project,
            single("Statement", "s"),
            MOD_OUTMOST,
            InputSpec(INPUT_DIRECTLY_IN, VarRef("gb")),
            env=env,
        ).rows
        kinds = [sample_project.node(r["s"]).type for r in rows]
        assert kinds == [
            "VariableDeclarationStatement",
            "ExpressionStatement",
            "VariableDeclarationStatement",
            "WhileStatement",
        ]

    def test_explicit_input_excludes_the_root_itself(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        env = Environment({"gb": NodeRef(greet_body.id)})
        rows = select(
            sample_project, single("Block"), input_spec=InputSpec(INPUT_IN, VarRef("gb")), env=env
        ).rows
        ids = [r["n"] for r in rows]
        assert greet_body.id not in ids
        assert len(ids) == 1  # the while body

    def test_default_input_includes_matching_root(self, sample_project):
        rows = select(sample_project, single("CompilationUnit")).rows
        assert [r["n"] for r in rows] == list(sample_project.roots)

    def test_count_star_cap(self):
        project, _ = load_project("sea", [("Sea.mj", generate_block_sea(250))])
        assert sum(1 for n in project.nodes if n.type == "Block") == 250
        env, sink, _ = run_document(
            project, "select ({Block} b) where count(*) < 100 { print(count(*)); }"
        )
        assert len(sink.rows) == 100
        assert sink.prints == [str(i) for i in range(1, 101)]

    def test_rows_enumerate_in_preorder(self, sample_project):
        rows = select(sample_project, single("Statement")).rows
        starts = [sample_project.node(r["n"]).span.start for r in rows]
        assert starts == sorted(starts)

    def test_empty_project_yields_nothing(self):
        project, _ = load_project("empty", [])
        assert select(project, single("Block")).rows == []

    def test_node_list_input_deduplicates_rows(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        env = Environment({"pair": NodeList((greet_body.id, greet_body.id))})
        rows = select(
            sample_project, single("Statement", "s"),
            input_spec=InputSpec(INPUT_IN, VarRef("pair")), env=env,
        ).rows
        ids = [r["s"] for r in rows]
        assert len(ids) == len(set(ids))

    def test_undefined_input_is_empty(self, sample_project):
        rows = select(
            sample_project, single("Block"),
            input_spec=InputSpec(INPUT_IN, VarRef("nothing")),
        ).rows
        assert rows == []

    def test_directly_in_prunes_nested_same_type(self, sample_project):
        # Variable declarations directly under the greet body: i and j, not
        # anything hidden behind a nested block.
        greet_body = find_node(sample_project, "Block", "int i = 0")
        env = Environment({"gb": NodeRef(greet_body.id)})
        rows = select(
            sample_project,
            single("VariableDeclaration", "v"),
            input_spec=InputSpec(INPUT_DIRECTLY_IN, VarRef("gb")),
            env=env,
        ).rows
        names = [sample_project.node(r["v"]).props["name"] for r in rows]
        assert names == ["i", "j"]


class TestWhereGatedOutmost:
    def test_where_failing_candidate_does_not_shadow(self, sample_project):
        # Filtering for return statements must see through the body block,
        # which is itself a Statement but fails the where clause.
        _, sink, _ = run_document(
            sample_project,
            "select ({MethodDeclaration} m) { "
            "select outmost ({Statement} s) in m "
            "where s.isnodetype({ReturnStatement}) { print(s); } }",
        )
        assert sink.prints == ["return count;"]

    def test_accepted_row_blocks_descendants(self, sample_project):
        # Without a where clause the body block is accepted and everything
        # below it stays hidden.
        method = find_node(sample_project, "MethodDeclaration", "getCount")
        env = Environment({"m": NodeRef(method.id)})
        rows = select(
            sample_project, single("Statement", "s"), MOD_OUTMOST,
            InputSpec(INPUT_IN, VarRef("m")), env=env,
        ).rows
        assert [sample_project.node(r["s"]).type for r in rows] == ["Block"]


class TestSelectStar:
    def test_blocks_pair_once_in_sample(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        rows = select(
            sample_project, Pattern(STAR, "Block", "x", "Block", "y")
        ).rows
        assert [(r["x"], r["y"]) for r in rows] == [(greet_body.id, while_body.id)]

    def test_no_self_pairing(self, sample_project):
        rows = select(sample_project, Pattern(STAR, "Block", "x", "Block", "y")).rows
        assert all(r["x"] != r["y"] for r in rows)

    def test_recursion_pair_on_fact(self, fact_project):
        env, sink, _ = run_document(
            fact_project,
            "select ({MethodDeclaration} decl * {MethodInvocation} call) "
            "where call.methodbinding() == decl { hits ++; }",
        )
        assert env.variables["hits"] == 1

    def test_no_recursion_in_sample(self, sample_project):
        env, _, _ = run_document(
            sample_project,
            "select ({MethodDeclaration} decl * {MethodInvocation} call) "
            "where call.methodbinding() == decl { hits ++; }",
        )
        assert "hits" not in env.variables

    def test_pair_order_is_lexicographic_preorder(self, sample_project):
        rows = select(
            sample_project, Pattern(STAR, "Block", "x", "Statement", "y")
        ).rows
        keys = [
            (sample_project.node(r["x"]).span.start, sample_project.node(r["y"]).span.start)
            for r in rows
        ]
        assert keys == sorted(keys)


class TestSelectEllipsis:
    def test_deepest_block_in_sample(self, sample_project):
        greet = find_node(sample_project, "MethodDeclaration", "void greet")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        rows = select(
            sample_project, Pattern(ELLIPSIS, "MethodDeclaration", "m", "Block", "b")
        ).rows
        assert [(r["m"], r["b"]) for r in rows] == [(greet.id, while_body.id)]

    def test_all_ties_returned(self):
        project, _ = load_project(
            "tie", [("T.mj", 'class T { void a() { log("x"); } void b() { log("y"); } }')]
        )
        rows = select(project, Pattern(ELLIPSIS, "MethodDeclaration", "m", "Block", "b")).rows
        assert len(rows) == 2

    def test_empty_when_no_pairs(self, sample_project):
        rows = select(
            sample_project, Pattern(ELLIPSIS, "WhileStatement", "w", "ForStatement", "f")
        ).rows
        assert rows == []


class TestStatsAndPruning:
    def test_visited_at_least_rows(self, sample_project):
        rs = select(sample_project, single("Statement"))
        assert rs.stats.nodes_visited >= rs.stats.rows_yielded

    def test_pruning_reduces_visits_on_deep_nesting(self):
        project, _ = load_project("deep", [("Deep.mj", generate_nested_blocks(10))])
        body = next(
            n for n in project.nodes
            if n.type == "Block" and project.node(n.parent).type == "MethodDeclaration"
        )
        env = Environment({"r": NodeRef(body.id)})
        pruned = select(
            project, single("Block", "b"), MOD_OUTMOST,
            InputSpec(INPUT_DIRECTLY_IN, VarRef("r")), env=env,
        )
        env = Environment({"r": NodeRef(body.id)})
        plain = select(
            project, single("Block", "b"), MOD_NONE,
            InputSpec(INPUT_IN, VarRef("r")), env=env,
        )
        assert pruned.stats.nodes_visited < plain.stats.nodes_visited

    # (nodes_visited, rows_yielded) on Sample.mj; a change to the walks that
    # visits more or fewer nodes shows here first.
    @pytest.mark.parametrize("pattern, modifier, directly_in_greet_body, expected", [
        (single("Statement"), MOD_OUTMOST, False, (8, 2)),
        (single("Block"), MOD_INMOST, False, (30, 2)),
        (single("Statement"), MOD_NONE, True, (15, 5)),
        (Pattern(STAR, "Block", "x", "Statement", "y"), MOD_NONE, False, (58, 8)),
        (Pattern(ELLIPSIS, "MethodDeclaration", "m", "Block", "b"), MOD_NONE, False, (54, 1)),
    ])
    def test_pinned_counts(self, sample_project, pattern, modifier, directly_in_greet_body,
                           expected):
        input_spec, env = None, None
        if directly_in_greet_body:
            greet_body = find_node(sample_project, "Block", "int i = 0")
            input_spec = InputSpec(INPUT_DIRECTLY_IN, VarRef("gb"))
            env = Environment({"gb": NodeRef(greet_body.id)})
        rs = select(sample_project, pattern, modifier, input_spec, env=env)
        assert (rs.stats.nodes_visited, rs.stats.rows_yielded) == expected

    def test_nested_selects_add_up_once(self, sample_project):
        _, _, evaluator = run_document(
            sample_project,
            "select ({MethodDeclaration} m) { "
            "select outmost ({Statement} s) in m "
            "where s.isnodetype({ReturnStatement}) { print(s); } }",
        )
        assert (evaluator.stats.nodes_visited, evaluator.stats.rows_yielded) == (55, 3)

    def test_count_star_monotonic_and_final_equals_rows(self):
        project, _ = load_project("sea", [("Sea.mj", generate_block_sea(40))])
        env, sink, _ = run_document(project, "select ({Block} b) { print(count(*)); }")
        observed = [int(p) for p in sink.prints]
        assert observed == sorted(observed)
        assert observed[-1] == 40

    def test_modifier_rows_are_subsets(self, sample_project):
        base = {r["n"] for r in select(sample_project, single("Statement")).rows}
        outer = {r["n"] for r in select(sample_project, single("Statement"), MOD_OUTMOST).rows}
        inner = {r["n"] for r in select(sample_project, single("Statement"), MOD_INMOST).rows}
        assert outer <= base and inner <= base


class TestComposability:
    def test_nested_in_equals_star_for_method_roots(self, sample_project, ab_project):
        for project in (sample_project, ab_project):
            captured: list[tuple[int, int]] = []
            doc_text = (
                "select ({MethodDeclaration} m) { select ({Statement} s) in m { } }"
            )
            from craql import parse_query_document

            doc = parse_query_document(doc_text)
            env = Environment()
            evaluator = Evaluator(project, env, OutputSink())

            def grab(capture):
                if capture.query.pattern.var1 == "s":
                    outer = capture.env_snapshot["m"]
                    captured.extend((outer.id, r["s"]) for r in capture.rows)

            evaluator.trace = grab
            evaluator.execute_document(doc)

            star_rows = select(
                project, Pattern(STAR, "MethodDeclaration", "m", "Statement", "s")
            ).rows
            assert captured == [(r["m"], r["s"]) for r in star_rows]


class TestVirtualTypePatterns:
    def test_class_and_interface_selection(self):
        text = "class A { }\ninterface I { int ping(); }\nclass B { }"
        project, _ = load_project("mixed", [("M.mj", text)])
        classes = select(project, single("ClassDeclaration", "c")).rows
        interfaces = select(project, single("InterfaceDeclaration", "i")).rows
        both = select(project, single("TypeDeclaration", "t")).rows
        names = lambda rows, var: [
            project.node(r[var]).props["name"] for r in rows
        ]
        assert names(classes, "c") == ["A", "B"]
        assert names(interfaces, "i") == ["I"]
        assert names(both, "t") == ["A", "I", "B"]

    def test_getter_query_skips_interfaces_without_crashing(self):
        # The body accessor would dereference undefined on a bodiless
        # interface method; the class-check conjunct must short-circuit.
        from craql import bundled_query_path

        text = "interface I { int ping(); }\nclass C { int n; int getN() { return n; } }"
        project, _ = load_project("iface", [("M.mj", text)])
        _, sink, _ = run_document(
            project, bundled_query_path("getters.craql").read_text()
        )
        assert sink.prints == ["int getN() { return n; } is a getter"]
