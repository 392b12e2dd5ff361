import random
import re

import pytest

from craql import (
    BUNDLED_QUERIES,
    MINILANG_SCHEMA,
    Environment,
    Evaluator,
    OutputSink,
    ProjectAst,
    bundled_query_path,
    deserialize_project,
    load_project,
    parse_query_document,
    serialize_project,
)
from craql.engine.evaluator import QueryRuntimeError
from craql.engine.links import split_where
from craql.engine.runtime import NodeList, NodeRef
from craql.oracle import compare, oracle_select, replay_capture, where_from_expr
from craql.query.ast import (
    Call,
    ELLIPSIS,
    INPUT_DEFAULT,
    INPUT_DIRECTLY_IN,
    INPUT_IN,
    Infix,
    InputSpec,
    IntLit,
    MOD_INMOST,
    MOD_NONE,
    MOD_OUTMOST,
    Pattern,
    SINGLE,
    STAR,
    SelectQuery,
    TypeLit,
    VarRef,
)
from craql.fixtures import (
    STATIC_FIXTURES,
    fixture_text,
    generate_block_sea,
    generate_nested_blocks,
    generate_random_source,
)

from conftest import child_ids, descendants_preorder, find_node, record_document, run_document


def select_with_stats(project, pattern, modifier=MOD_NONE, input_spec=None, where=None,
                      env=None):
    """The select's rows and the evaluator's counters once it has run."""
    query = SelectQuery(pattern, modifier, input_spec or InputSpec(INPUT_DEFAULT), where, [])
    evaluator = Evaluator(project, env or Environment(), OutputSink())
    return evaluator.run_select(query), evaluator.stats


def select(*args, **kwargs):
    return select_with_stats(*args, **kwargs)[0]


def single(type_name, var="n"):
    return Pattern(SINGLE, type_name, var)


class TestSelectSingle:
    def test_all_blocks_in_sample(self, sample_project):
        rows = select(sample_project, single("Block"))
        assert len(rows) == 3

    def test_inmost_blocks_in_sample(self, sample_project):
        rows = select(sample_project, single("Block"), MOD_INMOST)
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
        )
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
        )
        ids = [r["n"] for r in rows]
        assert greet_body.id not in ids
        assert len(ids) == 1  # the while body

    def test_default_input_includes_matching_root(self, sample_project):
        rows = select(sample_project, single("CompilationUnit"))
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
        rows = select(sample_project, single("Statement"))
        starts = [sample_project.node(r["n"]).start for r in rows]
        assert starts == sorted(starts)

    def test_empty_project_yields_nothing(self):
        project, _ = load_project("empty", [])
        assert select(project, single("Block")) == []

    def test_node_list_input_deduplicates_rows(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        env = Environment({"pair": NodeList((greet_body.id, greet_body.id))})
        rows = select(
            sample_project, single("Statement", "s"),
            input_spec=InputSpec(INPUT_IN, VarRef("pair")), env=env,
        )
        ids = [r["s"] for r in rows]
        assert len(ids) == len(set(ids))

    def test_overlapping_node_list_input_yields_each_row_once(self, sample_project):
        # The greet body lies inside the greet method: its statements are
        # reached from both inputs but become rows only the first time.
        greet = find_node(sample_project, "MethodDeclaration", "void greet")
        greet_body = find_node(sample_project, "Block", "int i = 0")
        _, sink, evaluator = run_document(
            sample_project,
            'select ({Statement} s) in xs { print(s.nodetype() + " " + s.linenumber()); }',
            seed={"xs": NodeList((greet.id, greet_body.id))},
        )
        assert sink.prints == [
            "Block 4", "VariableDeclarationStatement 5", "ExpressionStatement 6",
            "VariableDeclarationStatement 7", "WhileStatement 8", "Block 8",
            "ExpressionStatement 9",
        ]
        assert (evaluator.stats.nodes_visited, evaluator.stats.rows_yielded) == (43, 7)

    def test_undefined_input_is_empty(self, sample_project):
        rows = select(
            sample_project, single("Block"),
            input_spec=InputSpec(INPUT_IN, VarRef("nothing")),
        )
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
        )
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
        )
        assert [sample_project.node(r["s"]).type for r in rows] == ["Block"]


    def test_seen_accepted_row_still_prunes(self, sample_project):
        # The second copy of the input reaches the while statement again: it
        # is no new row, but the nodes below it stay hidden all the same.
        greet_body = find_node(sample_project, "Block", "int i = 0")
        _, sink, evaluator = run_document(
            sample_project,
            'select outmost ({Statement} s) in xs { print(s.nodetype() + " " + s.linenumber()); }',
            seed={"xs": NodeList((greet_body.id, greet_body.id))},
        )
        assert sink.prints == [
            "VariableDeclarationStatement 5", "ExpressionStatement 6",
            "VariableDeclarationStatement 7", "WhileStatement 8",
        ]
        assert (evaluator.stats.nodes_visited, evaluator.stats.rows_yielded) == (10, 4)

    def test_seen_row_prunes_whatever_the_clause_says_now(self):
        # The second copy of brk() reaches its body block (line 6) again,
        # now with count(*) at 1, so the clause fails there; the block was
        # a row, so the statements below it stay hidden, as in the oracle.
        project, _ = load_project("escapes", [("U.mj", fixture_text("Unreachable.mj"))])
        brk = find_node(project, "MethodDeclaration", "void brk").id
        doc = parse_query_document(
            "select outmost ({Statement} s) in x "
            "where count(*) < 1 || s.linenumber() > 7 { print(s.linenumber()); }")
        sink, captures = OutputSink(), []
        evaluator = Evaluator(project, Environment({"x": NodeList((brk, brk))}), sink)
        evaluator.trace = captures.append
        evaluator.execute_document(doc)
        assert sink.prints == ["6"]
        (capture,) = captures
        assert compare(project, capture.rows, replay_capture(project, capture)).empty


class TestSelectStar:
    def test_blocks_pair_once_in_sample(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        rows = select(
            sample_project, Pattern(STAR, "Block", "x", "Block", "y")
        )
        assert [(r["x"], r["y"]) for r in rows] == [(greet_body.id, while_body.id)]

    def test_no_self_pairing(self, sample_project):
        rows = select(sample_project, Pattern(STAR, "Block", "x", "Block", "y"))
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
        )
        keys = [
            (sample_project.node(r["x"]).start, sample_project.node(r["y"]).start)
            for r in rows
        ]
        assert keys == sorted(keys)


class TestSelectEllipsis:
    def test_deepest_block_in_sample(self, sample_project):
        greet = find_node(sample_project, "MethodDeclaration", "void greet")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        rows = select(
            sample_project, Pattern(ELLIPSIS, "MethodDeclaration", "m", "Block", "b")
        )
        assert [(r["m"], r["b"]) for r in rows] == [(greet.id, while_body.id)]

    def test_all_ties_returned(self):
        project, _ = load_project(
            "tie", [("T.mj", 'class T { void a() { log("x"); } void b() { log("y"); } }')]
        )
        rows = select(project, Pattern(ELLIPSIS, "MethodDeclaration", "m", "Block", "b"))
        assert len(rows) == 2

    def test_count_star_counts_survivors_then_kept_rows(self, sample_project):
        # In the where clause count(*) is the number of pairs that passed so
        # far; in the body it restarts and counts the deepest pairs kept.
        _, sink, evaluator = run_document(
            sample_project,
            "select ({MethodDeclaration} m ... {Statement} s) "
            "where print(count(*)) || count(*) < 4 "
            '{ print("body " + count(*) + " " + s.linenumber()); }',
        )
        assert sink.prints == ["0", "1", "2", "3", "4", "4", "4", "4", "4",
                               "body 1 3", "body 2 5"]
        assert (evaluator.stats.nodes_visited, evaluator.stats.rows_yielded) == (54, 2)

    def test_empty_when_no_pairs(self, sample_project):
        rows = select(
            sample_project, Pattern(ELLIPSIS, "WhileStatement", "w", "ForStatement", "f")
        )
        assert rows == []


class TestStatsAndPruning:
    def test_visited_at_least_rows(self, sample_project):
        _, stats = select_with_stats(sample_project, single("Statement"))
        assert stats.nodes_visited >= stats.rows_yielded

    def test_pruning_reduces_visits_on_deep_nesting(self):
        project, _ = load_project("deep", [("Deep.mj", generate_nested_blocks(10))])
        body = next(
            n for n in project.nodes
            if n.type == "Block" and project.node(n.parent).type == "MethodDeclaration"
        )
        env = Environment({"r": NodeRef(body.id)})
        _, pruned = select_with_stats(
            project, single("Block", "b"), MOD_OUTMOST,
            InputSpec(INPUT_DIRECTLY_IN, VarRef("r")), env=env,
        )
        env = Environment({"r": NodeRef(body.id)})
        _, plain = select_with_stats(
            project, single("Block", "b"), MOD_NONE,
            InputSpec(INPUT_IN, VarRef("r")), env=env,
        )
        assert pruned.nodes_visited < plain.nodes_visited

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
        _, stats = select_with_stats(sample_project, pattern, modifier, input_spec, env=env)
        assert (stats.nodes_visited, stats.rows_yielded) == expected

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

    def test_count_star_after_nested_select_counts_outer_rows(self, sample_project):
        # A nested select counts its own rows; once it ends, count(*) in the
        # outer body reads the outer select's rows again.
        _, sink, _ = run_document(
            sample_project,
            'select ({MethodDeclaration} m) { print("before " + count(*)); '
            'select ({Statement} s) in m { print("inner " + count(*)); } '
            'print("after " + count(*)); }',
        )
        assert sink.prints == [
            "before 1", "inner 1", "inner 2", "after 1",
            "before 2", "inner 1", "inner 2", "inner 3", "inner 4", "inner 5", "inner 6",
            "inner 7", "after 2",
        ]
        # The same for an ellipsis select, whose body runs after its where
        # clause has counted every passing pair.
        project, _ = load_project(
            "tie", [("T.mj", 'class T { void a() { log("x"); } void b() { log("y"); } }')]
        )
        _, sink, _ = run_document(
            project,
            "select ({MethodDeclaration} m ... {Block} b) { "
            'select ({Statement} s) in b { } print("after " + count(*)); }',
        )
        assert sink.prints == ["after 1", "after 2"]

    def test_candidate_reached_twice_does_not_advance_count_star(self, sample_project):
        # The greet body lies inside the greet method, so its six statements
        # are reached twice: the where clause runs again, but no row is added.
        greet = find_node(sample_project, "MethodDeclaration", "void greet")
        greet_body = find_node(sample_project, "Block", "int i = 0")
        _, sink, _ = run_document(
            sample_project,
            'select ({Statement} s) in xs where print("where " + count(*)) || true '
            '{ print("body " + count(*)); }',
            seed={"xs": NodeList((greet.id, greet_body.id))},
        )
        assert sink.prints == [
            line for i in range(7) for line in (f"where {i}", f"body {i + 1}")
        ] + ["where 7"] * 6
        # An ellipsis select counts each passing pair once, the pairs of a
        # repeated input node included.
        root = sample_project.roots[0]
        _, sink, _ = run_document(
            sample_project,
            "select ({MethodDeclaration} m ... {Statement} s) in xs "
            'where print("where " + count(*)) || true { print("body " + count(*)); }',
            seed={"xs": NodeList((root, root))},
        )
        assert sink.prints == [f"where {i}" for i in range(9)] + ["where 9"] * 9 + ["body 1"]

    def test_modifier_rows_are_subsets(self, sample_project):
        base = {r["n"] for r in select(sample_project, single("Statement"))}
        outer = {r["n"] for r in select(sample_project, single("Statement"), MOD_OUTMOST)}
        inner = {r["n"] for r in select(sample_project, single("Statement"), MOD_INMOST)}
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
            )
            assert captured == [(r["m"], r["s"]) for r in star_rows]


class TestVirtualTypePatterns:
    def test_class_and_interface_selection(self):
        text = "class A { }\ninterface I { int ping(); }\nclass B { }"
        project, _ = load_project("mixed", [("M.mj", text)])
        classes = select(project, single("ClassDeclaration", "c"))
        interfaces = select(project, single("InterfaceDeclaration", "i"))
        both = select(project, single("TypeDeclaration", "t"))
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


# ---------------------------------------------------------------------------
# The region scan against the oracle and against walks of the tree.
# ---------------------------------------------------------------------------

SCAN_TYPES = ("Statement", "Block", "MethodInvocation", "Expression", "ClassDeclaration")
INPUT_CONTAINERS = ("CompilationUnit", "TypeDeclaration", "MethodDeclaration", "Block",
                    "IfStatement", "WhileStatement", "ForStatement")


@pytest.fixture(scope="module")
def random_projects():
    rng = random.Random(41)
    projects = []
    for i in range(4):
        sources = [
            (f"R{i}_{j}.mj",
             generate_random_source(rng, classes=rng.randint(1, 2), max_depth=rng.randint(3, 5)))
            for j in range(4)
        ]
        project, diagnostics = load_project(f"random{i}", sources)
        assert not diagnostics
        projects.append(project)
    return projects


def input_cases(project):
    """(input spec, env, input nodes, include_root, directly) for each input kind."""
    rng = random.Random(project.name)
    containers = [n.id for n in project.nodes if n.type in INPUT_CONTAINERS]
    picked = rng.sample(containers, min(8, len(containers)))
    picked.append(picked[0])  # a repeated input node must not repeat rows
    env = {"x": NodeList(tuple(picked))}
    return [
        (InputSpec(INPUT_DEFAULT), {}, list(project.roots), True, False),
        (InputSpec(INPUT_IN, VarRef("x")), env, picked, False, False),
        (InputSpec(INPUT_DIRECTLY_IN, VarRef("x")), env, picked, False, True),
    ]


def parent_chain(project, node_id):
    """Proper ancestors of node_id, nearest first, by parent links."""
    out, cur = [], project.node(node_id).parent
    while cur is not None:
        out.append(cur)
        cur = project.node(cur).parent
    return out


def walk_visits(project, query, roots, include_root, directly, accepts):
    """nodes_visited of the pruned pre-order walk that the scan replaces.

    `accepts(n)` tells whether the where clause accepts a candidate n.
    """
    pat = query.pattern
    visits = 0
    for root in roots:
        cut = False

        def prune(n):
            same_type = project.node(n).type == project.node(root).type
            return cut or (directly and n != root and same_type)

        for n in descendants_preorder(project, root, prune):
            visits += 1
            candidate = (n != root or include_root) and project.matches_type(n, pat.type1)
            if pat.kind != SINGLE:
                if candidate:
                    visits += sum(1 for _ in descendants_preorder(project, n)) - 1
            else:
                cut = query.modifier == MOD_OUTMOST and candidate and accepts(n)
    return visits


def check_against_references(project, query, case):
    spec, seed, roots, include_root, directly = case
    evaluator = Evaluator(project, Environment(dict(seed)), OutputSink())
    rows = evaluator.run_select(query)
    pat = query.pattern
    types = (pat.type1,) if pat.kind == SINGLE else (pat.type1, pat.type2)
    where_fn = where_from_expr(project, query.where, dict(seed))
    oracle = oracle_select(project, pat.kind, types, pat.variables(), query.modifier,
                           roots, include_root, directly, where_fn)
    label = (project.name, pat, query.modifier, spec.kind, query.where)
    assert compare(project, rows, oracle).empty, label
    accepts = (lambda n: True) if where_fn is None else (lambda n: where_fn({pat.var1: n}, 0))
    expected = walk_visits(project, query, roots, include_root, directly, accepts)
    assert evaluator.stats.nodes_visited == expected, label
    assert evaluator.stats.rows_yielded == len(rows), label


class TestRegionScan:
    @pytest.mark.parametrize("input_kind", [0, 1, 2])
    def test_single_patterns(self, random_projects, input_kind):
        deep = Infix(">", Call("depth", VarRef("n"), []), IntLit(5))
        for project in random_projects:
            case = input_cases(project)[input_kind]
            for type_name in SCAN_TYPES:
                for modifier in (MOD_NONE, MOD_OUTMOST, MOD_INMOST):
                    for where in (None, deep):
                        query = SelectQuery(single(type_name), modifier, case[0], where, [])
                        check_against_references(project, query, case)

    @pytest.mark.parametrize("kind", [STAR, ELLIPSIS])
    @pytest.mark.parametrize("input_kind", [0, 1, 2])
    def test_pair_patterns(self, random_projects, kind, input_kind):
        for project in random_projects[:2]:
            case = input_cases(project)[input_kind]
            for outer in SCAN_TYPES:
                for inner in SCAN_TYPES:
                    for modifier in (MOD_NONE, MOD_OUTMOST, MOD_INMOST):
                        pattern = Pattern(kind, outer, "a", inner, "b")
                        query = SelectQuery(pattern, modifier, case[0], None, [])
                        check_against_references(project, query, case)

    def test_node_functions_match_parent_walks(self, random_projects):
        for project in random_projects:
            rng = random.Random(project.name)
            chains = {n.id: parent_chain(project, n.id) for n in project.nodes}
            evaluator = Evaluator(project, Environment(), OutputSink())

            def call(name, *args):
                return evaluator.eval(Call(name, VarRef("a"), list(args)))

            def directly_below(a, n):
                chain = chains[n]
                if a not in chain:
                    return False
                between = chain[: chain.index(a)]
                return all(project.node(k).type != project.node(a).type for k in between)

            for a in rng.sample(range(len(project.nodes)), 30):
                evaluator.env.set("a", NodeRef(a))
                assert call("depth") == len(chains[a])
                below = [n for n in chains if a in chains[n]]
                others = rng.sample(range(len(project.nodes)), 20)
                for n in below[:40] + others:
                    evaluator.env.set("n", NodeRef(n))
                    assert call("contains", VarRef("n")) == (n in below), (a, n)
                    assert call("directly_contains", VarRef("n")) == directly_below(a, n), (a, n)
                    assert call("isparent", VarRef("n")) == (n in child_ids(project, a))
                for type_name in SCAN_TYPES + ("Block", "ReturnStatement", "Name"):
                    matching = [n for n in below if project.matches_type(n, type_name)]
                    assert call("contains", TypeLit(type_name)) == bool(matching)
                    assert call("directly_contains", TypeLit(type_name)) == any(
                        directly_below(a, n) for n in matching)

    def test_region_index_invariants(self, random_projects):
        for project in random_projects:
            index, count = project.index, len(project.nodes)
            # Naive references: parents from the child lists, each node's
            # depth as the number of walks from other nodes that reach it, and
            # ranks from one walk per parentless node.
            parents = [None] * count
            for n in range(count):
                for child in child_ids(project, n):
                    parents[child] = n
            depth = [0] * count
            for n in range(count):
                for below in descendants_preorder(project, n):
                    depth[below] += below != n
            order = [below for n in range(count) if parents[n] is None
                     for below in descendants_preorder(project, n)]
            by_type = {}
            for rank, n in enumerate(order):
                by_type.setdefault(project.node(n).type, []).append(rank)
            assert project.parent == parents
            assert index.order == order
            assert index.depth == depth
            assert index.by_type == by_type
            for n in range(count):
                assert index.order[index.pre[n]] == n
                assert index.end[n] - index.pre[n] == sum(1 for _ in descendants_preorder(project, n))
            for type_name in SCAN_TYPES + ("CompilationUnit", "InterfaceDeclaration"):
                assert project.type_ranks(type_name) == sorted(
                    index.pre[n] for n in range(len(project.nodes))
                    if project.matches_type(n, type_name)
                )

    def test_serialized_round_trip_keeps_links_index_and_rows(self, random_projects):
        texts = {name: bundled_query_path(name).read_text() for name in BUNDLED_QUERIES}
        for project in random_projects:
            clone = deserialize_project(serialize_project(project))
            assert clone.parent == project.parent
            for table in ("order", "pre", "end", "depth", "by_type"):
                assert getattr(clone.index, table) == getattr(project.index, table), table
            for type_name in SCAN_TYPES:
                assert select(clone, single(type_name)) == select(project, single(type_name))
            for name, text in texts.items():
                _, sink, _ = run_document(project, text, source=name)
                _, clone_sink, _ = run_document(clone, text, source=name)
                assert (clone_sink.prints, clone_sink.rows) == (sink.prints, sink.rows), name


class TestWalkGuard:
    def test_bundled_queries_make_a_linear_number_of_steps(self, monkeypatch):
        """Type tests stay within (query type names + 2) x nodes.

        Selects that walked their whole input, once per outer row, made about
        186 type tests and walk steps per node on this project; a
        deterministic count, not a timing, so a return to per-select type
        tests fails here.
        """
        steps = 0
        matches_type = ProjectAst.matches_type

        def counted_matches_type(project, node_id, type_name):
            nonlocal steps
            steps += 1
            return matches_type(project, node_id, type_name)

        monkeypatch.setattr(ProjectAst, "matches_type", counted_matches_type)

        rng = random.Random(5)
        sources = [(f"G{i}.mj", generate_random_source(rng, classes=2, max_depth=4))
                   for i in range(8)]
        project, _ = load_project("guard", sources)
        texts = [bundled_query_path(name).read_text() for name in BUNDLED_QUERIES]
        code = [re.sub(r"//.*", "", text) for text in texts]
        type_names = {t for text in code for t in re.findall(r"\{([A-Z]\w*)\}", text)}
        env = Environment()
        for name, text in zip(BUNDLED_QUERIES, texts):
            doc = parse_query_document(text, source=name)
            Evaluator(project, env, OutputSink(), source=name).execute_document(doc)
        assert len(type_names) == 16
        assert steps <= (len(type_names) + 2) * len(project.nodes)


class TestColumns:
    """Both loaders fill the same node columns, and `kids` is what the
    props say."""

    COLUMNS = ("type", "file", "start", "end", "line", "parent", "kids", "props")

    @staticmethod
    def projects():
        for name in STATIC_FIXTURES:
            yield load_project(name, [(name, fixture_text(name))])[0]
        rng = random.Random(6)
        for i in range(3):
            sources = [(f"G{i}_{j}.mj", generate_random_source(rng, classes=2, max_depth=4))
                       for j in range(4)]
            yield load_project(f"random{i}", sources)[0]

    def test_both_loaders_fill_equal_columns(self):
        # The MiniLang load, its column document and its record document,
        # written by the tests' own record writer, load to one project.
        for project in self.projects():
            for document in (serialize_project(project), record_document(project)):
                clone = deserialize_project(document)
                for column in self.COLUMNS:
                    assert getattr(clone, column) == getattr(project, column), \
                        (project.name, column)
                for table in ("order", "pre", "end", "depth", "by_type"):
                    assert getattr(clone.index, table) == getattr(project.index, table), table
                assert clone.roots == project.roots
                assert clone.bindings.method == project.bindings.method
                assert clone.bindings.type == project.bindings.type
                assert clone.files == project.files

    def test_kids_flatten_the_props_in_schema_order(self):
        for project in self.projects():
            clone = deserialize_project(serialize_project(project))
            for loaded in (project, clone):
                assert loaded.kids == [child_ids(loaded, n) or () for n in range(len(loaded.type))]
                assert len({id(kids) for kids in loaded.kids if not kids}) == 1


# ---------------------------------------------------------------------------
# Link-keyed selects: candidates looked up through a binding or parent link
# must be the scan's candidates that the link key accepts.
# ---------------------------------------------------------------------------

# Generated sources make no call the binder resolves, so the fixtures with
# resolved calls join them.
CALL_FIXTURES = ("AB.mj", "Chain.mj", "Fact.mj", "Linked.mj")

# (pattern type, where clause over pattern variable n and fixed node v,
# which nodes v is drawn from).
LINK_FORMS = [
    ("MethodInvocation", "v == n.methodbinding()", "method target"),
    ("Expression", "n.methodbinding() == v", "method target"),
    ("Expression", "v == n.typebinding()", "type target"),
    ("Name", "n.typebinding() == v", "type target"),
    ("MethodInvocation", "v.isparent(n.methodbinding())", "method owner"),
    ("Statement", "v.isparent(n)", "container"),
    ("Expression", "v == n.parent()", "container"),
    ("Block", "n.parent() == v", "container"),
    ("MethodInvocation",
     "!v.contains(n) && v.isparent(n.methodbinding()) && n.depth() > 3", "method owner"),
    ("Statement", "!n.isnodetype({Block}) && v.isparent(n) && n.position() > 40", "container"),
    ("MethodInvocation", "n.depth() > 3 && v == n.methodbinding()", "method target"),
]


@pytest.fixture(scope="module")
def bound_projects():
    rng = random.Random(43)
    projects = []
    for i in range(3):
        sources = [(f"L{i}_{j}.mj", generate_random_source(rng, classes=2, max_depth=4))
                   for j in range(3)]
        sources += [(name, fixture_text(name)) for name in CALL_FIXTURES]
        project, diagnostics = load_project(f"bound{i}", sources)
        assert not diagnostics
        assert project.bindings.method
        projects.append(project)
    return projects


def fixed_nodes(project, kind):
    """Up to five nodes for v, plus one that nothing links to."""
    rng = random.Random(f"{project.name} {kind}")
    if kind == "method target":
        pool = sorted(set(project.bindings.method.values()))
    elif kind == "type target":
        pool = sorted(set(project.bindings.type.values()))
    elif kind == "method owner":
        pool = sorted({project.node(d).parent for d in project.bindings.method.values()})
    else:
        pool = [n.id for n in project.nodes if n.type in INPUT_CONTAINERS]
    leaf = next(n.id for n in project.nodes if n.type == "NumberLiteral")
    return rng.sample(pool, min(5, len(pool))) + [leaf]


def where_clause(text):
    return parse_query_document(f"select ({{Block}} n) where {text} {{ }}").entry.where


class TestLinkKeys:
    @pytest.mark.parametrize("input_kind", [0, 1, 2])
    def test_lookup_matches_oracle_and_walk(self, bound_projects, input_kind, monkeypatch):
        # Default and `in x` inputs (x lists overlapping nodes and one node
        # twice) take the lookup once per select; `directly in` never does.
        link_ranks = Evaluator._link_ranks
        lookups = []

        def counted_link_ranks(*args):
            lookups.append(args)
            return link_ranks(*args)

        monkeypatch.setattr(Evaluator, "_link_ranks", counted_link_ranks)
        selects = 0
        for project in bound_projects:
            spec, seed, roots, include_root, directly = input_cases(project)[input_kind]
            for type_name, text, kind in LINK_FORMS:
                query = SelectQuery(single(type_name), MOD_NONE, spec, where_clause(text), [])
                for v in fixed_nodes(project, kind):
                    case = (spec, {**seed, "v": NodeRef(v)}, roots, include_root, directly)
                    check_against_references(project, query, case)
                    selects += 1
        assert len(lookups) == (0 if directly else selects) and selects > 0

    @pytest.mark.parametrize("in_x", [False, True])
    def test_lookup_matches_scan_with_body(self, bound_projects, in_x):
        # `true && ...` has no link key, so it runs the same select by scan:
        # prints, rows, count(*), counters and the variables left behind
        # (the pattern variable included) must all agree.
        for project in bound_projects:
            spec, seed, *_ = input_cases(project)[int(in_x)]
            source = " in x" if in_x else ""
            for type_name, text, kind in LINK_FORMS:
                for v in fixed_nodes(project, kind):
                    outputs = []
                    for where in (text, f"true && {text}"):
                        env, sink, evaluator = run_document(
                            project,
                            f"select ({{{type_name}}} n){source} where {where} "
                            '{ hits++; print(n.linenumber() + " " + count(*)); }',
                            seed={**seed, "v": NodeRef(v)},
                        )
                        outputs.append((sink.prints, sink.rows, env.variables,
                                        evaluator.stats))
                    assert outputs[0] == outputs[1], (project.name, text, v)

    def test_reverse_index_is_built_on_first_lookup(self):
        project, _ = load_project("fact", [("Fact.mj", fixture_text("Fact.mj"))])
        decl = find_node(project, "MethodDeclaration", "int fact")
        call = find_node(project, "MethodInvocation", "fact(n - 1)")
        run_document(project, "select ({MethodDeclaration} m) { select ({Block} b) { } }")
        assert project.index.bound == {}
        _, sink, _ = run_document(
            project, "select ({MethodDeclaration} m) { "
            "select ({MethodInvocation} i) where m == i.methodbinding() { print(i); } }")
        assert sink.prints == ["fact(n - 1)"]
        assert project.index.bound == {"method": {decl.id: [project.index.pre[call.id]]}}


CALLS = """class C {
  void a() {
  }
  void b() {
    a();
    a();
    b();
    log("x");
  }
}
"""

IN_A = 'select ({MethodDeclaration} m) where m.name == "a" { %s }'


class TestLinkKeyFallbacks:
    """Selects that must scan, though their where clause has a link key.

    Each case gives what the scan gives. A lookup from m's first value would
    print 5 and 6, the lines of the two calls of a(), where m is a(); where
    m is class C, which no call is bound to, it would give no row and raise
    nothing.
    """

    @pytest.fixture(scope="class")
    def calls(self):
        project, diagnostics = load_project("calls", [("C.mj", CALLS)])
        assert not diagnostics
        return project

    def run(self, project, text, **seed):
        return run_document(project, text, seed=seed)[1].prints

    def test_lookup_when_nothing_interferes(self, calls):
        text = IN_A % "select ({MethodInvocation} i) where m == i.methodbinding() " \
                      "{ print(i.linenumber()); }"
        assert self.run(calls, text) == ["5", "6"]

    def test_undefined_variable_selects_unbound_calls(self, calls):
        # undefined == undefined: the rows are the calls with no binding.
        text = "select ({MethodInvocation} i) where nothing == i.methodbinding() " \
               "{ print(i.linenumber()); }"
        assert self.run(calls, text) == ["8"]
        query = parse_query_document(text).entry
        check_against_references(calls, query, (query.input, {}, list(calls.roots), True, False))

    def test_string_variable(self, calls):
        text = 'select ({MethodInvocation} i) where s == i.methodbinding() { print("row"); }'
        assert self.run(calls, text, s="a") == []
        with pytest.raises(QueryRuntimeError, match=r":1:39: isparent\(\) receiver is a string"):
            self.run(calls, 'select ({MethodInvocation} i) where s.isparent(i) { }', s="a")

    def test_body_assigns_the_variable(self, calls):
        text = IN_A % "select ({MethodInvocation} i) where m == i.methodbinding() " \
                      "{ print(i.linenumber()); m = i.parent().parent().parent(); }"
        assert self.run(calls, text) == ["5", "7"]

    def test_nested_select_rebinds_the_variable(self, calls):
        # The nested select leaves m bound to b(), whose call then matches.
        a = find_node(calls, "MethodDeclaration", "void a")
        text = "select ({MethodInvocation} i) where m == i.methodbinding() " \
               "{ print(i.linenumber()); select ({MethodDeclaration} m) { } }"
        assert self.run(calls, text, m=NodeRef(a.id)) == ["5", "7"]

    def test_callquery_in_the_body(self, calls):
        text = IN_A % "select ({MethodInvocation} i) where m == i.methodbinding() " \
                      "{ print(i.linenumber()); callquery(last); }"
        text += "\nlast : select ({MethodDeclaration} m) { }"
        assert self.run(calls, text) == ["5", "7"]

    def test_prefix_that_prints(self, calls):
        text = IN_A % "select ({MethodInvocation} i) " \
                      "where (print(i.linenumber()) || true) && m == i.methodbinding() " \
                      '{ print("row"); }'
        assert self.run(calls, text) == ["5", "row", "6", "row", "7", "8"]

    @pytest.mark.parametrize("prefix, seed, error", [
        ("i.position() < m", {}, ":1:81: arithmetic on a node"),
        ("!s.contains(i)", {"s": "a"}, r":1:71: contains\(\) receiver is a string"),
        ("i.isnodetype(m)", {}, r":1:70: isnodetype\(\) expects a node type"),
        ("!i.isnodetype({Blok})", {}, ":1:82: unknown node type Blok"),
    ])
    def test_prefix_that_raises(self, calls, prefix, seed, error):
        text = "select ({TypeDeclaration} m) { select ({MethodInvocation} i) " \
               f"where {prefix} && m == i.methodbinding() {{ }} }}"
        with pytest.raises(QueryRuntimeError, match=error):
            self.run(calls, text, **seed)

    def test_body_assigns_a_probed_variable(self, calls):
        # After the last call of a(), s is a string: the next candidate the
        # scan reaches raises.
        text = IN_A % "select ({MethodInvocation} i) " \
                      "where !s.contains(i) && m == i.methodbinding() " \
                      '{ if (i.linenumber() == 6) { s = "x"; } }'
        with pytest.raises(QueryRuntimeError, match=r"contains\(\) receiver is a string"):
            self.run(calls, text)


def unsplit(text):
    """`text` with its first where clause `W` as `true && (W)`, which no
    plan splits into a link key, hoisted conjuncts and the rest."""
    return re.sub(r"where (.*?) \{", r"where true && (\1) {", text, count=1)


class TestHoistFallbacks:
    """Conjuncts that mention no pattern variable but must still run per
    candidate, and selects whose hoisted conjunct fails.

    Each case gives what the unsplit clause gives: prints, errors (but for
    their column), `nodes_visited` and the variables left behind, the
    pattern variable's last binding included. In `ret()` of Unreachable.mj,
    `in m` reaches its body block (line 2), `return 1;` (3) and the `log`
    call (4); r starts as that return statement.
    """

    @pytest.fixture(scope="class")
    def escapes(self):
        project, diagnostics = load_project("escapes", [("U.mj", fixture_text("Unreachable.mj"))])
        assert not diagnostics
        return project

    def seed(self, project):
        return {"r": NodeRef(find_node(project, "ReturnStatement").id),
                "m": NodeRef(find_node(project, "MethodDeclaration", "int ret").id)}

    def run(self, project, text, **seed):
        seed = {**self.seed(project), **seed}
        outcomes = []
        for version in (text, unsplit(text)):
            try:
                env, sink, evaluator = run_document(project, version, seed=seed)
                outcomes.append((sink.prints, evaluator.stats.nodes_visited, env.variables))
            except QueryRuntimeError as exc:
                outcomes.append(re.sub(r":\d+:\d+:", ":", str(exc)))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            raise QueryRuntimeError(outcomes[0])
        return outcomes[0][0]

    def test_body_assigns_the_variable(self, escapes):
        text = "select ({Statement} s) in m where r.isnodetype({ReturnStatement}) " \
               "{ print(s.linenumber()); r = s; }"
        assert self.run(escapes, text) == ["2"]

    def test_nested_select_rebinds_the_variable(self, escapes):
        text = "select ({Statement} s) in m where r.isnodetype({ReturnStatement}) " \
               "{ print(s.linenumber()); select ({Statement} r) in s { } }"
        assert self.run(escapes, text) == ["2"]

    def test_callquery_in_the_body(self, escapes):
        text = "select ({Statement} s) in m where r.isnodetype({ReturnStatement}) " \
               "{ print(s.linenumber()); callquery(last) in s; }\n" \
               "last : select ({Statement} r) { }"
        assert self.run(escapes, text) == ["2"]

    def test_conjunct_that_prints(self, escapes):
        text = 'select ({Statement} s) in m where print("w") == 1 { }'
        assert self.run(escapes, text) == ["w", "w", "w"]

    def test_conjunct_that_raises_only_on_a_candidate(self, escapes):
        text = 'select ({Statement} s) in %s where r.position() < "a" { }'
        assert self.run(escapes, text % "r") == []
        with pytest.raises(QueryRuntimeError, match="arithmetic on a string"):
            self.run(escapes, text % "m")

    @pytest.mark.parametrize("prefix, seed, error", [
        ("v.position() < s.position()", {"v": "a"}, r"position\(\) receiver is a string"),
        ("v.position() < s.position()", {}, r"position\(\) receiver is undefined"),
        ("!v.contains(s)", {"v": "a"}, r"contains\(\) receiver is a string"),
        ("!v.contains(s)", {"v": NodeList((1,))}, r"contains\(\) receiver is a node list"),
    ])
    def test_earlier_conjunct_that_can_raise(self, escapes, prefix, seed, error):
        text = f"select ({{Statement}} s) in m where {prefix} && r.isnodetype({{IfStatement}}) {{ }}"
        with pytest.raises(QueryRuntimeError, match=error):
            self.run(escapes, text, **seed)

    def test_count_star(self, escapes):
        text = "select ({Statement} s) in m where count(*) < 2 { print(s.linenumber()); }"
        assert self.run(escapes, text) == ["2", "3"]

    @pytest.mark.parametrize("select, prints", [
        ("select outmost ({Statement} s) directly in m where r.isnodetype({IfStatement})",
         ["4", "11", "16", "21", "26"]),
        ("select outmost ({Statement} s) in b where r.isnodetype({IfStatement})",
         ["4", "11", "9", "16", "16", "21", "26", "26"]),
        ("select inmost ({Statement} s) directly in m where r.isnodetype({IfStatement})",
         ["4", "11", "16", "21", "26"]),
        ("select inmost ({Statement} s) directly in b where !r.isnodetype({ReturnStatement})",
         ["4", "11", "9", "9", "16", "21", "24", "26"]),
    ])
    def test_failed_hoist_leaves_the_walk(self, escapes, select, prints, monkeypatch):
        # Each select accepts nothing; s stays bound to the last candidate
        # its walk reached, which the outer body prints.
        source = "b" if " in b " in select else "m"
        outer = "{Block} b" if source == "b" else "{MethodDeclaration} m"
        text = f"select ({outer}) {{ {select} {{ }} print(s.linenumber()); }}"
        assert self.run(escapes, text) == prints
        tests = 0
        matches_type = ProjectAst.matches_type

        def counted(project, node_id, type_name):
            nonlocal tests
            tests += 1
            return matches_type(project, node_id, type_name)

        monkeypatch.setattr(ProjectAst, "matches_type", counted)
        for version in (text, unsplit(text)):
            tests = 0
            run_document(escapes, version, seed=self.seed(escapes))
            # Hoisted, the probe runs once per inner select.
            assert (tests == len(prints)) == (version == text)

    @pytest.mark.parametrize("body, prints", [
        ("while (s.linenumber() > 9) { r += 1; }", ["2", "3", "4"]),
        ("if (s.linenumber() == 2) { select ({ReturnStatement} t) in s "
         "{ select ({Statement} r) in s { } } }", ["2"]),
    ])
    def test_body_writes_the_probed_variable_at_depth(self, escapes, body, prints):
        # A `+=` inside a while, and a pattern variable of a select nested
        # inside another select inside an if, both count as written.
        text = "select ({Statement} s) in m where r.isnodetype({ReturnStatement}) " \
               f"{{ print(s.linenumber()); {body} }}"
        assert self.run(escapes, text) == prints
        assert split_where(parse_query_document(text).entry, MINILANG_SCHEMA, False) is None
        free = parse_query_document(text.replace("r +=", "n +=").replace("{Statement} r", "{Statement} u"))
        assert split_where(free.entry, MINILANG_SCHEMA, False).invariant is not None

    def test_callquery_inside_an_if(self, escapes):
        text = "select ({Statement} s) in m where r.isnodetype({ReturnStatement}) " \
               "{ print(s.linenumber()); if (s.linenumber() == 2) { callquery(last) in s; } }\n" \
               "last : select ({Statement} r) { }"
        assert self.run(escapes, text) == ["2"]
        assert split_where(parse_query_document(text).entry, MINILANG_SCHEMA, False) is None


class TestJoinGuard:
    def test_link_keyed_queries_make_a_linear_number_of_probes(self, monkeypatch):
        """Binding and parent probes in four join queries stay within the
        node count.

        Evaluating the where clause on every inner candidate of every outer
        row made about 3.8 probes per node on this project.
        """
        probes = 0
        compile_ = Evaluator._compile

        def counted_compile(evaluator, e):
            # Each probe call runs the closure compiled for its Call node.
            run = compile_(evaluator, e)
            if not (isinstance(e, Call) and e.name in ("methodbinding", "typebinding", "isparent")):
                return run

            def counted():
                nonlocal probes
                probes += 1
                return run()

            return counted

        monkeypatch.setattr(Evaluator, "_compile", counted_compile)
        rng = random.Random(5)
        sources = [(f"G{i}.mj", generate_random_source(rng, classes=2, max_depth=4))
                   for i in range(8)]
        project, _ = load_project("guard", sources)
        env = Environment()
        for name in ("bound_calls.craql", "calls_in_out.craql", "self_typed.craql",
                     "block_children.craql"):
            doc = parse_query_document(bundled_query_path(name).read_text(), source=name)
            Evaluator(project, env, OutputSink(), source=name).execute_document(doc)
        assert env.variables["num_child_statements"] > 0
        assert 0 < probes <= len(project.nodes)

    def test_invariant_probes_run_once_per_select(self, monkeypatch):
        """unreachable.craql tests `s1.isnodetype(...)` at most four times
        per s1, so its probes stay linear in the number of statements.

        Testing them for every s2 made 1344 probes for the 277 rows of s1
        on this project, against 1060 once per select, and the gap grows
        with the square of block length; a deterministic count, not a
        timing, so a return to per-candidate tests fails here.
        """
        probes = 0
        compile_ = Evaluator._compile

        def counted_compile(evaluator, e):
            run = compile_(evaluator, e)
            if not (isinstance(e, Call) and e.name == "isnodetype"):
                return run

            def counted():
                nonlocal probes
                probes += 1
                return run()

            return counted

        monkeypatch.setattr(Evaluator, "_compile", counted_compile)
        rng = random.Random(5)
        sources = [(f"G{i}.mj", generate_random_source(rng, classes=2, max_depth=4))
                   for i in range(8)]
        project, _ = load_project("guard", sources)
        doc = parse_query_document(bundled_query_path("unreachable.craql").read_text())
        evaluator = Evaluator(project, Environment(), OutputSink())
        captures = []
        evaluator.trace = captures.append
        evaluator.execute_document(doc)
        outer = sum(len(c.rows) for c in captures if c.query.pattern.var1 == "s1")
        statements = len(project.type_ranks("Statement"))
        assert 0 < outer <= statements
        assert 0 < probes <= 4 * outer, (probes, outer)
