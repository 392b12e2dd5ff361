import re

import pytest

from craql import (
    Environment,
    Evaluator,
    OutputSink,
    QueryRuntimeError,
    load_project,
    parse_query_document,
)
from craql.engine.evaluator import MAX_INT_DIGITS
from craql.engine.runtime import NodeList, NodeRef, UNDEFINED
from craql.query.parser import _Parser
from craql.query.tokens import tokenize

from conftest import find_node, load_fixture_project, run_document


def eval_expr(project, text, env=None, sink=None):
    expr = _Parser(tokenize(text), "<expr>").parse_expr()
    return Evaluator(project, env or Environment(), sink or OutputSink()).eval(expr)


class TestLiteralsAndOperators:
    def test_arithmetic(self, sample_project):
        assert eval_expr(sample_project, "1 + 2 * 3 - 4") == 3

    def test_list_length_comparison(self, sample_project):
        method = find_node(sample_project, "MethodDeclaration", "getCount")
        env = Environment({"m": NodeRef(method.id)})
        assert eval_expr(sample_project, "m.body.statements == 1", env) is True
        assert eval_expr(sample_project, "m.parameters == 0", env) is True

    def test_node_plus_string_concatenates_source(self, sample_project):
        method = find_node(sample_project, "MethodDeclaration", "getCount")
        env = Environment({"m": NodeRef(method.id)})
        assert (
            eval_expr(sample_project, 'm + " is a getter"', env)
            == "int getCount() { return count; } is a getter"
        )

    def test_string_plus_number(self, sample_project):
        assert eval_expr(sample_project, '"line " + 7') == "line 7"

    def test_empty_list_is_falsy(self, sample_project):
        method = find_node(sample_project, "MethodDeclaration", "getCount")
        env = Environment({"m": NodeRef(method.id)})
        assert eval_expr(sample_project, "!m.parameters", env) is True

    def test_node_equality_is_identity(self, sample_project):
        body = find_node(sample_project, "Block", "return count")
        env = Environment({"a": NodeRef(body.id), "b": NodeRef(body.id)})
        assert eval_expr(sample_project, "a == b", env) is True
        other = find_node(sample_project, "Block", "int i = 0")
        env = Environment({"a": NodeRef(body.id), "b": NodeRef(other.id)})
        assert eval_expr(sample_project, "a == b", env) is False
        assert eval_expr(sample_project, "a != b", env) is True

    def test_undefined_equals_only_undefined(self, sample_project):
        assert eval_expr(sample_project, "nothing == 0") is False
        assert eval_expr(sample_project, "nothing == alsonothing") is True

    def test_short_circuit_protects_right_side(self, sample_project):
        # .statements on undefined would raise; && must not evaluate it.
        assert eval_expr(sample_project, "false && nothing.statements == 1") is False
        assert eval_expr(sample_project, "true || nothing.statements == 1") is True

    def test_undefined_reads_as_zero_in_arithmetic(self, sample_project):
        assert eval_expr(sample_project, "nothing + 1") == 1
        assert eval_expr(sample_project, "nothing < 5") is True

    def test_arithmetic_on_node_raises(self, sample_project):
        body = find_node(sample_project, "Block", "return count")
        env = Environment({"b": NodeRef(body.id)})
        with pytest.raises(QueryRuntimeError, match="arithmetic on a node"):
            eval_expr(sample_project, "b + 1", env)

    def test_truthiness_table(self, sample_project):
        body = find_node(sample_project, "Block", "return count")
        env = Environment({"n": NodeRef(body.id), "empty": NodeList(()), "full": NodeList((body.id,))})
        for text, expected in [
            ("!0", True), ("!1", False), ('!""', True), ('!"x"', False),
            ("!false", True), ("!true", False), ("!nothing", True),
            ("!n", False), ("!empty", True), ("!full", False),
        ]:
            assert eval_expr(sample_project, text, env) is expected, text


class TestAccessors:
    def test_braced_property_name_branch(self, sample_project):
        # {expression} on an invocation resolves the property, not the type.
        call = find_node(sample_project, "MethodInvocation", "log")
        env = Environment({"m": NodeRef(call.id)})
        assert eval_expr(sample_project, "m.{expression}", env) is UNDEFINED  # no receiver
        chain_project = load_fixture_project("chain", "Chain.mj")
        top = find_node(chain_project, "MethodInvocation", ".m3()")
        env = Environment({"m": NodeRef(top.id)})
        receiver = eval_expr(chain_project, "m.{expression}", env)
        assert isinstance(receiver, NodeRef)
        assert chain_project.node(receiver.id).props["name"] == "m2"

    def test_braced_type_branch(self, sample_project):
        method = find_node(sample_project, "MethodDeclaration", "getCount")
        env = Environment({"m": NodeRef(method.id)})
        body = eval_expr(sample_project, "m.{Block}", env)
        assert isinstance(body, NodeRef)
        assert sample_project.node(body.id).type == "Block"

    def test_dotted_type_name_fallback(self, sample_project):
        ret = find_node(sample_project, "ReturnStatement", "count")
        env = Environment({"s": NodeRef(ret.id)})
        value = eval_expr(sample_project, "s.Expression", env)
        assert isinstance(value, NodeRef)
        assert sample_project.node(value.id).type == "Name"

    def test_ambiguous_child_access(self):
        from craql import load_project

        project, _ = load_project(
            "amb", [("A.mj", "class A { void m() { if (1 < 2) { log(\"a\"); } else { log(\"b\"); } } }")]
        )
        if_stmt = find_node(project, "IfStatement")
        env = Environment({"s": NodeRef(if_stmt.id)})
        with pytest.raises(QueryRuntimeError, match="ambiguous child access"):
            eval_expr(project, "s.{Block}", env)

    def test_absent_resolution_yields_undefined(self, sample_project):
        body = find_node(sample_project, "Block", "return count")
        env = Environment({"b": NodeRef(body.id)})
        assert eval_expr(sample_project, "b.nosuchthing", env) is UNDEFINED

    def test_access_on_undefined_raises(self, sample_project):
        with pytest.raises(QueryRuntimeError, match="on undefined"):
            eval_expr(sample_project, "nothing.statements")


class TestBuiltins:
    def test_contains_type_form(self):
        project = load_fixture_project("guard", "Trycatch.mj")
        throwing = find_node(project, "CatchClause", "throw new Error")
        silent = find_node(project, "CatchClause", "swallow")
        env = Environment({"a": NodeRef(throwing.id), "b": NodeRef(silent.id)})
        assert eval_expr(project, "a.contains({ThrowStatement})", env) is True
        assert eval_expr(project, "b.contains({ThrowStatement})", env) is False

    def test_contains_subtree_form(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        env = Environment({"outer": NodeRef(greet_body.id), "inner": NodeRef(while_body.id)})
        assert eval_expr(sample_project, "outer.contains(inner)", env) is True
        assert eval_expr(sample_project, "inner.contains(outer)", env) is False
        assert eval_expr(sample_project, "outer.contains(outer)", env) is False

    def test_directly_contains_stops_at_same_type(self):
        from craql import load_project
        from craql.fixtures import generate_nested_blocks

        project, _ = load_project("deep", [("Deep.mj", generate_nested_blocks(3))])
        blocks = sorted(
            (n for n in project.nodes if n.type == "Block"),
            key=lambda n: n.start,
        )
        outer, first, second = blocks[0], blocks[1], blocks[2]
        env = Environment({"o": NodeRef(outer.id), "a": NodeRef(first.id), "b": NodeRef(second.id)})
        assert eval_expr(project, "o.directly_contains(a)", env) is True
        assert eval_expr(project, "o.directly_contains(b)", env) is False
        assert eval_expr(project, "o.directly_contains({Block})", env) is True
        assert eval_expr(project, "o.contains(b)", env) is True

    def test_isparent_both_forms(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        while_stmt = find_node(sample_project, "WhileStatement")
        assign = find_node(sample_project, "ExpressionStatement", "i = i + 1")
        env = Environment({
            "b": NodeRef(greet_body.id),
            "w": NodeRef(while_stmt.id),
            "a": NodeRef(assign.id),
        })
        assert eval_expr(sample_project, "b.isparent(w)", env) is True
        assert eval_expr(sample_project, "b.isparent(a)", env) is False
        assert eval_expr(sample_project, "b.isparent({WhileStatement})", env) is True
        assert eval_expr(sample_project, "b.isparent({ForStatement})", env) is False
        assert eval_expr(sample_project, "b.isparent(ghost)", env) is False  # undefined arg

    def test_parent_of_root_is_undefined(self, sample_project):
        env = Environment({"r": NodeRef(sample_project.roots[0])})
        assert eval_expr(sample_project, "r.parent()", env) is UNDEFINED

    def test_parent_ascends_above_subtree_root(self, sample_project):
        fragment = find_node(sample_project, "VariableDeclaration", "i = 0")
        env = Environment({"v": NodeRef(fragment.id)})
        assert (
            eval_expr(sample_project, "v.parent().isnodetype({VariableDeclarationStatement})", env)
            is True
        )

    def test_position_linenumber_filename(self, sample_project):
        ret = find_node(sample_project, "ReturnStatement", "count")
        env = Environment({"s": NodeRef(ret.id)})
        text = sample_project.files[ret.file].text
        assert eval_expr(sample_project, "s.position()", env) == text.index("return count;")
        assert eval_expr(sample_project, "s.linenumber()", env) == 3
        assert eval_expr(sample_project, "s.filename()", env) == "Sample.mj"

    def test_depth_and_nodetype_free_forms(self, sample_project):
        env = Environment({"r": NodeRef(sample_project.roots[0])})
        assert eval_expr(sample_project, "depth(r)", env) == 0
        assert eval_expr(sample_project, "nodetype(r)", env) == "CompilationUnit"

    def test_methodbinding_on_fact(self, fact_project):
        call = find_node(fact_project, "MethodInvocation", "fact(n - 1)")
        decl = find_node(fact_project, "MethodDeclaration", "int fact")
        env = Environment({"i": NodeRef(call.id), "d": NodeRef(decl.id)})
        assert eval_expr(fact_project, "i.methodbinding() == d", env) is True

    def test_unresolved_binding_is_undefined_and_probes_degrade(self, sample_project):
        call = find_node(sample_project, "MethodInvocation", "log")
        decl = find_node(sample_project, "TypeDeclaration", "Greeter")
        env = Environment({"i": NodeRef(call.id), "t": NodeRef(decl.id)})
        assert eval_expr(sample_project, "i.methodbinding()", env) is UNDEFINED
        assert eval_expr(sample_project, "t.isparent(i.methodbinding())", env) is False
        assert eval_expr(sample_project, "i.methodbinding().isnodetype({Block})", env) is False

    def test_max_min_with_numeric_literal_node(self, sample_project):
        two = find_node(sample_project, "NumberLiteral", "2")
        env = Environment({"n": NodeRef(two.id)})
        assert eval_expr(sample_project, "max(n, 1)", env) == 2
        assert eval_expr(sample_project, "min(n, 1)", env) == 1
        assert eval_expr(sample_project, "max(missing, 3)", env) == 3

    def test_typebinding_surrogate(self, ab_project):
        call = find_node(ab_project, "MethodInvocation", "b.run()")
        env = Environment({"i": NodeRef(call.id)})
        binding = eval_expr(ab_project, "i.typebinding()", env)
        assert isinstance(binding, NodeRef)
        assert ab_project.node(binding.id).props["name"] == "int"

    def test_print_returns_undefined_and_emits(self, sample_project):
        sink = OutputSink()
        assert eval_expr(sample_project, 'print("hello")', sink=sink) is UNDEFINED
        assert sink.prints == ["hello"]

    def test_unknown_function(self, sample_project):
        with pytest.raises(QueryRuntimeError, match="unknown function frobnicate"):
            eval_expr(sample_project, "frobnicate()")

    def test_wrong_arity(self, sample_project):
        env = Environment({"r": NodeRef(sample_project.roots[0])})
        with pytest.raises(QueryRuntimeError, match="takes 1 argument"):
            eval_expr(sample_project, "r.isnodetype({Block}, {Block})", env)

    def test_value_builtin_on_undefined_receiver_raises(self, sample_project):
        with pytest.raises(QueryRuntimeError, match="not a node"):
            eval_expr(sample_project, "nothing.linenumber()")

    def test_non_node_receiver_raises(self, sample_project):
        with pytest.raises(QueryRuntimeError, match="not a node"):
            eval_expr(sample_project, "(1 + 2).isnodetype({Block})")

    def test_unknown_type_literal_raises(self, sample_project):
        env = Environment({"r": NodeRef(sample_project.roots[0])})
        with pytest.raises(QueryRuntimeError, match="unknown node type Blok"):
            eval_expr(sample_project, "r.isnodetype({Blok})", env)

    def test_count_star_outside_select_raises(self, sample_project):
        with pytest.raises(QueryRuntimeError, match="count\\(\\*\\) outside"):
            eval_expr(sample_project, "count(*)")


class TestRuntimeErrorReporting:
    def test_runtime_error_names_query_and_line(self, sample_project):
        doc = parse_query_document(
            "select ({Block} b)\n{\n  x = b + 1;\n}", source="boom.craql"
        )
        evaluator = Evaluator(sample_project, Environment(), OutputSink(), source="boom.craql")
        with pytest.raises(QueryRuntimeError) as exc:
            evaluator.execute_document(doc)
        assert "boom.craql:3" in str(exc.value)


class TestIntegerBound:
    """Every arithmetic result stays renderable: one past the bound aborts
    the query at its operator."""

    BIG = 10 ** MAX_INT_DIGITS - 1

    @pytest.mark.parametrize("stmt, col", [
        ("x = big + 1;", 40),
        ("x = 0 - big - 1;", 44),
        ("x = big * 10;", 40),
        ("x = u.types + big;", 44),
        ("big += 1;", 32),
        ("x = 0 - big; x -= 1;", 45),
        ("x = -huge;", 36),
    ])
    def test_result_past_the_bound_raises_at_its_operator(self, sample_project, stmt, col):
        text = f"select ({{CompilationUnit}} u) {{ {stmt} }}"
        with pytest.raises(QueryRuntimeError, match=re.escape(
                f"<test>:1:{col}: integer longer than {MAX_INT_DIGITS} digits")):
            run_document(sample_project, text, {"big": self.BIG, "huge": self.BIG + 1})

    def test_values_at_the_bound_render_one_step_on(self, sample_project):
        env, _, _ = run_document(
            sample_project, "select ({CompilationUnit} u) { x = big; x++; y = 0 - big; y--; }",
            {"big": self.BIG})
        assert str(env.variables["x"]) == "1" + "0" * MAX_INT_DIGITS
        assert str(env.variables["y"]) == "-1" + "0" * MAX_INT_DIGITS

    @pytest.mark.parametrize("token", ["0x1F", "1" * (MAX_INT_DIGITS + 1), "9" * 5000],
                             ids=["hex", "past-bound", "past-int-limit"])
    def test_number_literal_that_is_no_bounded_integer_raises(self, token):
        project, _ = load_project("lit", [("A.mj", "class A { int f() { return 7; } }")])
        (literal,) = (n for n in range(len(project.type)) if project.type[n] == "NumberLiteral")
        project.props[literal] = {"token": token}
        env = Environment({"n": NodeRef(literal)})
        with pytest.raises(QueryRuntimeError, match=f"<query>:1:1: .*{MAX_INT_DIGITS} digits"):
            eval_expr(project, "max(n, 0)", env)
