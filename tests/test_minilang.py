import pytest

from craql import ProjectAst, MINILANG_SCHEMA, load_project, source_text
from craql.minilang.parser import MiniLangParseError, parse_minilang

from conftest import find_node, frames_per_level, load_fixture_project


def parse_one(text: str, name: str = "T.mj"):
    project = ProjectAst("t", MINILANG_SCHEMA)
    root, diagnostics = parse_minilang(project, name, text)
    project.roots.append(root)
    project.link_parents()
    return project, root, diagnostics


class TestParser:
    def test_sample_counts(self, sample_project):
        file_id = next(
            i for i, f in enumerate(sample_project.files) if f.name == "Sample.mj"
        )
        in_file = [n for n in sample_project.nodes if n.file == file_id]
        assert sum(1 for n in in_file if n.type == "Block") == 3
        assert sum(1 for n in in_file if n.type == "MethodDeclaration") == 2

    def test_minimal_class(self):
        project, root, diagnostics = parse_one("class A {}")
        assert diagnostics == []
        unit = project.node(root)
        assert unit.type == "CompilationUnit"
        (decl_id,) = unit.props["types"]
        decl = project.node(decl_id)
        assert decl.type == "TypeDeclaration"
        assert decl.props["interface"] == "false"
        assert decl.props["bodyDeclarations"] == []

    def test_call_chain_links_via_expression(self):
        project, _, diagnostics = parse_one(
            "class A { void go() { a.m1().m2().m3(); } }"
        )
        assert diagnostics == []
        top = find_node(project, "MethodInvocation", ".m3()")
        assert top.props["name"] == "m3"
        mid = project.node(top.props["expression"])
        assert mid.type == "MethodInvocation" and mid.props["name"] == "m2"
        low = project.node(mid.props["expression"])
        assert low.type == "MethodInvocation" and low.props["name"] == "m1"
        assert project.node(low.props["expression"]).type == "Name"

    def test_empty_file(self):
        project, root, diagnostics = parse_one("")
        assert diagnostics == []
        assert project.node(root).props["types"] == []

    def test_statement_recovery_keeps_rest_of_file(self):
        text = "class A { void m() { int x = ; log(\"ok\"); } }"
        project, _, diagnostics = parse_one(text)
        assert len(diagnostics) == 1
        assert "expected expression" in diagnostics[0].message
        assert find_node(project, "MethodInvocation", "log")

    def test_top_level_junk_is_unrecoverable(self):
        with pytest.raises(MiniLangParseError, match="expected type declaration"):
            parse_one("int x = 1;")

    def test_unbalanced_brace_is_unrecoverable(self):
        with pytest.raises(MiniLangParseError):
            parse_one("class A { void m() {")

    def test_diagnostic_position(self):
        try:
            parse_one('class A {\n  void m() {\n    "')
        except MiniLangParseError as exc:
            assert exc.diagnostic.line == 3
        else:
            pytest.fail("expected a parse error")

    def test_for_loop_shape(self):
        project, _, diagnostics = parse_one(
            "class A { void m() { for (int i = 0; i < 3; i = i + 1) { log(\"x\"); } } }"
        )
        assert diagnostics == []
        loop = find_node(project, "ForStatement")
        (init,) = loop.props["initializers"]
        assert project.node(init).type == "VariableDeclarationStatement"
        assert project.node(loop.props["expression"]).type == "InfixExpression"
        (update,) = loop.props["updaters"]
        assert project.node(update).type == "Assignment"

    def test_try_catch_shape(self):
        project, _, _ = parse_one(
            "class A { void m() { try { log(\"a\"); } catch (Error e) { log(\"b\"); } } }"
        )
        clause = find_node(project, "CatchClause")
        exc = project.node(clause.props["exception"])
        assert exc.type == "SingleVariableDeclaration"
        assert exc.props["type"] == "Error"

    def test_try_without_catch_is_error(self):
        _, _, diagnostics = parse_one("class A { void m() { try { log(\"a\"); } } }")
        assert any("catch" in d.message for d in diagnostics)

    def test_negative_literal_folds(self):
        project, _, _ = parse_one("class A { void m() { int x = -5; } }")
        lit = find_node(project, "NumberLiteral", "-5")
        assert lit.props["token"] == "-5"

    def test_prefix_expression(self):
        project, _, _ = parse_one("class A { void m() { boolean x = !done; } }")
        pre = find_node(project, "PrefixExpression")
        assert pre.props["operator"] == "!"

    def test_fields_with_multiple_fragments(self):
        project, _, _ = parse_one("class A { int x, y; }")
        field = find_node(project, "FieldDeclaration")
        assert len(field.props["fragments"]) == 2

    def test_interface_method_without_body(self):
        project, _, _ = parse_one("interface I { int ping(); }")
        method = find_node(project, "MethodDeclaration", "ping")
        assert "body" not in method.props

    def test_statement_spans_include_semicolon(self, sample_project):
        decl = find_node(sample_project, "VariableDeclarationStatement", "int i = 0")
        assert source_text(sample_project, decl.id) == "int i = 0;"

    def test_offsets_are_character_counts_and_lines_one_based(self):
        text = "class A {\n  int f;\n}"
        project, _, _ = parse_one(text)
        field = find_node(project, "FieldDeclaration")
        assert field.start == text.index("int")
        assert field.line == 2


def expression_shape(project, node_id):
    """An expression subtree as nested tuples of node type, operator (if
    any), source text and operands, so spans are pinned with the shape."""
    node = project.node(node_id)
    text = source_text(project, node_id)
    if node.type == "InfixExpression":
        operands = (node.props["leftOperand"], node.props["rightOperand"])
    elif node.type == "Assignment":
        operands = (node.props["leftHandSide"], node.props["rightHandSide"])
    elif node.type == "PrefixExpression":
        operands = (node.props["operand"],)
    else:
        return (node.type, text)
    return (node.type, node.props["operator"], text,
            *(expression_shape(project, child) for child in operands))


def statement_shape(text: str):
    project, _, diagnostics = parse_one(f"class A {{ void m() {{ {text}; }} }}")
    assert diagnostics == []
    return expression_shape(project, find_node(project, "ExpressionStatement").props["expression"])


def name(text):
    return ("Name", text)


class TestPrecedence:
    """Tree shapes and spans, recorded from the recursive-descent parser
    that precedence climbing replaced."""

    def test_subtraction_is_left_associative(self):
        assert statement_shape("a - b - c") == (
            "InfixExpression", "-", "a - b - c",
            ("InfixExpression", "-", "a - b", name("a"), name("b")),
            name("c"),
        )

    def test_assignment_is_right_associative(self):
        assert statement_shape("a = b = c") == (
            "Assignment", "=", "a = b = c",
            name("a"),
            ("Assignment", "=", "b = c", name("b"), name("c")),
        )

    def test_every_level_in_one_chain(self):
        rhs = "a || b && c == d < e + f * g / h"
        assert statement_shape(f"x = {rhs}") == (
            "Assignment", "=", f"x = {rhs}", name("x"),
            ("InfixExpression", "||", rhs, name("a"),
             ("InfixExpression", "&&", "b && c == d < e + f * g / h", name("b"),
              ("InfixExpression", "==", "c == d < e + f * g / h", name("c"),
               ("InfixExpression", "<", "d < e + f * g / h", name("d"),
                ("InfixExpression", "+", "e + f * g / h", name("e"),
                 ("InfixExpression", "/", "f * g / h",
                  ("InfixExpression", "*", "f * g", name("f"), name("g")),
                  name("h"))))))),
        )

    def test_negative_literal_and_prefix_minus(self):
        assert statement_shape("-1 - -x") == (
            "InfixExpression", "-", "-1 - -x",
            ("NumberLiteral", "-1"),
            ("PrefixExpression", "-", "-x", name("x")),
        )

    def test_parenthesized_operand_starts_the_span(self):
        assert statement_shape("(a + b) * c") == (
            "InfixExpression", "*", "(a + b) * c",
            ("InfixExpression", "+", "a + b", name("a"), name("b")),
            name("c"),
        )

    def test_assignment_needs_a_name_or_field_on_its_left(self):
        _, _, diagnostics = parse_one("class A { void m() { a + b = c; } }")
        assert [d.message for d in diagnostics] == ["expected ';', found '='"]


class TestNesting:
    @staticmethod
    def nested_source(depth: int) -> str:
        return f"class D {{ void f() {{ x = {'(' * depth}1{')' * depth}; }} }}"

    def test_each_parenthesis_costs_at_most_four_frames(self):
        assert frames_per_level(parse_one, self.nested_source) <= 4

    def test_165_nested_parentheses_parse(self):
        project, _, diagnostics = parse_one(self.nested_source(165))
        assert diagnostics == []
        assert find_node(project, "NumberLiteral").props["token"] == "1"

    def test_non_ascii_digit_is_a_stray_character(self):
        _, _, diagnostics = parse_one("class A { int f() { return ²; } }")
        assert [str(d) for d in diagnostics] == ["T.mj:1:28: error: stray character '²'"]

    def test_file_with_non_ascii_digit_keeps_its_other_statements(self):
        project, diagnostics = load_project(
            "digits", [("Bad.mj", "class B {\n  int f() { return 1²; }\n}"), ("Good.mj", "class G { }")]
        )
        assert project.files_parsed == 2
        assert [str(d) for d in diagnostics] == ["Bad.mj:2:21: error: stray character '²'"]


class TestLexErrorRecovery:
    """Text the lexer cannot read loses the statement it is in, not the file."""

    def test_stray_character_loses_one_statement(self):
        project, _, diagnostics = parse_one(
            "class A { void m() { x = 1 # 2; y = 3; } void n() { y = 2; } }", "A.mj")
        assert [str(d) for d in diagnostics] == ["A.mj:1:28: error: stray character '#'"]
        methods = [n for n in project.nodes if n.type == "MethodDeclaration"]
        assert [m.props["name"] for m in methods] == ["m", "n"]
        assert [len(project.node(m.props["body"]).props["statements"]) for m in methods] == [1, 1]

    def test_unterminated_string_loses_one_statement(self):
        project, _, diagnostics = parse_one(
            'class A { void m() { x = "ab;\n y = 3; } void n() { } }', "A.mj")
        assert [str(d) for d in diagnostics] == ["A.mj:1:26: error: unterminated string literal"]
        assert len([n for n in project.nodes if n.type == "MethodDeclaration"]) == 2

    def test_stray_character_at_the_top_level_skips_the_file(self):
        with pytest.raises(MiniLangParseError, match="^A.mj:1:11: error: stray character '@'$"):
            parse_one("class A {}@", "A.mj")


class TestLoadProject:
    def test_unrecoverable_file_skipped_with_diagnostic(self):
        project, diagnostics = load_project(
            "mixed",
            [("Bad.mj", "not java at all"), ("Good.mj", "class G { }")],
        )
        assert len(project.roots) == 1
        assert any("Bad.mj" in str(d) for d in diagnostics)
        assert project.files_parsed == 1

    def test_skipped_file_leaves_no_declaration_behind(self):
        # The skipped Z.mj declares a second A before its error: that A is
        # no duplicate, so the call x.h() still binds.
        project, diagnostics = load_project("p", [
            ("A.mj", "class A { void f() { A x = new A(); x.h(); } void h() {} }"),
            ("Z.mj", "class A { } junk"),
        ])
        assert [str(d) for d in diagnostics] == [
            "Z.mj:1:13: error: expected type declaration, found 'junk'"]
        assert [f.name for f in project.files] == ["A.mj", "<builtins>"]
        assert {project.file[n] for n in range(len(project.type))} == {0, 1}
        call = find_node(project, "MethodInvocation", "x.h()").id
        h = find_node(project, "MethodDeclaration", "void h()").id
        assert project.bindings.method == {call: h}

    def test_call_does_not_bind_into_a_skipped_file(self):
        project, diagnostics = load_project("p", [
            ("A.mj", "class A { void f() { B.g(); } }"),
            ("B.mj", "class B { int g() { return 1; } } junk"),
        ])
        assert len(diagnostics) == 1
        assert project.bindings.method == project.bindings.type == {}

    def test_file_nested_too_deeply_leaves_nothing_behind(self):
        nested = "(" * 3000 + "1" + ")" * 3000
        alone, _ = load_project("p", [("G.mj", "class G { }")])
        project, diagnostics = load_project("p", [
            ("Deep.mj", f"class D {{ void f() {{ x = {nested}; }} }}"), ("G.mj", "class G { }")])
        assert "nested too deeply" in str(diagnostics[0])
        assert [f.name for f in project.files] == [f.name for f in alone.files]
        assert project.type == alone.type

    def test_fixture_files_all_parse_clean(self):
        load_fixture_project(
            "all",
            "Sample.mj", "Fact.mj", "AB.mj", "Unreachable.mj",
            "Loops.mj", "Chain.mj", "Trycatch.mj", "Linked.mj",
        )
