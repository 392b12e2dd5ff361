import random

import pytest

from craql import (
    MINILANG_SCHEMA,
    BUNDLED_QUERIES,
    bundled_query_path,
    parse_query_document,
    unparse_document,
    validate_against_schema,
)
from craql.query import ast as query_ast, parser as query_parser
from craql.query.tokens import QuerySyntaxError, tokenize
from craql.query.ast import (
    BoolLit,
    Call,
    CallQuery,
    CountStar,
    ELLIPSIS,
    ExprStmt,
    If,
    Infix,
    INPUT_DIRECTLY_IN,
    IntLit,
    MOD_OUTMOST,
    Prefix,
    PropAccess,
    STAR,
    SelectQuery,
    StrLit,
    TypeLit,
    VarRef,
    unparse_expr,
)

from conftest import frames_per_level


class TestTokenize:
    def test_select_pattern(self):
        kinds = [(t.kind, t.value) for t in tokenize("select ({Block} b)")]
        assert kinds == [
            ("keyword", "select"),
            ("op", "("),
            ("braced", "Block"),
            ("ident", "b"),
            ("op", ")"),
            ("eof", ""),
        ]

    def test_ellipsis_is_one_token(self):
        values = [t.value for t in tokenize("({A} x ... {B} y)")]
        assert "..." in values

    def test_count_star(self):
        kinds = [(t.kind, t.value) for t in tokenize("count(*)")]
        assert kinds == [
            ("ident", "count"),
            ("op", "("),
            ("op", "*"),
            ("op", ")"),
            ("eof", ""),
        ]

    def test_block_brace_versus_braced_type(self):
        toks = tokenize("{ temp = 1; }")
        assert toks[0] == toks[0].__class__("op", "{", 1, 1)

    def test_comments_skipped(self):
        assert [t.kind for t in tokenize("// nothing here\nselect")] == ["keyword", "eof"]

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError, match="unterminated"):
            tokenize('print("oops);')

    def test_stray_character(self):
        with pytest.raises(QuerySyntaxError, match="stray"):
            tokenize("select @")

    def test_tokens_carry_position(self):
        tok = tokenize("\n  select")[0]
        assert (tok.line, tok.col) == (2, 3)

    def test_non_ascii_digit_is_a_stray_character(self):
        with pytest.raises(QuerySyntaxError, match="^<string>:1:5: stray character '²'$"):
            tokenize("1 < ²")

    def test_escaped_newline_in_string_counts_its_line(self):
        toks = tokenize('x = "a\\\nb";\ny = 1;')
        assert [(t.kind, t.value, t.line, t.col) for t in toks[2:5]] == [
            ("string", "a\nb", 1, 5),
            ("op", ";", 2, 3),
            ("ident", "y", 3, 1),
        ]


class TestParse:
    def test_triple_nesting_structure(self):
        text = bundled_query_path("blocktop_declarations.craql").read_text()
        doc = parse_query_document(text)
        assert len(doc.queries) == 1
        outer = doc.entry
        inner = [s for s in outer.body if isinstance(s, SelectQuery)]
        assert len(inner) == 1
        second = inner[0]
        conditional = [s for s in second.body if isinstance(s, If)]
        assert len(conditional) == 1
        innermost = [s for s in conditional[0].then_body if isinstance(s, SelectQuery)]
        assert len(innermost) == 1

    def test_modifier_and_directly_in(self):
        doc = parse_query_document("select outmost ({Statement} s) directly in m { }")
        q = doc.entry
        assert q.modifier == MOD_OUTMOST
        assert q.input.kind == INPUT_DIRECTLY_IN
        assert q.input.expr == VarRef("m")

    def test_unresolved_callquery_label(self):
        text = "q1 : select ({Block} b) { callquery(q2); }"
        with pytest.raises(QuerySyntaxError, match="unresolved query label q2"):
            parse_query_document(text)

    def test_unresolved_callquery_label_at_depth(self):
        # In the else of an if, inside a while, inside a nested select.
        text = ("q1 : select ({Block} b) {\n"
                "  select ({Statement} s) in b {\n"
                "    while (x < 3) {\n"
                "      if (x == 1) { x++; } else { callquery(q2); }\n"
                "    }\n"
                "  }\n"
                "}\n")
        with pytest.raises(QuerySyntaxError, match=r"^q\.craql:4:35: unresolved query label q2$"):
            parse_query_document(text, "q.craql")

    def test_duplicate_label(self):
        text = "q1 : select ({Block} b) { }\nq1 : select ({Block} c) { }"
        with pytest.raises(QuerySyntaxError, match="duplicate query label"):
            parse_query_document(text)

    def test_unlabeled_select_after_the_first_is_rejected(self):
        text = "select ({Block} b) { a++; }\nselect ({Block} c) { z++; }"
        with pytest.raises(QuerySyntaxError, match=r"^q\.craql:2:1: an unlabeled select after "
                           r"the first never runs: label it and run it with callquery$"):
            parse_query_document(text, "q.craql")
        # A labeled one may follow, and the first may be labeled or not.
        for first in ("", "q0 : "):
            doc = parse_query_document(f"{first}select ({{Block}} b) {{ }}\nq1 : select ({{Block}} c) {{ }}")
            assert [label for label, _ in doc.queries] == [first[:2] or None, "q1"]

    def test_star_and_ellipsis_patterns(self):
        star = parse_query_document("select ({A} x * {B} y) { }").entry
        assert star.pattern.kind == STAR and star.pattern.variables() == ["x", "y"]
        dots = parse_query_document("select ({A} x ... {B} y) { }").entry
        assert dots.pattern.kind == ELLIPSIS

    def test_modifier_rejected_on_pair_pattern(self):
        with pytest.raises(QuerySyntaxError, match="single patterns"):
            parse_query_document("select outmost ({A} x * {B} y) { }")

    def test_variable_collision_with_enclosing_scope(self):
        text = "select ({Block} b) { select ({Statement} b) in b { } }"
        with pytest.raises(QuerySyntaxError, match="already bound"):
            parse_query_document(text)

    def test_else_binds_to_nearest_if(self):
        text = "select ({Block} b) { if (1) if (2) x = 1; else x = 2; }"
        doc = parse_query_document(text)
        outer_if = doc.entry.body[0]
        assert outer_if.else_body is None
        inner_if = outer_if.then_body[0]
        assert inner_if.else_body is not None

    def test_callquery_with_input_override(self):
        text = "q1 : select ({ForStatement} f) { callquery(q1) directly in f; }"
        doc = parse_query_document(text)
        call = doc.entry.body[0]
        assert isinstance(call, CallQuery)
        assert call.input.kind == INPUT_DIRECTLY_IN

    def test_where_clause_before_body(self):
        doc = parse_query_document("select ({Block} b) where count(*) < 100 { }")
        assert doc.entry.where is not None

    def test_syntax_error_reports_expected(self):
        with pytest.raises(QuerySyntaxError, match="expected"):
            parse_query_document("select {Block} b) { }")

    def test_non_ascii_digit_in_where_clause(self):
        with pytest.raises(QuerySyntaxError, match=r"^q\.craql:1:30: stray character '²'$"):
            parse_query_document("select ({Block} b) where 1 < ² { }", "q.craql")

    @pytest.mark.parametrize("stmt, error", [
        ("print(a }", "1:30: unexpected '}' (expected ')')"),
        ("print a;", "1:28: unexpected 'a' (expected '(')"),
    ])
    def test_print_statement_takes_one_parenthesized_value(self, stmt, error):
        with pytest.raises(QuerySyntaxError) as raised:
            parse_query_document(f"select ({{Block}} b) {{ {stmt} }}", "q.craql")
        assert str(raised.value) == f"q.craql:{error}"

    def test_print_statement_is_its_call(self):
        doc = parse_query_document("select ({Block} b) {\n  print(b);\n}")
        assert doc.entry.body == [ExprStmt(Call("print", None, [VarRef("b")]))]
        assert doc.entry.body[0].pos == doc.entry.body[0].value.pos == (2, 3)

    def test_empty_document_rejected(self):
        with pytest.raises(QuerySyntaxError, match="empty"):
            parse_query_document("// only a comment\n")


class TestUnparse:
    @pytest.mark.parametrize("name", BUNDLED_QUERIES)
    def test_bundled_queries_round_trip(self, name):
        text = bundled_query_path(name).read_text()
        doc = parse_query_document(text, name)
        again = parse_query_document(unparse_document(doc), name)
        assert doc == again

    @pytest.mark.parametrize("stmt", [
        "x = (1 + 2) * 3 - -4; y = !(a && b) || c;",
        # The unparser drops these parentheses: a statement may start with a call of print.
        "(print(b)) + 1;",
        "(print(b)).parent();",
    ])
    def test_expression_nesting_preserved(self, stmt):
        doc = parse_query_document(f"select ({{Block}} b) {{ {stmt} }}")
        assert parse_query_document(unparse_document(doc)) == doc

    def test_string_escapes_round_trip(self):
        doc = parse_query_document('select ({Block} b) { print("a\\nb\\tc\\"d\\\\"); }')
        assert doc.entry.body[0].value.args == [StrLit('a\nb\tc"d\\')]
        text = unparse_document(doc)
        assert 'print("a\\nb\\tc\\"d\\\\");' in text
        assert parse_query_document(text) == doc

    def test_parser_reads_the_unparser_precedence_table(self):
        assert query_parser._PRECEDENCE is query_ast._PRECEDENCE
        assert query_parser.PREFIX_PRECEDENCE is query_ast.PREFIX_PRECEDENCE

    def test_3000_link_accessor_chain_round_trips(self):
        doc = parse_query_document("select ({Block} b) where b" + ".a" * 3000 + " == 1 { }")
        text = unparse_document(doc)
        assert text == "select ({Block} b)\nwhere b" + ".a" * 3000 + " == 1 {\n}\n"
        # Neither the unparser nor the IR's `==` takes a frame per link.
        assert parse_query_document(text) == doc

    def test_random_expressions_round_trip(self):
        rng = random.Random(20240)
        for _ in range(400):
            expr = random_expr(rng, 4)
            text = f"select ({{Block}} b) where {unparse_expr(expr)} {{ }}"
            assert parse_query_document(text).entry.where == expr, text


def random_expr(rng: random.Random, depth: int):
    """A random expression over every infix and prefix operator, literals,
    calls and property access."""
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.randrange(6)
        if leaf == 0:
            return IntLit(rng.randrange(1000))
        if leaf == 1:
            return StrLit("".join(rng.choice('ab "\\\n\t') for _ in range(rng.randrange(5))))
        if leaf == 2:
            return BoolLit(rng.random() < 0.5)
        if leaf == 3:
            return VarRef(rng.choice(["a", "count", "x1"]))
        if leaf == 4:
            return TypeLit(rng.choice(["Block", "Statement"]))
        return CountStar()
    kind = rng.randrange(5)
    if kind <= 1:
        op = rng.choice(sorted(query_ast._PRECEDENCE))
        return Infix(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 2:
        return Prefix(rng.choice("!-"), random_expr(rng, depth - 1))
    if kind == 3:
        receiver = random_expr(rng, depth - 1) if rng.random() < 0.5 else None
        args = [random_expr(rng, depth - 1) for _ in range(rng.randrange(3))]
        return Call(rng.choice(["f", "parent"]), receiver, args)
    braced = rng.random() < 0.5
    return PropAccess(random_expr(rng, depth - 1), "Block" if braced else "name", braced)


class TestNesting:
    @staticmethod
    def nested_where(depth: int) -> str:
        return f"select ({{Block}} b) where {'(' * depth}true{')' * depth} {{ }}"

    def test_each_parenthesis_costs_at_most_four_frames(self):
        assert frames_per_level(parse_query_document, self.nested_where) <= 4

    def test_200_nested_parentheses_parse(self):
        assert parse_query_document(self.nested_where(200)).entry.where == BoolLit(True)


class TestValidate:
    def test_unknown_node_type_is_an_error(self):
        doc = parse_query_document("select ({Blok} b) { }")
        faults = validate_against_schema(doc, MINILANG_SCHEMA)
        assert [(d.severity, d.message) for d in faults] == [("error", "unknown node type Blok")]

    def test_registered_abstract_type_is_clean(self):
        doc = parse_query_document("select ({Statement} s) { }")
        assert validate_against_schema(doc, MINILANG_SCHEMA) == []

    def test_unknown_property_warns(self):
        doc = parse_query_document("select ({MethodDeclaration} m) where m.bodyy == 1 { }")
        warnings = validate_against_schema(doc, MINILANG_SCHEMA)
        assert any("no type declares property bodyy" in d.message for d in warnings)

    def test_type_name_accessor_is_clean(self):
        doc = parse_query_document(
            "select ({ReturnStatement} s) where s.Expression.isnodetype({Name}) { }"
        )
        assert validate_against_schema(doc, MINILANG_SCHEMA) == []

    @pytest.mark.parametrize("stmt, fault", [
        ("print(a, b);", "q.craql:1:22: error: print() takes 1 argument, got 2"),
        ("print();", "q.craql:1:22: error: print() takes 1 argument, got 0"),
    ])
    def test_a_print_statement_takes_one_argument(self, stmt, fault):
        doc = parse_query_document(f"select ({{Block}} b) {{ {stmt} }}", "q.craql")
        assert [str(d) for d in validate_against_schema(doc, MINILANG_SCHEMA)] == [fault]

    @pytest.mark.parametrize("name", BUNDLED_QUERIES)
    def test_bundled_queries_validate_clean(self, name):
        doc = parse_query_document(bundled_query_path(name).read_text(), name)
        assert validate_against_schema(doc, MINILANG_SCHEMA) == []

    def test_faults_come_in_source_order(self):
        text = ("select ({Blok} b) where b.bodyy.isnodetype({Stmt}) {\n"
                "  select ({Statement} s * {Expresion} e) in b.{Nope} {\n"
                "    if (s.linenumber() > 1) { print(e.{Bar}); } else { x = {Blk}; }\n"
                "  }\n"
                "}\n")
        faults = validate_against_schema(parse_query_document(text, "q.craql"), MINILANG_SCHEMA)
        assert [str(d) for d in faults] == [
            "q.craql:1:8: error: unknown node type Blok",
            "q.craql:1:27: warning: no type declares property bodyy",
            "q.craql:1:44: error: unknown node type Stmt",
            "q.craql:2:10: error: unknown node type Expresion",
            "q.craql:2:47: warning: no type declares property Nope",
            "q.craql:3:39: warning: no type declares property Bar",
            "q.craql:3:60: error: unknown node type Blk",
        ]

    def test_3000_link_accessor_chain(self):
        # The parser reads a postfix chain in a loop; the schema check must not
        # recurse once per link either.
        doc = parse_query_document("select ({Block} b) where b" + ".a" * 3000 + " == 1 { }")
        warnings = validate_against_schema(doc, MINILANG_SCHEMA)
        assert len(warnings) == 3000
        assert {d.message for d in warnings} == {"no type declares property a"}
        # The outermost accessor, the chain's last link, comes first.
        assert [d.column for d in warnings[:2]] == [6026, 6024]


def ir_kinds(base: type) -> set[type]:
    """The classes of `craql.query.ast` that derive from `base`."""
    return {cls for cls in vars(query_ast).values()
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base}


class TestWalk:
    def test_pre_order_in_source_order(self):
        doc = parse_query_document(
            "q : select ({Block} b) in x where !b.g.f({T}) { if (c) { n++; } else { callquery(q); } }"
        )
        kinds = [type(node).__name__ for node in query_ast.walk(doc)]
        assert kinds == [
            "QueryDocument", "SelectQuery", "Pattern", "InputSpec", "VarRef",
            "Prefix", "Call", "PropAccess", "VarRef", "TypeLit",
            "If", "VarRef", "IncrDecr", "CallQuery",
        ]

    def test_every_node_kind_is_known(self):
        """A node kind that `walk` does not know would escape the label
        check, the schema check and the hoist's write check."""
        expressions, statements = ir_kinds(query_ast.Expr), ir_kinds(query_ast.Stmt)
        others = {query_ast.Pattern, query_ast.InputSpec, query_ast.QueryDocument}
        assert expressions | statements | others <= set(query_ast._FIELDS)

    def test_one_node_kind_per_construct(self):
        """The evaluator compiles exactly the IR's expression and statement
        kinds; a document using every construct reaches each kind, and each
        node's text reparses to the node. So a construct has one kind: a
        second one for it would have no text that parses to it."""
        from craql.engine import evaluator

        expressions, statements = ir_kinds(query_ast.Expr), ir_kinds(query_ast.Stmt)
        assert set(evaluator._EXPRESSIONS) == expressions
        assert set(evaluator._STATEMENTS) == statements
        assert {cls.__name__ for cls in statements} == {
            "Assign", "IncrDecr", "If", "While", "SelectQuery", "CallQuery", "ExprStmt"}
        doc = parse_query_document(
            "q : select ({Block} b) in x where !b.g.{Block}.f({Block}) && count(*) < 2 || true {\n"
            '  n = 1; s += "t"; n++;\n'
            "  if (n == -1) { print(n); } else { m = max(n, 2); }\n"
            "  while (false) { b.depth(); }\n"
            "  select ({Statement} s2) directly in b { callquery(q); }\n"
            "}\n")
        reached = set()
        for node in query_ast.walk(doc):
            if isinstance(node, query_ast.Expr):
                text, expected = f"y = {query_ast.unparse_expr(node)};", query_ast.Assign(
                    "y", "=", node)
            elif isinstance(node, query_ast.Stmt):
                text, expected = query_ast.unparse_stmt(node, 0), node
            else:
                continue
            again = parse_query_document(f"q : select ({{Block}} z) {{ {text} }}")
            assert again.entry.body[0] == expected
            reached.add(type(node))
        assert reached == expressions | statements
