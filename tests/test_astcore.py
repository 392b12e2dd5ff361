import gc
import json
import re
import weakref

import pytest

from craql import (
    AstFormatError,
    deserialize_project,
    is_subtype,
    MINILANG_SCHEMA,
    node_depth,
    ProjectAst,
    serialize_project,
    source_text,
)
from craql.astcore import CHILD_LIST, SINGLE, NodeTypeSchema, SchemaError
from conftest import (
    BAD_AST_DOCS,
    BAD_COLUMN_DOCS,
    ast_document,
    descendants_preorder,
    find_node,
    load_fixture_project,
    record_document,
    run_document,
)

CONCRETE_TYPES = sorted(MINILANG_SCHEMA.children)
KNOWN_TYPES = sorted(MINILANG_SCHEMA.types | MINILANG_SCHEMA.virtuals.keys())
PROPERTIES = sorted({p for plist in MINILANG_SCHEMA.properties.values() for p, _ in plist})


def reference_ancestors(t: str) -> list[str]:
    """t, then each supertype, following the schema's edges one at a time."""
    chain = [t]
    if t in MINILANG_SCHEMA.virtuals:
        chain.append(MINILANG_SCHEMA.virtuals[t].base)
    while chain[-1] in MINILANG_SCHEMA.supertype:
        chain.append(MINILANG_SCHEMA.supertype[chain[-1]])
    return chain


def reference_prop_kind(t: str, prop: str) -> str | None:
    for cur in reference_ancestors(t):
        for pname, kind in MINILANG_SCHEMA.properties.get(cur, ()):
            if pname == prop:
                return kind
    return None


class TestIsSubtype:
    def test_declared_edge(self):
        assert is_subtype(MINILANG_SCHEMA, "WhileStatement", "Statement")

    def test_reflexive(self):
        assert is_subtype(MINILANG_SCHEMA, "Block", "Block")

    def test_expression_is_not_statement(self):
        assert not is_subtype(MINILANG_SCHEMA, "MethodInvocation", "Statement")

    def test_unknown_type_names_offender(self):
        with pytest.raises(SchemaError, match="Blok"):
            is_subtype(MINILANG_SCHEMA, "Blok", "Statement")

    def test_virtual_types_sit_under_their_base(self):
        assert is_subtype(MINILANG_SCHEMA, "ClassDeclaration", "TypeDeclaration")
        assert not is_subtype(MINILANG_SCHEMA, "TypeDeclaration", "ClassDeclaration")

    @pytest.mark.parametrize("t", KNOWN_TYPES)
    def test_agrees_with_supertype_edges(self, t):
        ancestors = reference_ancestors(t)
        for name in KNOWN_TYPES:
            assert is_subtype(MINILANG_SCHEMA, t, name) == (name in ancestors), name


class TestPropKind:
    @pytest.mark.parametrize("t", KNOWN_TYPES)
    def test_agrees_with_supertype_edges(self, t):
        for prop in PROPERTIES:
            assert MINILANG_SCHEMA.prop_kinds[t].get(prop) == reference_prop_kind(t, prop), prop

    def test_subtype_redeclaration_wins(self):
        schema = NodeTypeSchema("redeclared")
        schema.add_type("A", props=[("x", CHILD_LIST)])
        schema.add_type("B", supertype="A", props=[("x", SINGLE)])
        schema.validate()
        assert schema.prop_kinds["A"].get("x") == CHILD_LIST
        assert schema.prop_kinds["B"].get("x") == SINGLE


class TestPreorder:
    def test_leaf_yields_itself(self, sample_project):
        leaf = find_node(sample_project, "NumberLiteral", "0")
        assert list(descendants_preorder(sample_project, leaf.id)) == [leaf.id]

    def test_greet_body_order(self, sample_project):
        body = find_node(sample_project, "Block", "int i = 0")
        seq = list(descendants_preorder(sample_project, body.id))
        assert seq[0] == body.id
        second = sample_project.node(seq[1])
        assert second.type == "VariableDeclarationStatement"
        assert source_text(sample_project, second.id) == "int i = 0;"

    def test_root_walk_covers_whole_file_tree(self, sample_project):
        root = sample_project.roots[0]
        seq = list(descendants_preorder(sample_project, root))
        file_id = sample_project.file[root]
        in_file = [n for n, f in enumerate(sample_project.file) if f == file_id]
        assert sorted(seq) == sorted(in_file)

    def test_each_node_exactly_once(self, sample_project):
        for root in sample_project.roots:
            seq = list(descendants_preorder(sample_project, root))
            assert len(seq) == len(set(seq))

    def test_matches_offset_rank_on_frontend_trees(self, sample_project):
        for root in sample_project.roots:
            seq = list(descendants_preorder(sample_project, root))
            by_offset = sorted(
                seq,
                key=lambda n: (sample_project.start[n], -sample_project.end[n]),
            )
            assert seq == by_offset

    def test_prune_yields_pruned_node_but_nothing_below(self, sample_project):
        root = sample_project.roots[0]
        blocks = {n.id for n in sample_project.nodes if n.type == "Block"}
        below = {
            d for b in blocks for d in descendants_preorder(sample_project, b) if d != b
        }
        full = list(descendants_preorder(sample_project, root))
        pruned = list(descendants_preorder(sample_project, root, lambda n: n in blocks))
        assert blocks - below and blocks - below <= set(pruned)
        assert pruned == [n for n in full if n not in below]

    def test_prune_is_asked_after_the_node_is_handled(self, sample_project):
        root = sample_project.roots[0]
        events = []
        for n in descendants_preorder(
            sample_project, root, lambda n: events.append(("prune", n)) is not None
        ):
            events.append(("yield", n))
        full = list(descendants_preorder(sample_project, root))
        assert events == [e for n in full for e in (("yield", n), ("prune", n))]


class TestNodeDepth:
    def test_root_is_zero(self, sample_project):
        assert node_depth(sample_project, sample_project.roots[0]) == 0

    def test_direct_child_is_one(self, sample_project):
        type_decl = find_node(sample_project, "TypeDeclaration", "Greeter")
        assert node_depth(sample_project, type_decl.id) == 1

    def test_while_body_two_below_greet_body(self, sample_project):
        greet_body = find_node(sample_project, "Block", "int i = 0")
        while_body = find_node(sample_project, "Block", "i = i + 1;\n    }")
        assert (
            node_depth(sample_project, while_body.id)
            - node_depth(sample_project, greet_body.id)
            == 2
        )

    def test_parent_depth_invariant(self, sample_project):
        for node in sample_project.nodes:
            if node.parent is not None:
                assert node_depth(sample_project, node.parent) == node_depth(sample_project, node.id) - 1


class TestRegionIndex:
    def test_project_is_freed_without_the_cycle_collector(self):
        # The index refers to nothing that refers back to its project, so a
        # finished project is freed when its last reference goes rather than
        # at a later collection.
        gc.disable()
        try:
            project = load_fixture_project("freed", "Sample.mj")
            run_document(project, "select ({Block} b) { select outmost ({Statement} s) in b { } }")
            assert project.index.ranks
            ref = weakref.ref(project)
            del project
            assert ref() is None
        finally:
            gc.enable()


class TestSourceText:
    def test_return_statement_slice(self, sample_project):
        ret = find_node(sample_project, "ReturnStatement", "count")
        assert source_text(sample_project, ret.id) == "return count;"

    def test_child_span_inside_parent_span(self, sample_project):
        starts, ends = sample_project.start, sample_project.end
        for n, kids in enumerate(sample_project.kids):
            for child in kids:
                assert starts[n] <= starts[child]
                assert ends[child] <= ends[n]

    def test_missing_text_uses_placeholder_and_flags(self):
        doc = {
            "schema": "minilang",
            "project": "ext",
            "files": [{"name": "ext.ast"}],
            "nodes": [
                {"id": 0, "type": "Block", "file": 0, "span": [0, 0, 1], "props": {"statements": []}}
            ],
            "roots": [0],
        }
        project = deserialize_project(json.dumps(doc))
        assert not project.degraded_output
        assert source_text(project, 0) == "<Block@ext.ast:1>"
        assert project.degraded_output


class TestSerialization:
    def test_round_trip_node_for_node(self, sample_project):
        clone = deserialize_project(serialize_project(sample_project))
        assert len(clone.nodes) == len(sample_project.nodes)
        assert list(clone.nodes) == list(sample_project.nodes)
        assert clone.roots == sample_project.roots
        assert clone.files_parsed == sample_project.files_parsed == 1
        assert clone.bindings.method == sample_project.bindings.method
        assert clone.bindings.type == sample_project.bindings.type

    def test_serialize_is_a_fixed_point(self, ab_project):
        once = serialize_project(ab_project)
        twice = serialize_project(deserialize_project(once))
        assert once == twice

    def test_binding_target_type_mismatch(self, sample_project):
        doc = json.loads(serialize_project(sample_project))
        types = doc["columns"]["type"]
        block, invocation = types.index("Block"), types.index("MethodInvocation")
        doc["bindings"]["method"] = {str(invocation): block}
        with pytest.raises(AstFormatError, match="binding target type mismatch") as info:
            deserialize_project(json.dumps(doc))
        assert info.value.location == f"method binding {invocation} -> {block}"

    def test_binding_target_type_mismatch_in_records(self, sample_project):
        doc = json.loads(record_document(sample_project))
        block = next(n for n in doc["nodes"] if n["type"] == "Block")
        invocation = next(n for n in doc["nodes"] if n["type"] == "MethodInvocation")
        doc["bindings"]["method"] = {str(invocation["id"]): block["id"]}
        with pytest.raises(AstFormatError, match="binding target type mismatch"):
            deserialize_project(json.dumps(doc))

    def test_writes_one_list_per_column(self, sample_project):
        doc = json.loads(serialize_project(sample_project))
        assert "nodes" not in doc
        assert doc["columns"] == {
            "type": sample_project.type, "file": sample_project.file,
            "start": sample_project.start, "end": sample_project.end,
            "line": sample_project.line, "props": sample_project.props,
        }

    def test_both_formats_load_to_one_project(self, sample_project):
        columns = deserialize_project(serialize_project(sample_project))
        records = deserialize_project(record_document(sample_project))
        assert list(records.nodes) == list(columns.nodes) == list(sample_project.nodes)
        assert records.kids == columns.kids == sample_project.kids

    def test_empty_project_is_valid(self):
        doc = {"schema": "minilang", "project": "empty", "files": [], "nodes": [], "roots": []}
        project = deserialize_project(json.dumps(doc))
        assert project.roots == []

    def test_dangling_node_id(self):
        doc = {
            "schema": "minilang",
            "project": "bad",
            "files": [{"name": "f"}],
            "nodes": [
                {"id": 0, "type": "Block", "file": 0, "span": [0, 0, 1], "props": {"statements": [5]}}
            ],
            "roots": [0],
        }
        with pytest.raises(AstFormatError, match="dangling"):
            deserialize_project(json.dumps(doc))

    def test_unknown_node_type(self):
        doc = {
            "schema": "minilang",
            "project": "bad",
            "files": [{"name": "f"}],
            "nodes": [{"id": 0, "type": "Blok", "file": 0, "span": [0, 0, 1], "props": {}}],
            "roots": [0],
        }
        with pytest.raises(AstFormatError, match="unknown node type Blok"):
            deserialize_project(json.dumps(doc))

    def test_virtual_type_cannot_be_concrete(self):
        doc = {
            "schema": "minilang",
            "project": "bad",
            "files": [{"name": "f"}],
            "nodes": [{"id": 0, "type": "ClassDeclaration", "file": 0, "span": [0, 0, 1], "props": {}}],
            "roots": [0],
        }
        with pytest.raises(AstFormatError, match="virtual"):
            deserialize_project(json.dumps(doc))

    def test_node_owned_twice_rejected(self):
        doc = {
            "schema": "minilang",
            "project": "bad",
            "files": [{"name": "f"}],
            "nodes": [
                {"id": 0, "type": "Block", "file": 0, "span": [0, 4, 1], "props": {"statements": [2]}},
                {"id": 1, "type": "Block", "file": 0, "span": [0, 4, 1], "props": {"statements": [2]}},
                {"id": 2, "type": "BreakStatement", "file": 0, "span": [1, 2, 1], "props": {}},
            ],
            "roots": [0, 1],
        }
        with pytest.raises(AstFormatError, match="owned by both"):
            deserialize_project(json.dumps(doc))

    def test_malformed_json_reports_location(self):
        with pytest.raises(AstFormatError, match="malformed JSON"):
            deserialize_project("{not json")

    @pytest.mark.parametrize("name", sorted(BAD_AST_DOCS | BAD_COLUMN_DOCS))
    def test_bad_document_reports_location(self, name):
        doc, message, location = (BAD_AST_DOCS | BAD_COLUMN_DOCS)[name]
        with pytest.raises(AstFormatError, match=re.escape(message)) as info:
            deserialize_project(ast_document(doc))
        assert info.value.location == location


class TestMatchesType:
    def test_virtual_class_declaration(self, sample_project):
        decl = find_node(sample_project, "TypeDeclaration", "Greeter")
        assert sample_project.matches_type(decl.id, "ClassDeclaration")
        assert not sample_project.matches_type(decl.id, "InterfaceDeclaration")
        assert sample_project.matches_type(decl.id, "TypeDeclaration")

    def test_interface_matches_virtual_interface(self):
        from craql import load_project

        project, diags = load_project("iface", [("I.mj", "interface Api { int ping(); }")])
        assert not diags
        decl = find_node(project, "TypeDeclaration", "Api")
        assert project.matches_type(decl.id, "InterfaceDeclaration")
        assert not project.matches_type(decl.id, "ClassDeclaration")

    def test_abstract_statement_matches_concrete_kinds(self, sample_project):
        while_stmt = find_node(sample_project, "WhileStatement")
        assert sample_project.matches_type(while_stmt.id, "Statement")

    @pytest.mark.parametrize("t", CONCRETE_TYPES)
    def test_agrees_with_supertype_edges(self, t):
        # One bare node, plus one carrying each virtual type's token.
        project = ProjectAst("lattice", MINILANG_SCHEMA)
        project.add_file("f")
        nodes = [project.add_node(t, 0, 0, 0, 1, {})]
        for v in MINILANG_SCHEMA.virtuals.values():
            nodes.append(project.add_node(t, 0, 0, 0, 1, {v.prop: v.token}))
        ancestors = reference_ancestors(t)
        for n in nodes:
            props = project.props[n]
            for name in KNOWN_TYPES:
                v = MINILANG_SCHEMA.virtuals.get(name)
                if v is None:
                    expected = name in ancestors
                else:
                    expected = v.base in ancestors and props.get(v.prop) == v.token
                assert project.matches_type(n, name) == expected, (props, name)

    def test_unknown_type_raises(self, sample_project):
        with pytest.raises(SchemaError, match="Blok"):
            sample_project.matches_type(sample_project.roots[0], "Blok")

    @pytest.mark.parametrize("t", ["Statement", "ClassDeclaration", "Blok"])
    def test_add_node_rejects_abstract_and_virtual_types(self, t):
        # As the deserializer does: a `ClassDeclaration` node would match
        # `{TypeDeclaration}` without the `interface` token its base carries.
        project = ProjectAst("lattice", MINILANG_SCHEMA)
        project.add_file("f")
        with pytest.raises(SchemaError, match=f"{t} is not a concrete node type"):
            project.add_node(t, 0, 0, 0, 1, {})
        assert project.type == []


class TestAddNode:
    @staticmethod
    def arena():
        project = ProjectAst("kids", MINILANG_SCHEMA)
        project.add_file("f")
        return project, [project.add_node("Name", 0, 0, 0, 1, {"identifier": f"n{i}"})
                         for i in range(3)]

    def test_kids_follow_the_schema_not_the_props_order(self):
        project, (cond, then, els) = self.arena()
        n = project.add_node("IfStatement", 0, 0, 0, 1,
                             {"elseStatement": els, "thenStatement": then, "expression": cond})
        assert project.kids[n] == [cond, then, els]
        assert MINILANG_SCHEMA.children["IfStatement"] == (
            "expression", "thenStatement", "elseStatement")

    def test_lists_and_single_children_interleave_in_declaration_order(self):
        project, (init, cond, body) = self.arena()
        n = project.add_node("ForStatement", 0, 0, 0, 1,
                             {"body": body, "updaters": [], "expression": cond,
                              "initializers": [init]})
        assert project.kids[n] == [init, cond, body]

    def test_a_none_child_is_absent(self):
        project, (cond, then, _) = self.arena()
        n = project.add_node("IfStatement", 0, 0, 0, 1,
                             {"expression": cond, "thenStatement": then, "elseStatement": None})
        assert project.props[n] == {"expression": cond, "thenStatement": then}
        assert project.kids[n] == [cond, then]

    def test_a_leaf_has_the_shared_empty_kids(self):
        project, (name, _, _) = self.arena()
        assert project.kids[name] == ()
        assert MINILANG_SCHEMA.children["Name"] == ()
