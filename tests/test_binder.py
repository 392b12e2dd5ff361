import json

from craql import deserialize_project, load_project
from craql.minilang.binder import BUILTINS_FILE, bind_project

from conftest import find_node, load_fixture_project


def builtin_decl(project, name):
    for node in project.nodes:
        if (
            node.type == "TypeDeclaration"
            and project.files[node.file].name == BUILTINS_FILE
            and node.props["name"] == name
        ):
            return node
    raise AssertionError(f"no builtin surrogate for {name}")


class TestMethodBinding:
    def test_recursive_call_binds_to_enclosing_method(self, fact_project):
        invocation = find_node(fact_project, "MethodInvocation", "fact(n - 1)")
        declaration = find_node(fact_project, "MethodDeclaration", "int fact")
        assert fact_project.bindings.method[invocation.id] == declaration.id

    def test_undeclared_method_is_absent(self, sample_project):
        invocation = find_node(sample_project, "MethodInvocation", "log")
        assert invocation.id not in sample_project.bindings.method

    def test_field_receiver_resolves_through_field_type(self, ab_project):
        call = find_node(ab_project, "MethodInvocation", "b.run()")
        target = find_node(ab_project, "MethodDeclaration", "int run")
        assert ab_project.bindings.method[call.id] == target.id

    def test_unqualified_call_resolves_in_enclosing_type(self, ab_project):
        call = find_node(ab_project, "MethodInvocation", "step()")
        target = find_node(ab_project, "MethodDeclaration", "int step")
        assert ab_project.bindings.method[call.id] == target.id

    def test_arity_mismatch_left_unbound(self):
        project, _ = load_project(
            "arity", [("A.mj", "class A { void m(int x) { m(); } }")]
        )
        call = find_node(project, "MethodInvocation", "m()")
        assert call.id not in project.bindings.method

    def test_same_name_same_arity_twins_left_unbound(self):
        project, _ = load_project(
            "twins",
            [("A.mj", "class A { int m() { return 1; } int m() { return 2; } void go() { m(); } }")],
        )
        call = find_node(project, "MethodInvocation", "m()")
        assert call.id not in project.bindings.method

    def test_bound_names_and_arity_always_agree(self, ab_project, fact_project, sample_project):
        for project in (ab_project, fact_project, sample_project):
            for inv_id, decl_id in project.bindings.method.items():
                inv = project.node(inv_id)
                decl = project.node(decl_id)
                assert decl.type == "MethodDeclaration"
                assert inv.props["name"] == decl.props["name"]
                assert len(inv.props["arguments"]) == len(decl.props["parameters"])


class TestTypeBinding:
    def test_invocation_binds_to_return_type_surrogate(self, ab_project):
        call = find_node(ab_project, "MethodInvocation", "b.run()")
        assert ab_project.bindings.type[call.id] == builtin_decl(ab_project, "int").id

    def test_name_binds_to_declared_type(self, ab_project):
        receiver = find_node(ab_project, "Name", "b")
        decl_b = find_node(ab_project, "TypeDeclaration", "class B")
        assert ab_project.bindings.type[receiver.id] == decl_b.id

    def test_literals_bind_to_builtin_surrogates(self, sample_project):
        number = find_node(sample_project, "NumberLiteral", "0")
        string = find_node(sample_project, "StringLiteral", "hi")
        assert sample_project.bindings.type[number.id] == builtin_decl(sample_project, "int").id
        assert sample_project.bindings.type[string.id] == builtin_decl(sample_project, "String").id

    def test_class_instance_creation_binds_to_class(self):
        project, _ = load_project(
            "new", [("A.mj", "class A { B make() { return new B(); } }\nclass B { }")]
        )
        creation = find_node(project, "ClassInstanceCreation")
        decl_b = find_node(project, "TypeDeclaration", "class B")
        assert project.bindings.type[creation.id] == decl_b.id

    def test_self_typed_field_reference(self):
        project = load_fixture_project("linked", "Linked.mj")
        name = find_node(project, "Name", "next")
        decl = find_node(project, "TypeDeclaration", "class Node")
        assert project.bindings.type[name.id] == decl.id

    def test_local_shadows_field(self):
        text = "class A { B b; void m() { int b = 0; b.run(); } }\nclass B { void run() { } }"
        project, _ = load_project("shadow", [("A.mj", text)])
        call = find_node(project, "MethodInvocation", "b.run()")
        # The local int b shadows the field; int has no run() method.
        assert call.id not in project.bindings.method


class TestBinderHousekeeping:
    def test_builtins_unit_not_in_roots(self, sample_project):
        builtin_files = {
            i for i, f in enumerate(sample_project.files) if f.name == BUILTINS_FILE
        }
        assert builtin_files
        for root in sample_project.roots:
            assert sample_project.node(root).file not in builtin_files

    def test_rebinding_is_deterministic(self, ab_project):
        first_method = dict(ab_project.bindings.method)
        first_type = dict(ab_project.bindings.type)
        table = bind_project(ab_project)
        assert table.method == first_method
        assert table.type == first_type

    def test_binding_targets_have_required_types(self, ab_project):
        for decl_id in ab_project.bindings.method.values():
            assert ab_project.node(decl_id).type == "MethodDeclaration"
        for decl_id in ab_project.bindings.type.values():
            assert ab_project.node(decl_id).type == "TypeDeclaration"

    def test_binding_adds_no_node_to_a_linked_project(self):
        # A project without surrogates keeps its literals unbound rather
        # than gaining nodes that linking never saw.
        doc = {"schema": "minilang", "project": "bare", "files": [{"name": "f", "text": "1"}],
               "columns": {"type": ["NumberLiteral"], "file": [0], "start": [0], "end": [1],
                           "line": [1], "props": [{"token": "1"}]},
               "roots": [0]}
        project = deserialize_project(json.dumps(doc))
        table = bind_project(project)
        assert (table.method, table.type) == ({}, {})
        assert len(project.type) == len(project.parent) == len(project.index.pre) == 1
