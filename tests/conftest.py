from __future__ import annotations

import json
import sys

import pytest

from craql import Environment, Evaluator, OutputSink, load_project, parse_query_document, source_text
from craql.fixtures import fixture_text


def _one_block_doc(**changes) -> dict:
    doc = {
        "schema": "minilang",
        "project": "bad",
        "files": [{"name": "f"}],
        "nodes": [{"id": 0, "type": "Block", "file": 0, "span": [0, 0, 1], "props": {}}],
        "roots": [0],
    }
    doc.update(changes)
    return doc


def _block(nid: int, *statements: int) -> dict:
    return {"id": nid, "type": "Block", "file": 0, "span": [0, 0, 1],
            "props": {"statements": list(statements)}}


# Serialized ASTs that must be rejected with an AstFormatError: name ->
# (document, part of the message, location).
BAD_AST_DOCS = {
    "unknown_schema": (_one_block_doc(schema="javalang"), "no registered schema", "schema"),
    "non_integer_binding_key": (
        _one_block_doc(bindings={"method": {"x": 0}}), "non-integer key", "x -> 0"),
    "boolean_binding_target": (
        _one_block_doc(bindings={"method": {"0": True}}),
        "method binding target must be an integer", "0 -> True"),
    "dangling_binding_target": (
        _one_block_doc(bindings={"type": {"0": 1}}), "dangling type binding target 1", "0 -> 1"),
    "abstract_type_node": (
        _one_block_doc(nodes=[dict(_block(0), type="Expression", props={})]),
        "abstract type Expression cannot be concrete", "node 0"),
    "self_owned_root": (_one_block_doc(nodes=[_block(0, 0)]), "ownership cycle", "node 0"),
    "cycle_off_the_roots": (
        _one_block_doc(nodes=[_block(0), _block(1, 2), _block(2, 1, 3), _block(3)]),
        "ownership cycle", "node 1"),
    "node_under_a_cycle": (
        _one_block_doc(nodes=[_block(0), _block(1), _block(2, 3), _block(3, 2, 1)]),
        "ownership cycle", "node 1"),
    "bindings_not_an_object": (
        _one_block_doc(bindings=[]), "'bindings' must be an object", "bindings"),
    "props_not_an_object": (
        _one_block_doc(nodes=[dict(_block(0), props=[])]), "'props' must be an object", "node 0"),
    "schema_not_a_string": (
        _one_block_doc(schema=["x"]), "'schema' must be a string", "top level"),
    "file_entry_not_an_object": (
        _one_block_doc(files=[1]), "a file entry must be an object", "files[0]"),
    "file_index_not_an_integer": (
        _one_block_doc(nodes=[dict(_block(0), file="0")]), "'file' must be an integer", "node 0"),
    "span_not_integers": (
        _one_block_doc(nodes=[dict(_block(0), span=["a", "b", 1])]),
        "each span value must be an integer", "node 0"),
    "span_past_the_text": (
        _one_block_doc(files=[{"name": "f", "text": "ab"}],
                       nodes=[dict(_block(0), span=[0, 3, 1])]),
        "is not a range in its file", "node 0"),
    "span_reversed": (
        _one_block_doc(nodes=[dict(_block(0), span=[2, 1, 1])]),
        "is not a range in its file", "node 0"),
    "token_in_a_child_list": (
        _one_block_doc(nodes=[dict(_block(0), props={"statements": {"token": "x"}})]),
        "a child-list property must be a list", "node 0.statements"),
    "integer_in_a_token": (
        _one_block_doc(nodes=[dict(_block(0), type="TypeDeclaration", props={"name": 0})]),
        "a token property must be an object", "node 0.name"),
    "child_list_in_a_single_child": (
        _one_block_doc(nodes=[dict(_block(0), type="ReturnStatement",
                                   props={"expression": [0]})]),
        "node id must be an integer", "node 0.expression"),
    "undeclared_property": (
        _one_block_doc(nodes=[dict(_block(0), props={"body": 0})]),
        "Block has no property body", "node 0"),
    "json_nested_too_deeply": ("[" * 100000, "nested too deeply", "top level"),
    "node_record_not_an_object": (
        _one_block_doc(nodes=[1]), "a node record must be an object", "nodes[0]"),
    "node_without_an_id": (
        _one_block_doc(nodes=[{k: v for k, v in _block(0).items() if k != "id"}]),
        "missing key 'id'", "nodes[0]"),
    "node_id_out_of_range": (
        _one_block_doc(nodes=[_block(1)]), "node ids must be dense integers from 0", "nodes[0]"),
    "duplicate_node_id": (
        _one_block_doc(nodes=[_block(0), _block(0)]), "duplicate node id 0", "nodes[1]"),
    "type_not_a_string": (
        _one_block_doc(nodes=[dict(_block(0), type=["Block"])]),
        "'type' must be a string", "node 0"),
    "file_index_out_of_range": (
        _one_block_doc(nodes=[dict(_block(0), file=3)]), "bad file index 3", "node 0"),
    "span_of_two_values": (
        _one_block_doc(nodes=[dict(_block(0), span=[0, 0])]),
        "span must be [start, end, line]", "node 0"),
    "span_not_a_list": (
        _one_block_doc(nodes=[dict(_block(0), span={"start": 0})]),
        "'span' must be a list", "node 0"),
    "span_starting_below_zero": (
        _one_block_doc(nodes=[dict(_block(0), span=[-1, 0, 1])]),
        "is not a range", "node 0"),
    "boolean_in_a_child_list": (
        _one_block_doc(nodes=[_block(0, 1), dict(_block(1), props={"statements": [True]})]),
        "node id must be an integer", "node 1.statements"),
    "token_without_a_token": (
        _one_block_doc(nodes=[dict(_block(0), type="TypeDeclaration", props={"name": {}})]),
        "missing key 'token'", "node 0.name"),
    "lone_surrogate_in_the_project_name": (
        _one_block_doc(project="p\ud800"), "the project name holds a lone surrogate at 1",
        "top level"),
    "lone_surrogate_in_a_file_name": (
        _one_block_doc(files=[{"name": "\udfff.mj"}]), "the file name holds a lone surrogate at 0",
        "files[0]"),
    "lone_surrogate_in_a_token": (
        _one_block_doc(nodes=[dict(_block(0), type="TypeDeclaration",
                                   props={"name": {"token": "A\udc80"}})]),
        "the token holds a lone surrogate at 1", "node 0.name"),
    "node_without_props": (
        _one_block_doc(nodes=[{k: v for k, v in _block(0).items() if k != "props"}]),
        "missing key 'props'", "node 0"),
}


def ast_document(doc: dict | str) -> str:
    """A `BAD_AST_DOCS` document as JSON text; a string is the text itself."""
    return doc if isinstance(doc, str) else json.dumps(doc)


def load_fixture_project(name: str, *files: str):
    project, diagnostics = load_project(name, [(f, fixture_text(f)) for f in files])
    assert not diagnostics, diagnostics
    return project


def node_text(project, node_id: int) -> str:
    return source_text(project, node_id)


def child_ids(project, node_id: int) -> list[int]:
    """Reference child list: node-valued props of node_id, flattened in
    schema declaration order, independent of the `kids` column."""
    props, out = project.props[node_id], []
    for name in project.schema.prop_kinds[project.type[node_id]]:
        value = props.get(name)
        if type(value) is int:
            out.append(value)
        elif type(value) is list:
            out += value
    return out


def descendants_preorder(project, root: int, prune=None):
    """Reference depth-first pre-order walk from root over `child_ids`.

    `prune(node)` is asked when the caller resumes the walk after `node`, so
    it may depend on what the caller did with it; a true answer skips the
    nodes below `node`.
    """
    stack = [root]
    while stack:
        cur = stack.pop()
        yield cur
        if prune is None or not prune(cur):
            stack.extend(reversed(child_ids(project, cur)))


def find_node(project, type_name: str, contains: str | None = None):
    """First node of the given concrete type whose source contains `contains`."""
    for node in project.nodes:
        if node.type != type_name:
            continue
        if contains is None or contains in source_text(project, node.id):
            return node
    raise AssertionError(f"no {type_name} node containing {contains!r}")


def frames_per_level(parse, nested) -> float:
    """Python frames that each level of `nested(depth)`, an input nested
    `depth` levels deep, adds to the deepest call stack of `parse`."""

    def deepest(depth: int) -> int:
        peak = 0

        def profile(frame, event, arg):
            nonlocal peak
            if event == "call":
                size = 0
                while frame is not None:
                    size, frame = size + 1, frame.f_back
                peak = max(peak, size)

        sys.setprofile(profile)
        try:
            parse(nested(depth))
        finally:
            sys.setprofile(None)
        return peak

    return (deepest(30) - deepest(10)) / 20


def run_document(project, text: str, seed: dict | None = None, source: str = "<test>"):
    doc = parse_query_document(text, source)
    env = Environment(seed or {})
    sink = OutputSink()
    evaluator = Evaluator(project, env, sink, source=source)
    evaluator.execute_document(doc)
    return env, sink, evaluator


@pytest.fixture(scope="session")
def sample_project():
    return load_fixture_project("sample", "Sample.mj")


@pytest.fixture(scope="session")
def fact_project():
    return load_fixture_project("fact", "Fact.mj")


@pytest.fixture(scope="session")
def ab_project():
    return load_fixture_project("ab", "AB.mj")
