from __future__ import annotations

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
# (document, message pattern, location).
BAD_AST_DOCS = {
    "unknown_schema": (_one_block_doc(schema="javalang"), "no registered schema", "schema"),
    "non_integer_binding_key": (
        _one_block_doc(bindings={"method": {"x": 0}}), "non-integer key", "x -> 0"),
    "self_owned_root": (_one_block_doc(nodes=[_block(0, 0)]), "ownership cycle", "node 0"),
    "cycle_off_the_roots": (
        _one_block_doc(nodes=[_block(0), _block(1, 2), _block(2, 1, 3), _block(3)]),
        "ownership cycle", "node 1"),
}


def load_fixture_project(name: str, *files: str):
    project, diagnostics = load_project(name, [(f, fixture_text(f)) for f in files])
    assert not diagnostics, diagnostics
    return project


def node_text(project, node_id: int) -> str:
    return source_text(project, node_id)


def find_node(project, type_name: str, contains: str | None = None):
    """First node of the given concrete type whose source contains `contains`."""
    for node in project.nodes:
        if node.type != type_name:
            continue
        if contains is None or contains in source_text(project, node.id):
            return node
    raise AssertionError(f"no {type_name} node containing {contains!r}")


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
