"""Schema lint for parsed query documents.

Accessors stay late-bound at evaluation time, so everything here is a
warning, never an error. A dotted or braced accessor name passes if any
schema type declares it as a property or if it names a registered type
(the evaluator's documented fallback).
"""

from __future__ import annotations

from craql.astcore import NodeTypeSchema
from craql.diagnostics import Diagnostic
from craql.query.ast import Pattern, PropAccess, QueryDocument, TypeLit, walk


def validate_against_schema(doc: QueryDocument, schema: NodeTypeSchema) -> list[Diagnostic]:
    out: list[Diagnostic] = []

    def warn(pos: tuple[int, int], message: str) -> None:
        out.append(Diagnostic(doc.source, pos[0], pos[1], message, severity="warning"))

    for node in walk(doc):
        if isinstance(node, Pattern):
            for name in (node.type1, node.type2):
                if name is not None and not schema.knows(name):
                    warn(node.pos, f"unknown node type {name}")
        elif isinstance(node, TypeLit):
            if not schema.knows(node.name):
                warn(node.pos, f"unknown node type {node.name}")
        elif isinstance(node, PropAccess):
            if not schema.declares_property(node.name) and not schema.knows(node.name):
                warn(node.pos, f"no type declares property {node.name}")
    return out
