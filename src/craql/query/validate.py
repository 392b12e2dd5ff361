"""Schema check for parsed query documents, and the rule table of the
faults a document alone decides, which the evaluator reads too.

A call's name must be `print`, `max`, `min` or a node function, its
argument count must fit, only a node function takes a receiver and it
needs one unless it is a free form such as `depth(n)`, its node (the
receiver, or a free form's sole argument) may not be a literal, and the
argument of `isnodetype`, `contains`, `directly_contains` or `isparent`
may not be a number, string or boolean literal. A type name in a pattern
or a `{T}` literal must be one the schema knows. Each broken rule is an error.
Accessors stay late-bound at evaluation time, so an unknown one is only a
warning. A dotted or braced accessor name passes if any schema type declares
it as a property or if it names a registered type (the evaluator's
documented fallback).
"""

from __future__ import annotations

from collections.abc import Iterator

from craql.astcore import NodeTypeSchema
from craql.diagnostics import Diagnostic
from craql.query.ast import (
    BoolLit, Call, IntLit, Node, Pattern, PropAccess, QueryDocument, StrLit, TypeLit, walk,
)

# Each function and its argument count. A node function's count leaves out
# its node: the receiver, or for a free form the sole argument.
LIBRARY_FUNCTIONS = {"print": 1, "max": 2, "min": 2}
NODE_FUNCTIONS = {
    "parent": 0, "methodbinding": 0, "typebinding": 0,
    "isnodetype": 1, "contains": 1, "directly_contains": 1, "isparent": 1,
    "position": 0, "linenumber": 0, "filename": 0, "depth": 0, "nodetype": 0,
}
# The node functions that read a fact of the node itself. They also take
# the node as their sole argument, and raise on an undefined node where the
# others give undefined or false.
FREE_FORMS = frozenset({"position", "linenumber", "filename", "depth", "nodetype"})
NOT_A_TYPE = "isnodetype() expects a node type like {Block}"
# The fault of `contains`, `directly_contains` or `isparent` (the `{}`) on
# an argument that holds neither a type nor a node.
NOT_A_TYPE_OR_NODE = "{}() expects a node type or a node"
# The fault of a node function (the first `{}`) whose node holds a value
# of another kind (the second), and that kind's name for each literal.
NOT_A_NODE = "{}() receiver is {}, not a node"
LITERAL_KINDS = {IntLit: "a number", StrLit: "a string", BoolLit: "a boolean",
                 TypeLit: "a node type"}


def validate_against_schema(doc: QueryDocument, schema: NodeTypeSchema) -> list[Diagnostic]:
    out: list[Diagnostic] = []

    def report(pos: tuple[int, int], message: str, severity: str) -> None:
        out.append(Diagnostic(doc.source, pos[0], pos[1], message, severity))

    for node in walk(doc):
        for message in rule_errors(node, schema):
            report(node.pos, message, "error")
        if isinstance(node, PropAccess):
            if not schema.declares_property(node.name) and not schema.knows(node.name):
                report(node.pos, f"no type declares property {node.name}", "warning")
    return out


def rule_errors(node: Node, schema: NodeTypeSchema) -> Iterator[str]:
    """The messages of the rules that `node` itself breaks: each unknown
    type of a pattern or `{T}` literal, or a call's first broken rule."""
    if isinstance(node, Pattern):
        for name in (node.type1, node.type2):
            if name is not None and not schema.knows(name):
                yield f"unknown node type {name}"
    elif isinstance(node, TypeLit):
        if not schema.knows(node.name):
            yield f"unknown node type {node.name}"
    elif isinstance(node, Call):
        name, receiver, got = node.name, node.receiver, len(node.args)
        arity = LIBRARY_FUNCTIONS.get(name, NODE_FUNCTIONS.get(name))
        if receiver is None and name in FREE_FORMS and got == 1:
            receiver, got = node.args[0], 0  # a free form's node is its sole argument
        if arity is None:
            yield f"unknown function {name}"
        elif receiver is None and name in NODE_FUNCTIONS:
            yield f"{name}() needs a node receiver"
        elif got != arity:
            yield (f"{name}() takes no arguments beyond the node" if name in FREE_FORMS else
                   f"{name}() takes {arity} argument{'s' if arity != 1 else ''}, got {got}")
        elif name in LIBRARY_FUNCTIONS and receiver is not None:
            yield f"{name}() takes no receiver"
        elif name in NODE_FUNCTIONS and type(receiver) in LITERAL_KINDS:
            yield NOT_A_NODE.format(name, LITERAL_KINDS[type(receiver)])
        elif name in NODE_FUNCTIONS and got and type(node.args[0]) in (IntLit, StrLit, BoolLit):
            # A node function's argument is a type or a node.
            yield NOT_A_TYPE if name == "isnodetype" else NOT_A_TYPE_OR_NODE.format(name)
