"""Node-type schema for MiniLang, the bundled Java-subset target language."""

from __future__ import annotations

from craql.astcore import CHILD_LIST, SINGLE, TOKEN, NodeTypeSchema, register_schema

# Primitive-ish types that get surrogate TypeDeclaration nodes so that
# typebinding() is total over literals and void-returning calls.
BUILTIN_TYPE_NAMES = ("int", "boolean", "String", "void")


def _build() -> NodeTypeSchema:
    s = NodeTypeSchema("minilang")
    s.add_type("CompilationUnit", props=[("types", CHILD_LIST)])
    s.add_type(
        "TypeDeclaration",
        props=[("interface", TOKEN), ("name", TOKEN), ("bodyDeclarations", CHILD_LIST)],
    )
    s.add_type(
        "MethodDeclaration",
        props=[
            ("returnType", TOKEN),
            ("name", TOKEN),
            ("parameters", CHILD_LIST),
            ("body", SINGLE),
        ],
    )
    s.add_type("SingleVariableDeclaration", props=[("type", TOKEN), ("name", TOKEN)])
    s.add_type("FieldDeclaration", props=[("type", TOKEN), ("fragments", CHILD_LIST)])
    s.add_type("VariableDeclaration", props=[("name", TOKEN), ("initializer", SINGLE)])
    s.add_type("CatchClause", props=[("exception", SINGLE), ("body", SINGLE)])

    s.add_type("Statement", abstract=True)
    s.add_type("Block", supertype="Statement", props=[("statements", CHILD_LIST)])
    s.add_type(
        "IfStatement",
        supertype="Statement",
        props=[("expression", SINGLE), ("thenStatement", SINGLE), ("elseStatement", SINGLE)],
    )
    s.add_type(
        "WhileStatement",
        supertype="Statement",
        props=[("expression", SINGLE), ("body", SINGLE)],
    )
    s.add_type(
        "ForStatement",
        supertype="Statement",
        props=[
            ("initializers", CHILD_LIST),
            ("expression", SINGLE),
            ("updaters", CHILD_LIST),
            ("body", SINGLE),
        ],
    )
    s.add_type("ReturnStatement", supertype="Statement", props=[("expression", SINGLE)])
    s.add_type("BreakStatement", supertype="Statement")
    s.add_type("ContinueStatement", supertype="Statement")
    s.add_type("ThrowStatement", supertype="Statement", props=[("expression", SINGLE)])
    s.add_type(
        "TryStatement",
        supertype="Statement",
        props=[("body", SINGLE), ("catchClauses", CHILD_LIST)],
    )
    s.add_type("ExpressionStatement", supertype="Statement", props=[("expression", SINGLE)])
    s.add_type(
        "VariableDeclarationStatement",
        supertype="Statement",
        props=[("type", TOKEN), ("fragments", CHILD_LIST)],
    )

    s.add_type("Expression", abstract=True)
    s.add_type(
        "MethodInvocation",
        supertype="Expression",
        props=[("expression", SINGLE), ("name", TOKEN), ("arguments", CHILD_LIST)],
    )
    s.add_type("Name", supertype="Expression", props=[("identifier", TOKEN)])
    s.add_type(
        "FieldAccess",
        supertype="Expression",
        props=[("expression", SINGLE), ("name", TOKEN)],
    )
    s.add_type(
        "Assignment",
        supertype="Expression",
        props=[("leftHandSide", SINGLE), ("operator", TOKEN), ("rightHandSide", SINGLE)],
    )
    s.add_type(
        "InfixExpression",
        supertype="Expression",
        props=[("leftOperand", SINGLE), ("operator", TOKEN), ("rightOperand", SINGLE)],
    )
    s.add_type(
        "PrefixExpression",
        supertype="Expression",
        props=[("operator", TOKEN), ("operand", SINGLE)],
    )
    s.add_type(
        "ClassInstanceCreation",
        supertype="Expression",
        props=[("type", TOKEN), ("arguments", CHILD_LIST)],
    )
    s.add_type("NumberLiteral", supertype="Expression", props=[("token", TOKEN)])
    s.add_type("StringLiteral", supertype="Expression", props=[("token", TOKEN)])
    s.add_type("BooleanLiteral", supertype="Expression", props=[("token", TOKEN)])

    # Matchable in patterns and isnodetype(), never a concrete node type.
    s.add_virtual("ClassDeclaration", base="TypeDeclaration", prop="interface", token="false")
    s.add_virtual("InterfaceDeclaration", base="TypeDeclaration", prop="interface", token="true")
    return s


MINILANG_SCHEMA = register_schema(_build())
