"""The rule table of `craql.query.validate`: the faults a query document
alone decides, found by the schema check wherever they sit.

Each kind of fault is seeded into bundled and generated documents, in a
labeled select that nothing calls, and must be reported at its
`file:line:col` by `validate_against_schema` and by a batch, which exits 2
before any project runs. The documents without a seeded fault check clean.
"""

import random

import pytest

from craql import BUNDLED_QUERIES, MINILANG_SCHEMA, bundled_query_path, parse_query_document
from craql.query.validate import validate_against_schema

from test_cli import make_root, run_main
from test_engine_generated import QueryGenerator, render

# Each kind of fault: a statement that holds it, the fault's column in the
# statement, and its message.
SEEDED_FAULTS = {
    "unknown function": ("n = b.fooo();", 7, "unknown function fooo"),
    "library arity": ("n = max(1);", 5, "max() takes 2 arguments, got 1"),
    "print arity": ("n = print(1, 2);", 5, "print() takes 1 argument, got 2"),
    "node arity": ("n = b.parent(1);", 7, "parent() takes 0 arguments, got 1"),
    "probe arity": ("n = b.contains();", 7, "contains() takes 1 argument, got 0"),
    "beyond the node": ("n = b.position(1, 2);", 7,
                        "position() takes no arguments beyond the node"),
    "no receiver": ("n = parent(b);", 5, "parent() needs a node receiver"),
    "free form without its node": ("n = depth();", 5, "depth() needs a node receiver"),
    "literal isnodetype argument": ("n = b.isnodetype(3);", 7,
                                    "isnodetype() expects a node type like {Block}"),
    "unknown type literal": ("n = b.isparent({Blok});", 16, "unknown node type Blok"),
    "unknown pattern type": ("select ({Stmt} s) { }", 8, "unknown node type Stmt"),
    "literal contains argument": ("n = b.contains(3);", 7,
                                  "contains() expects a node type or a node"),
    "literal directly_contains argument": ("n = b.directly_contains(true);", 7,
                                           "directly_contains() expects a node type or a node"),
    "literal isparent argument": ('n = b.isparent("x");', 7,
                                  "isparent() expects a node type or a node"),
    "literal receiver": ("n = 3.parent();", 7, "parent() receiver is a number, not a node"),
    "literal free form": ('n = linenumber("x");', 5,
                          "linenumber() receiver is a string, not a node"),
    "library receiver": ("n = 3.max(1, 2);", 7, "max() takes no receiver"),
}


def generated_document(seed: int) -> str:
    generator = QueryGenerator(random.Random(seed))
    return render(generator.document(), seed % 2 == 0)


def seeded(text: str, statement: str) -> tuple[str, int]:
    """`text` with a labeled select that holds `statement` appended, and
    the line of the statement."""
    text = text.rstrip("\n") + "\n"
    return text + f"seeded : select ({{Block}} b) {{\n  {statement}\n}}\n", text.count("\n") + 2


def seeded_cases():
    for i, (kind, (statement, column, message)) in enumerate(SEEDED_FAULTS.items()):
        name = BUNDLED_QUERIES[i % len(BUNDLED_QUERIES)]
        bundled = bundled_query_path(name).read_text()
        yield pytest.param(bundled, statement, column, message, id=f"{kind} in {name}")
        yield pytest.param(generated_document(i), statement, column, message,
                           id=f"{kind} in a generated document")


@pytest.mark.parametrize("base, statement, column, message", list(seeded_cases()))
def test_each_seeded_fault_is_reported_at_its_position(base, statement, column, message):
    text, line = seeded(base, statement)
    faults = validate_against_schema(parse_query_document(text, "seeded.craql"), MINILANG_SCHEMA)
    assert [str(d) for d in faults] == [f"seeded.craql:{line}:{column + 2}: error: {message}"]


@pytest.mark.parametrize("base, statement, column, message", list(seeded_cases()))
def test_a_batch_refuses_each_seeded_fault_before_any_project_runs(
        tmp_path, capsys, base, statement, column, message):
    root = make_root(tmp_path)
    text, line = seeded(base, statement)
    (root / "queries" / "seeded.craql").write_text(text)
    (root / "queries.txt").write_text("blocks.craql\nseeded.craql\n")
    assert run_main(root) == 2
    assert capsys.readouterr().err == (f"error: invalid query file seeded.craql: "
                                       f"seeded.craql:{line}:{column + 2}: {message}\n")
    assert list((root / "results").iterdir()) == []


def test_generated_documents_check_clean():
    # As the bundled queries do (`test_query_frontend.py`).
    generator = QueryGenerator(random.Random(32))
    for _ in range(500):
        text = generator.document()
        for plain in (False, True):
            doc = parse_query_document(render(text, plain))
            assert validate_against_schema(doc, MINILANG_SCHEMA) == [], text


@pytest.mark.parametrize("text, fault", [
    ("select ({Block} b) { if (k > 5) { n = b.fooo(); } k++; }", "1:41: unknown function fooo"),
    ("select ({Block} b) where false && b.parent(1) { k++; }",
     "1:37: parent() takes 0 arguments, got 1"),
    ("select ({Block} b) where false && b.contains(3) { k++; }",
     "1:37: contains() expects a node type or a node"),
    ("select ({Block} b) where false && depth(3) > 1 { k++; }",
     "1:35: depth() receiver is a number, not a node"),
    # Evaluation would reach these on every Block.
    ('select ({Block} b) where b.isparent("x") { k++; }',
     "1:28: isparent() expects a node type or a node"),
    ("select ({Block} b) where depth(3) > 1 { k++; }",
     "1:26: depth() receiver is a number, not a node"),
])
def test_a_fault_in_code_that_never_runs_fails_the_batch(tmp_path, capsys, text, fault):
    root = make_root(tmp_path)
    (root / "queries" / "idle.craql").write_text(text)
    (root / "queries.txt").write_text("idle.craql\n")
    assert run_main(root) == 2
    assert capsys.readouterr().err == f"error: invalid query file idle.craql: idle.craql:{fault}\n"
    assert list((root / "results").iterdir()) == []

