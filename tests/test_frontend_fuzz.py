"""Seeded token soup through both front ends, and seeded mutations of both
serialized AST formats.

Whatever the input, the MiniLang parser may only raise MiniLangParseError,
the query parser only QuerySyntaxError and the AST loader only
AstFormatError, each with a location.
"""

import json
import random

import pytest

from craql import (
    MINILANG_SCHEMA,
    AstFormatError,
    ProjectAst,
    deserialize_project,
    load_project,
    serialize_project,
)
from craql.fixtures import fixture_text
from craql.minilang.parser import MiniLangParseError, parse_minilang
from craql.query import QuerySyntaxError, parse_query_document

from conftest import record_document

# Letters, digits that `int()` cannot read, other numerals, spaces and a
# line separator that is not a newline.
NON_ASCII = ["é", "ß", "²", "١", "½", "Ⅻ", " ", " ", "\U0001f600"]

MINILANG_PIECES = [
    "class", "interface", "A", "x", "y_1", "int", "void", "new", "if", "else", "while",
    "for", "return", "break", "try", "catch", "throw", "true", "{", "}", "(", ")", ";",
    ",", ".", "=", "==", "!=", "<", "<=", "&&", "||", "+", "-", "*", "/", "!", "0", "42",
    '"s"', '"a\\"b"', '"', "\\", "//c\n", "&", "|", "[", "]", "@", "\r", "\t",
]

QUERY_PIECES = [
    "select", "outmost", "inmost", "directly", "in", "where", "if", "else", "while",
    "callquery", "print", "true", "false", "count", "b", "q1", "{Block}", "{ X }", "{",
    "}", "(", ")", ";", ":", ",", ".", "...", "*", "+", "-", "=", "+=", "-=", "++", "--",
    "==", "!=", "<", ">=", "&&", "||", "!", "0", "42", '"s"', '"a\\nb"', '"\\\n"', '"',
    "\\", "//c\n", "@", "[", "\t",
]


def soup(rng: random.Random, pieces: list[str]) -> str:
    count = rng.randrange(40)
    return "".join(rng.choice(pieces) + rng.choice(("", " ", "\n")) for _ in range(count))


@pytest.mark.parametrize("seed", range(3))
def test_minilang_soup_fails_only_with_located_diagnostics(seed):
    rng = random.Random(seed)
    for _ in range(200):
        body = soup(rng, MINILANG_PIECES + NON_ASCII)
        for text in (body, f"class A {{ void m() {{ {body} }} }}"):
            try:
                _, diagnostics = parse_minilang(ProjectAst("fuzz", MINILANG_SCHEMA), "F.mj", text)
            except MiniLangParseError as exc:
                diagnostics = [exc.diagnostic]
            for d in diagnostics:
                assert d.file == "F.mj" and d.line >= 1 and d.column >= 1, (text, d)


@pytest.mark.parametrize("seed", range(3))
def test_query_soup_fails_only_with_located_errors(seed):
    rng = random.Random(seed)
    for _ in range(200):
        body = soup(rng, QUERY_PIECES + NON_ASCII)
        for text in (body, f"select ({{Block}} b) where {body}", f"select ({{Block}} b) {{ {body} }}"):
            try:
                parse_query_document(text, "q.craql")
            except QuerySyntaxError as exc:
                assert exc.source == "q.craql" and exc.line >= 1 and exc.col >= 1, (text, exc)


# Values of every JSON kind, for a mutation to put in place of another kind.
JSON_VALUES = [None, True, 7, "x", [], [0], {}, {"token": "x"}]


def slots(value, out):
    """Every (container, key) under the decoded JSON `value`, in document
    order."""
    items = value.items() if type(value) is dict else enumerate(value)
    for key, item in items:
        out.append((value, key))
        if type(item) in (dict, list):
            slots(item, out)
    return out


def mutate(rng: random.Random, doc: dict, count: int) -> str:
    """`doc` with one seeded mutation, as JSON text: a key or list entry
    dropped, a value of another JSON kind, a list shortened, or an integer
    made a node id out of range (`count` nodes)."""
    everything = slots(doc, [])
    how = rng.randrange(4)
    if how == 3:
        container, key = rng.choice([(c, k) for c, k in everything if type(c[k]) is int])
        container[key] = rng.choice((count, count + 5, -1))
    elif how == 2:
        lists = [c[k] for c, k in everything if type(c[k]) is list and c[k]]
        lists.pop(rng.randrange(len(lists))).pop()
    else:
        container, key = rng.choice(everything)
        if how == 0:
            del container[key]
        else:
            container[key] = rng.choice([v for v in JSON_VALUES if type(v) is not type(container[key])])
    return json.dumps(doc)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("writer", [serialize_project, record_document])
def test_ast_mutations_fail_only_with_located_format_errors(seed, writer):
    rng = random.Random(seed)
    project, _ = load_project("fuzz", [(name, fixture_text(name)) for name in ("AB.mj", "Fact.mj")])
    document, count = writer(project), len(project.type)
    rejected = 0
    for _ in range(300):
        text = mutate(rng, json.loads(document), count)
        try:
            deserialize_project(text)
        except AstFormatError as exc:
            assert exc.location, text
            rejected += 1
    assert rejected > 150
