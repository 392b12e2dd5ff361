"""Seeded token soup through both front ends.

Whatever the input, the MiniLang parser may only raise MiniLangParseError
and the query parser only QuerySyntaxError, each with a location.
"""

import random

import pytest

from craql import MINILANG_SCHEMA, ProjectAst
from craql.minilang.parser import MiniLangParseError, parse_minilang
from craql.query import QuerySyntaxError, parse_query_document

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
