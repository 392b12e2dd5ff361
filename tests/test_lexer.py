"""The columnar MiniLang lexer against a per-match reference lexer, and the
node arena the parser builds from it, pinned by digest."""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from craql import MINILANG_SCHEMA, ProjectAst, load_project
from craql.fixtures import STATIC_FIXTURES, fixture_text, generate_random_source
from craql.minilang.parser import (
    KEYWORDS, MiniLangParseError, lex, line_and_column, newline_offsets, parse_minilang,
)

# The reference: one alternative per token class, in the "Writing a
# Tokenizer" idiom of the `re` docs, one loop iteration per match. `\w`
# admits digits such as "²" that start no identifier, so an identifier's
# first character is checked again.
_REFERENCE_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+|//[^\n]*)
  | (?P<ident>[^\W\d]\w*)
  | (?P<number>[0-9]+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<punct>==|!=|<=|>=|&&|\|\||[{}()\[\];,.=<>!+\-*/])
  | (?P<unterminated>")
  | (?P<stray>.)
""", re.VERBOSE)


def reference_lex(text: str) -> list[tuple[str, str, int, int, int, int]]:
    """(kind, text, start, end, line, col) of each token, `eof` last."""
    toks = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        word = m.group()
        if kind == "ident":
            if word in KEYWORDS:
                kind = "keyword"
            elif not (word[0].isalpha() or word[0] == "_"):
                kind = "stray"
        toks.append((kind, word, start, m.end(), line, start - line_start + 1))
    n = len(text)
    toks.append(("eof", "", n, n, line, n - line_start + 1))
    return toks


def columnar_lex(text: str) -> list[tuple[str, str, int, int, int, int]]:
    kinds, texts, starts, ends = lex(text)
    newlines = newline_offsets(text)
    return [(kind, word, start, end, *line_and_column(newlines, start))
            for kind, word, start, end in zip(kinds, texts, starts, ends)]


EDGE_CASES = {
    "backslash_newline_in_string": 'class A { String s = "a\\\nb"; int y; }',
    "escaped_quote_and_backslash": r'class A { String s = "a\"b\\"; String t = "\\"; }',
    "crlf": "class A {\r\n  int x;\r\n}\r\n",
    "lone_cr_at_end": "class A { }\r",
    "tab_and_form_feed": "class\tA\x0c{\t int\x0cx; }",
    "unicode_spaces": "class A {\x85int\xa0x;　}",
    "superscript_two": "class A { int f() { return ²x + 1²; } }",
    "other_decimal_digit": "class A { int f() { return ٣ + a٣; } }",
    "non_ascii_letters": "class Été { int ñ = 1; }",
    "unterminated_quote_at_end": 'class A { String s = "',
    "unterminated_string_before_newline": 'class A { String s = "ab;\n int y; }',
    "comment_at_end_without_newline": "class A { } // done",
    "comment_then_newline_at_end": "class A { } // done\n",
    "slash_space_slash": "class A { int x = a/ /b; }",
    "comment_in_string": 'class A { String u = "http://x"; }',
    "trailing_whitespace": "class A { }   \n\t  ",
    "empty": "",
    "single_token": "x",
    "only_comment": "// nothing here",
    "only_whitespace": " \n\n\t ",
    "stray_characters": "class A { x = 1 # 2 @ $; }",
    "every_punctuator": "== != <= >= && || { } ( ) [ ] ; , . = < > ! + - * /",
    "keywords_and_near_keywords": "class classy if iff true truer new _new",
}


@pytest.mark.parametrize("name", STATIC_FIXTURES)
def test_fixture_tokens_equal_the_reference(name):
    text = fixture_text(name)
    assert columnar_lex(text) == reference_lex(text)


@pytest.mark.parametrize("seed", range(20))
def test_generated_tokens_equal_the_reference(seed):
    text = generate_random_source(random.Random(seed))
    assert columnar_lex(text) == reference_lex(text)


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_case_tokens_equal_the_reference(name):
    text = EDGE_CASES[name]
    assert columnar_lex(text) == reference_lex(text)


# Node arena of the fixtures, three generated projects and the edge cases,
# each node as (type, file, start, end, line, props, kids), with each
# project's diagnostics. Recorded with the per-match lexer the columnar one
# replaced, so node spans and lines are what they were; then again once
# recovery dropped the nodes of a failed statement, which changed only
# `slash_space_slash`.
ARENA_DIGEST = "eac8688049d8a78b4a77efcb73fba526a7b716694f2a5dd0eb71b29521b2c7d0"


def arena_digest() -> str:
    loads = [load_project("fixtures", [(name, fixture_text(name)) for name in STATIC_FIXTURES])]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        loads.append(load_project(
            f"gen{seed}", [(f"G{i}.mj", generate_random_source(rng)) for i in range(8)]))
    digest = hashlib.sha256()
    for project, diagnostics in loads:
        for n in range(len(project.type)):
            digest.update(repr((project.type[n], project.file[n], project.start[n],
                                project.end[n], project.line[n], project.props[n],
                                project.kids[n])).encode())
        digest.update(repr([str(d) for d in diagnostics]).encode())
    for name, text in EDGE_CASES.items():
        project = ProjectAst("edge", MINILANG_SCHEMA)
        try:
            root, diagnostics = parse_minilang(project, name, text)
        except MiniLangParseError as exc:
            digest.update(str(exc).encode())
            continue
        digest.update(repr((root, project.type, project.start, project.end, project.line,
                            project.props, [str(d) for d in diagnostics])).encode())
    return digest.hexdigest()


def test_node_arena_is_unchanged():
    assert arena_digest() == ARENA_DIGEST
