"""Tokenizer for query documents (`.craql` files)."""

from __future__ import annotations

import re

from craql import Frozen

KEYWORDS = {
    "select", "outmost", "inmost", "directly", "in", "where",
    "if", "else", "while", "callquery", "print", "true", "false",
}

# One alternative per token class, in the "Writing a Tokenizer" idiom of the
# `re` docs. `{Name}` is one braced-type token; any other brace is an operator.
# Multi-character operators come before their prefixes. `\w` admits digits
# such as "²" that start no identifier, so `tokenize` checks an identifier's
# first character again.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+|//[^\n]*)
  | (?P<ident>[^\W\d]\w*)
  | (?P<int>[0-9]+)
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
  | (?P<braced>\{[ \t]*\w+[ \t]*\})
  | (?P<op>\.\.\.|==|!=|<=|>=|&&|\|\||\+\+|--|\+=|-=|[(){};:,.*+\-=<>!])
  | (?P<unterminated>")
  | (?P<stray>.)
""", re.VERBOSE)

_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


class QuerySyntaxError(Exception):
    def __init__(self, message: str, source: str, line: int, col: int,
                 expected: list[str] | None = None):
        self.source = source
        self.line = line
        self.col = col
        self.expected = expected or []
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{source}:{line}:{col}: {message}{hint}")


class Token(Frozen):
    kind: str  # ident | keyword | braced | int | string | op | eof
    value: str
    line: int
    col: int

    def __init__(self, kind: str, value: str, line: int, col: int):
        _set_kind(self, kind)
        _set_value(self, value)
        _set_line(self, line)
        _set_col(self, col)


_set_kind, _set_value = Token.kind.__set__, Token.value.__set__
_set_line, _set_col = Token.line.__set__, Token.col.__set__


def tokenize(text: str, source: str = "<string>") -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        word = m.group()
        col = start - line_start + 1
        value = word
        if kind == "ident":
            if word in KEYWORDS:
                kind = "keyword"
            elif not (word[0].isalpha() or word[0] == "_"):
                kind = "stray"
        elif kind == "string":
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), word[1:-1])
        elif kind == "braced":
            value = word[1:-1].strip(" \t")
        if kind == "stray":
            raise QuerySyntaxError(f"stray character {word[0]!r}", source, line, col)
        if kind == "unterminated":
            raise QuerySyntaxError("unterminated string literal", source, line, col)
        toks.append(Token(kind, value, line, col))
        if "\n" in word:  # a string continued by backslash-newline
            line += word.count("\n")
            line_start = start + word.rindex("\n") + 1
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks
