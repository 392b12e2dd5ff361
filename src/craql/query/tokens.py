"""Tokenizer for query documents (`.craql` files)."""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = {
    "select", "outmost", "inmost", "directly", "in", "where",
    "if", "else", "while", "callquery", "print", "true", "false",
}

# Longest first: the scanner tries these before single-character operators.
_MULTI_OPS = ("...", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=")
_SINGLE_OPS = "(){};:,.*+-=<>!"


class QuerySyntaxError(Exception):
    def __init__(self, message: str, source: str, line: int, col: int,
                 expected: list[str] | None = None):
        self.source = source
        self.line = line
        self.col = col
        self.expected = expected or []
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{source}:{line}:{col}: {message}{hint}")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | braced | int | string | op | eof
    value: str
    line: int
    col: int


def tokenize(text: str, source: str = "<string>") -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    line, line_start = 1, 0

    def col(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c.isspace():
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if c.isalpha() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col(start)))
            continue
        if c.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            toks.append(Token("int", text[start:i], line, col(start)))
            continue
        if c == '"':
            i += 1
            parts: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    break
                if text[i] == "\\" and i + 1 < n:
                    i += 1
                    parts.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(text[i], text[i]))
                else:
                    parts.append(text[i])
                i += 1
            if i >= n or text[i] != '"':
                raise QuerySyntaxError("unterminated string literal", source, line, col(start))
            i += 1
            toks.append(Token("string", "".join(parts), line, col(start)))
            continue
        if c == "{":
            # `{Name}` is a single braced-type token; anything else is a block brace.
            j = i + 1
            while j < n and text[j] in " \t":
                j += 1
            k = j
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            m = k
            while m < n and text[m] in " \t":
                m += 1
            if k > j and m < n and text[m] == "}":
                toks.append(Token("braced", text[j:k], line, col(start)))
                i = m + 1
                continue
            toks.append(Token("op", "{", line, col(start)))
            i += 1
            continue
        if c == "}":
            toks.append(Token("op", "}", line, col(start)))
            i += 1
            continue
        matched = False
        for op in _MULTI_OPS:
            if text.startswith(op, i):
                toks.append(Token("op", op, line, col(start)))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if c in _SINGLE_OPS:
            toks.append(Token("op", c, line, col(start)))
            i += 1
            continue
        raise QuerySyntaxError(f"stray character {c!r}", source, line, col(start))
    toks.append(Token("eof", "", line, col(n)))
    return toks
