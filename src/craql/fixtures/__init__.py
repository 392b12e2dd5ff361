"""Bundled MiniLang fixtures and deterministic source generators.

The static `.mj` files ship with the package; deep nesting, block seas, and
the randomized corpus used by the property tests are generated on demand so
their shape is pinned by code instead of by large committed files.
"""

from __future__ import annotations

import random
from pathlib import Path

FIXTURE_DIR = Path(__file__).parent

STATIC_FIXTURES = (
    "Sample.mj",
    "Fact.mj",
    "AB.mj",
    "Unreachable.mj",
    "Loops.mj",
    "Chain.mj",
    "Trycatch.mj",
    "Linked.mj",
)


def fixture_path(name: str) -> Path:
    path = FIXTURE_DIR / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled fixture named {name}")
    return path


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text()


def generate_nested_blocks(depth: int) -> str:
    """One method whose body holds a chain of `depth` directly nested blocks."""
    lines = ["class Deep {", "  void dig() {"]
    for i in range(depth):
        lines.append("  " * (i + 2) + "{")
    for i in range(depth - 1, -1, -1):
        lines.append("  " * (i + 2) + "}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def generate_block_sea(count: int) -> str:
    """A class containing exactly `count` Block nodes, ten per method."""
    if count < 1:
        raise ValueError("count must be positive")
    lines = ["class Sea {"]
    method = 0
    remaining = count
    while remaining > 0:
        per_method = min(10, remaining)
        inner = "".join(" { }" for _ in range(per_method - 1))
        lines.append(f"  void m{method}() {{{inner} }}")
        remaining -= per_method
        method += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


class RandomMiniLang:
    """Seeded random MiniLang source generator.

    Emits parseable programs: classes with `int` fields and methods whose
    bodies nest blocks, `if`/`else`, `while`, `for` and `try`/`catch` around
    local declarations and calls, and now and then an interface. It declares
    fields, parameters and locals but reads none of them, only each `for`
    loop's own counter; conditions compare integer literals. Its only calls
    are `log(...)` and `work(n)`, which no declaration matches, so the binder
    binds no method invocation in what it emits. It emits no `break`,
    `continue` or `throw`, and no `return` but the one that ends each
    non-void method. Class methods always return a value (never a bare
    `return;`) and only interfaces declare bodiless methods; the getter
    query's strict accessors rely on that.
    """

    TYPES = ("int", "boolean", "String")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._name_counter = 0

    def fresh(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def source_file(self, classes: int = 2, max_depth: int = 4) -> str:
        parts = [self.class_decl(max_depth) for _ in range(classes)]
        if self.rng.random() < 0.2:
            name = self.fresh("Api")
            parts.append(f"interface {name} {{\n  int ping();\n}}\n")
        return "\n".join(parts)

    def class_decl(self, max_depth: int) -> str:
        name = self.fresh("C")
        fields = [
            f"  int f{self.fresh('')};" for _ in range(self.rng.randint(0, 2))
        ]
        methods = [self.method_decl(max_depth) for _ in range(self.rng.randint(1, 3))]
        body = "\n".join(fields + methods)
        return f"class {name} {{\n{body}\n}}\n"

    def method_decl(self, max_depth: int) -> str:
        rtype = self.rng.choice(self.TYPES + ("void",))
        name = self.fresh("m")
        params = ", ".join(
            f"int p{self.fresh('')}" for _ in range(self.rng.randint(0, 2))
        )
        stmts = [self.statement(2, max_depth) for _ in range(self.rng.randint(1, 4))]
        if rtype != "void":
            stmts.append("    return 0;" if rtype == "int" else
                         '    return "s";' if rtype == "String" else
                         "    return true;")
        body = "\n".join(stmts)
        return f"  {rtype} {name}({params}) {{\n{body}\n  }}"

    def statement(self, indent: int, depth: int) -> str:
        pad = "  " * indent
        roll = self.rng.random()
        if depth <= 0 or roll < 0.35:
            return pad + self.simple_statement()
        if roll < 0.5:
            inner = self.statement(indent + 1, depth - 1)
            return f"{pad}{{\n{inner}\n{pad}}}"
        if roll < 0.65:
            inner = self.statement(indent + 1, depth - 1)
            tail = ""
            if self.rng.random() < 0.4:
                other = self.statement(indent + 1, depth - 1)
                tail = f" else {{\n{other}\n{pad}}}"
            return f"{pad}if ({self.condition()}) {{\n{inner}\n{pad}}}{tail}"
        if roll < 0.8:
            inner = self.statement(indent + 1, depth - 1)
            return f"{pad}while ({self.condition()}) {{\n{inner}\n{pad}}}"
        if roll < 0.9:
            inner = self.statement(indent + 1, depth - 1)
            v = self.fresh("k")
            return (
                f"{pad}for (int {v} = 0; {v} < 3; {v} = {v} + 1) {{\n{inner}\n{pad}}}"
            )
        inner = self.statement(indent + 1, depth - 1)
        v = self.fresh("e")
        return (
            f"{pad}try {{\n{inner}\n{pad}}} catch (Error {v}) {{\n"
            f"{pad}  log(\"caught\");\n{pad}}}"
        )

    def simple_statement(self) -> str:
        roll = self.rng.random()
        v = self.fresh("v")
        if roll < 0.4:
            return f"int {v} = {self.rng.randint(0, 9)};"
        if roll < 0.7:
            return f'log("{v}");'
        if roll < 0.85:
            return f"int {v} = {self.rng.randint(1, 5)} * {self.rng.randint(1, 5)};"
        return f"work({self.rng.randint(0, 9)});"

    def condition(self) -> str:
        return f"{self.rng.randint(0, 5)} < {self.rng.randint(0, 5)}"


def generate_random_source(rng: random.Random, classes: int = 2, max_depth: int = 4) -> str:
    return RandomMiniLang(rng).source_file(classes, max_depth)
