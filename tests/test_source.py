"""Checks on the program's source text itself."""

from __future__ import annotations

import ast
from pathlib import Path

import craql

SOURCE_ROOT = Path(craql.__file__).parent


def unread_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter of a function or
    lambda in `tree` that its body never reads. `self`, `cls`, names that
    start with `_` and the parameters of dunder methods, whose signatures a
    protocol fixes, are exempt."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if name.startswith("__") and name.endswith("__"):
                continue
        elif isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        else:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, name, p.arg) for p in params
                   if p is not None and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_") and p.arg not in read]
    return unread


def test_every_parameter_is_read():
    unread = [f"{path.relative_to(SOURCE_ROOT)}:{line}: {function}({param})"
              for path in sorted(SOURCE_ROOT.rglob("*.py"))
              for line, function, param in unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def test_the_check_sees_functions_methods_and_lambdas():
    tree = ast.parse(
        "def f(a, b, *c, d, _e, **g): return a + d\n"
        "class K:\n"
        "    def m(self, x, y): return lambda z, w: x + z\n"
        "    def __exit__(self, kind, value, tb): pass\n"
    )
    assert unread_parameters(tree) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "g"), (3, "m", "y"), (3, "<lambda>", "w"),
    ]
