"""Checks on the program's source text itself."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import craql

SOURCE_ROOT = Path(craql.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def unread_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name that a module-level import other than
    `from __future__` binds and the module never reads. `import a.b` binds
    `a`."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            unread += [(node.lineno, name) for name in names if name not in read]
    return unread


def test_every_import_is_read():
    """An `__init__.py` too: no package re-exports a name, since `craql`
    exports each from its home module."""
    unread = [f"{path.relative_to(SOURCE_ROOT)}:{line}: {name}"
              for path in sorted(SOURCE_ROOT.rglob("*.py"))
              for line, name in unread_imports(ast.parse(path.read_text()))]
    assert unread == []


def test_the_import_check_sees_each_bound_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from a import b, c as d, e\n"
        "def f(x: d) -> None:\n"
        "    import json\n"
        "    return os.sep + x\n"
    )
    assert unread_imports(tree) == [(2, "sys"), (3, "b"), (3, "e")]


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


# The batch root's file names, which `craql.results` alone spells.
ROOT_FILE_NAMES = (".vars", ".rows", ".properties", "project.ast.json")


def root_file_literals(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) for each string constant in `tree`, an f-string's
    literal pieces included, that holds one of `ROOT_FILE_NAMES`.
    Docstrings are exempt."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and any(n in node.value for n in ROOT_FILE_NAMES)]


def test_only_the_results_module_names_the_root_files():
    named = [f"{path.relative_to(SOURCE_ROOT)}:{line}: {text!r}"
             for path in sorted(SOURCE_ROOT.rglob("*.py")) if path != SOURCE_ROOT / "results.py"
             for line, text in root_file_literals(ast.parse(path.read_text()))]
    assert named == []


def test_the_name_check_sees_f_string_pieces_and_skips_docstrings():
    tree = ast.parse(
        '"""Writes <p>.vars."""\n'
        "def f(p, q):\n"
        '    """Reads <p>.properties."""\n'
        '    return [f"{p}.vars", f"{p}.{q}.rows", "project.ast.json", "x.mj"]\n'
    )
    assert sorted(root_file_literals(tree)) == [(4, ".rows"), (4, ".vars"), (4, "project.ast.json")]


def main_block_calls(tree: ast.Module) -> list[str]:
    """The names of the functions that the module's `if __name__ ==
    "__main__":` block calls."""
    return [call.func.id for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)]


def test_the_console_script_and_python_m_share_one_entry():
    """`craql` and `python -m craql.cli` run one function, the one that
    freezes the collector before the process exits."""
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(),
                        re.M | re.S).group(1)
    module, function = re.fullmatch(r'craql = "([\w.]+):(\w+)"', scripts.strip()).groups()
    assert module == "craql.cli"
    tree = ast.parse((SOURCE_ROOT / "cli.py").read_text())
    assert main_block_calls(tree) == [function]
    entry = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == function)
    calls = [ast.unparse(call.func) for call in ast.walk(entry) if isinstance(call, ast.Call)]
    assert calls == ["main", "gc.freeze", "SystemExit"]
