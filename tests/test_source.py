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


def docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes in `tree`."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}


def root_file_literals(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) for each string constant in `tree`, an f-string's
    literal pieces included, that holds one of `ROOT_FILE_NAMES`.
    Docstrings are exempt."""
    skip = docstrings(tree)
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skip and any(n in node.value for n in ROOT_FILE_NAMES)]


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


# The messages of a faulty call, which `craql.query.validate` alone spells:
# the rule table decides them all before a call runs.
CALL_FAULTS = re.compile(
    r"unknown function|takes .*argument|needs a node receiver|expects a node type or a node"
    r"|not a node|takes no receiver")


def call_fault_texts(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) for each string in `tree` that matches `CALL_FAULTS`:
    each string constant outside an f-string, and each f-string with `{}`
    for every value it formats. Docstrings are exempt."""
    skip, pieces, texts = docstrings(tree), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            pieces.update(id(part) for part in node.values)
            texts.append((node.lineno, "".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and id(node) not in pieces):
            texts.append((node.lineno, node.value))
    return sorted(text for text in texts if CALL_FAULTS.search(text[1]))


def test_only_the_rule_table_spells_the_call_faults():
    spelled = {path.relative_to(SOURCE_ROOT).as_posix(): call_fault_texts(ast.parse(path.read_text()))
               for path in sorted(SOURCE_ROOT.rglob("*.py"))}
    assert [path for path, texts in spelled.items() if texts] == ["query/validate.py"]
    assert [text for _, text in spelled["query/validate.py"]] == [
        "{}() expects a node type or a node", "{}() receiver is {}, not a node",
        "unknown function {}", "{}() needs a node receiver",
        "{}() takes no arguments beyond the node", "{}() takes {} argument{}, got {}",
        "{}() takes no receiver"]


def test_the_fault_check_reads_whole_f_strings_and_skips_docstrings():
    tree = ast.parse(
        '"""Raises unknown function f."""\n'
        "def f(n, k):\n"
        '    return [f"{n}() takes {k} argument", "no receiver", "needs a node receiver"]\n'
    )
    assert call_fault_texts(tree) == [(3, "needs a node receiver"), (3, "{}() takes {} argument")]


def node_ref_calls(tree: ast.AST) -> list[int]:
    """The line of each call of `NodeRef` in `tree`, by its name or as an
    attribute (`runtime.NodeRef(n)`)."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "NodeRef")


def test_only_the_handle_table_makes_node_handles():
    """A node has one handle per project: `craql.astcore.NodeRefs` makes it,
    and every other module reads the project's table."""
    made = {path.relative_to(SOURCE_ROOT).as_posix(): node_ref_calls(ast.parse(path.read_text()))
            for path in sorted(SOURCE_ROOT.rglob("*.py"))}
    assert {path: lines for path, lines in made.items() if lines}.keys() == {"astcore.py"}
    assert len(made["astcore.py"]) == 1


def test_the_handle_check_sees_names_and_attributes():
    tree = ast.parse(
        "def f(n, runtime):\n"
        "    return NodeRef(n), runtime.NodeRef(n), NodeRefs(), NodeRef, refs[n]\n"
    )
    assert node_ref_calls(tree) == [2, 2]


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
