"""CRAQL: a composable query language over sets of abstract syntax trees.

Queries consume and produce sets of subtrees. The library bundles the query
frontend, a MiniLang (Java subset) source frontend with static bindings, the
evaluator with tree-pruning modifiers, a brute-force reference oracle, and a
batch runner that collates per-project output variables into a CSV.
"""

from importlib import import_module
from pathlib import Path

# Each export's home module, imported on the export's first use (PEP 562), so
# that `import craql` alone, and a launch that needs none of them, such as
# `craql collate`, loads no submodule.
_EXPORTS = {
    "AstFormatError": "craql.astcore",
    "BindingTable": "craql.astcore",
    "NodeTypeSchema": "craql.astcore",
    "ProjectAst": "craql.astcore",
    "SchemaError": "craql.astcore",
    "deserialize_project": "craql.astcore",
    "is_subtype": "craql.astcore",
    "node_depth": "craql.astcore",
    "register_schema": "craql.astcore",
    "serialize_project": "craql.astcore",
    "source_text": "craql.astcore",
    "Environment": "craql.engine",
    "Evaluator": "craql.engine",
    "OutputSink": "craql.engine",
    "QueryRuntimeError": "craql.engine",
    "execute_document": "craql.engine",
    "MINILANG_SCHEMA": "craql.minilang",
    "load_project": "craql.minilang",
    "parse_query_document": "craql.query",
    "unparse_document": "craql.query",
    "validate_against_schema": "craql.query",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


# Records: plain `__slots__` classes with a dataclass's constructor, equality
# and `repr`, without importing `dataclasses` or running the `exec` it runs
# per class, which every launch would pay for. They live here rather than in
# a submodule, so that loading one module (`craql.astcore`, say) loads no
# other.

class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = ns["__slots__"] = ns["_fields"] = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["_compared"] = tuple(f for f in fields if f not in ("pos", "source"))
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    """A record class declares its fields as annotations, in constructor
    order, optionally with a default: `name: str` or `pos: Pos = (0, 0)`.
    They become its `__slots__` (its module must use `from __future__ import
    annotations`, which keeps them in the class body). Equality compares the
    class and every field but `pos` and `source`. A `Record` is unhashable;
    a `Frozen` one hashes by those fields and refuses assignment. A hot
    record class defines its own `__init__`.
    """

    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
                or len(values) < len(names)):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # An explicit stack of pairs still to compare, so that a deeply
        # nested IR takes no frame per level.
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                if a != b:
                    return False
            elif type(a).__eq__ is Record.__eq__:
                pairs += zip(a._values(), b._values())
            elif type(a) is list or type(a) is tuple:
                if len(a) != len(b):
                    return False
                pairs += zip(a, b)
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    def __eq__(self, other):  # one tuple compare: frozen values are flat
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), tuple(getattr(self, name) for name in self._fields)


__version__ = "0.1.0"

QUERY_DIR = Path(__file__).parent / "queries"

#: Bundled query files, in suite order.
BUNDLED_QUERIES = (
    "blocktop_declarations.craql",
    "throwing_catches.craql",
    "nested_types.craql",
    "block_children.craql",
    "getters.craql",
    "nested_loops.craql",
    "bound_calls.craql",
    "self_typed.craql",
    "calls_in_out.craql",
    "top_statements.craql",
    "unreachable.craql",
    "recursive_methods.craql",
    "deepest_block.craql",
    "capped_blocks.craql",
    "call_chains.craql",
)


def bundled_query_path(name: str) -> Path:
    path = QUERY_DIR / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled query named {name}")
    return path


__all__ = sorted([*_EXPORTS, "BUNDLED_QUERIES", "bundled_query_path"])
