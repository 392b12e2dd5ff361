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
