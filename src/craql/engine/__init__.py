"""Query evaluation: runtime values, environments, and the evaluator."""

from craql.engine.evaluator import (
    Evaluator,
    QueryRuntimeError,
    SelectionCapture,
    execute_document,
)
from craql.engine.runtime import (
    Environment,
    ExecutionStats,
    NodeList,
    NodeRef,
    OutputSink,
    RowRecord,
    TypeName,
    UNDEFINED,
    render_value,
    truthy,
)

__all__ = [
    "Environment",
    "Evaluator",
    "ExecutionStats",
    "NodeList",
    "NodeRef",
    "OutputSink",
    "QueryRuntimeError",
    "RowRecord",
    "SelectionCapture",
    "TypeName",
    "UNDEFINED",
    "execute_document",
    "render_value",
    "truthy",
]
