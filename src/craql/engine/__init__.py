"""Query evaluation: runtime values, environments, and the evaluator."""

from craql.engine.evaluator import Evaluator, QueryRuntimeError, SelectionCapture
from craql.engine.runtime import (
    Environment,
    ExecutionStats,
    NodeList,
    NodeRef,
    OutputSink,
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
    "SelectionCapture",
    "TypeName",
    "UNDEFINED",
    "render_value",
    "truthy",
]
