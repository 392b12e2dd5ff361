"""Runtime values, environments, and output sinks."""

from __future__ import annotations

import re
from collections.abc import Sized
from dataclasses import dataclass

from craql.astcore import ProjectAst, source_text


class Undefined:
    """The undefined value; a single instance exists."""

    _instance: "Undefined | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"


UNDEFINED = Undefined()


@dataclass(frozen=True)
class NodeRef:
    """Handle to a node in the current project's arena."""

    id: int


@dataclass(frozen=True)
class NodeList:
    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class TypeName:
    """Internal value of a braced type literal; never stored in variables."""

    name: str


Value = object  # int | str | bool | NodeRef | NodeList | TypeName | Undefined


def truthy(v: Value) -> bool:
    if v is UNDEFINED:
        return False
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v != 0
    if isinstance(v, str):
        return v != ""
    if isinstance(v, NodeRef):
        return True
    if isinstance(v, NodeList):
        return len(v) > 0
    return True


def render_value(v: Value, project: ProjectAst) -> str:
    """Human-readable text for printing and string concatenation."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, NodeRef):
        return source_text(project, v.id)
    if isinstance(v, NodeList):
        return "[" + ", ".join(source_text(project, i) for i in v.ids) + "]"
    if isinstance(v, TypeName):
        return v.name
    return "undefined"


class Environment:
    """Per-project variable store, shared by nested and called queries."""

    def __init__(self, seed: dict[str, Value] | None = None):
        self.variables: dict[str, Value] = dict(seed or {})
        # Per open select, the list whose length count(*) reads.
        self.count_stack: list[Sized] = []
        self.call_depth = 0

    def set(self, name: str, value: Value) -> None:
        self.variables[name] = value

    def exported(self) -> dict[str, Value]:
        """Variables that land in the project's output file.

        `temp_`-prefixed names are scratch space; node handles and undefined
        values have no text rendering and are omitted.
        """
        return {
            name: value
            for name, value in self.variables.items()
            if not name.startswith("temp_")
            and isinstance(value, (bool, int, str))
        }


@dataclass
class ExecutionStats:
    nodes_visited: int = 0
    rows_yielded: int = 0
    files_parsed: int = 0


@dataclass(frozen=True)
class RowRecord:
    """One emitted result-subtree record."""

    file: str
    line: int
    node_type: str
    text: str

    def to_line(self) -> str:
        return f"{self.file}\t{self.line}\t{self.node_type}\t{escape_text(self.text)}"


def escape_text(text: str) -> str:
    r"""`text` on one line: backslash, tab, newline and CR become `\\`, `\t`,
    `\n` and `\r`; `unescape_text` reverses it."""
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE = re.compile(r"\\(.)")


def unescape_text(text: str) -> str:
    return _ESCAPE.sub(lambda m: _UNESCAPES.get(m.group(1), m.group(0)), text)


class OutputSink:
    """Collects print lines and result-row records for one query document."""

    def __init__(self) -> None:
        self.prints: list[str] = []
        self.rows: list[RowRecord] = []

    def print_line(self, text: str) -> None:
        self.prints.append(text)

    def result_row(self, record: RowRecord) -> None:
        self.rows.append(record)
