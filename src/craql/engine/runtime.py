"""Runtime values, environments, and output sinks."""

from __future__ import annotations

from collections.abc import Sized

from craql import Frozen, Record
from craql.astcore import ProjectAst, source_text
from craql.results import escape_text, unescape_text  # unescape_text: re-exported


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


# The hot values below fill their slots through the slot descriptors, since
# a frozen record's own `__setattr__` refuses every assignment.

class NodeRef(Frozen):
    """Handle to a node in the current project's arena."""

    id: int

    def __init__(self, id: int):
        _set_id(self, id)


class NodeList(Frozen):
    ids: tuple[int, ...]

    def __init__(self, ids: tuple[int, ...]):
        _set_ids(self, ids)

    def __len__(self) -> int:
        return len(self.ids)


class TypeName(Frozen):
    """Internal value of a braced type literal; never stored in variables."""

    name: str

    def __init__(self, name: str):
        _set_name(self, name)


_set_id, _set_ids, _set_name = NodeRef.id.__set__, NodeList.ids.__set__, TypeName.name.__set__


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


class ExecutionStats(Record):
    nodes_visited: int = 0
    rows_yielded: int = 0
    files_parsed: int = 0


def row_fields(project: ProjectAst, node_id: int) -> tuple[str, int, str, str]:
    """The file name, line, node type and source text of the row at
    `node_id`."""
    return (project.files[project.file[node_id]].name, project.line[node_id],
            project.type[node_id], source_text(project, node_id))


def format_row(file: str, line: int, node_type: str, text: str) -> str:
    """One `.rows` line, without its newline: tab-separated fields, the
    source text escaped."""
    return f"{file}\t{line}\t{node_type}\t{escape_text(text)}"


class RowRecord(Frozen):
    """One emitted result-subtree record."""

    file: str
    line: int
    node_type: str
    text: str

    def __init__(self, file: str, line: int, node_type: str, text: str):
        _set_file(self, file)
        _set_line(self, line)
        _set_node_type(self, node_type)
        _set_text(self, text)

    def to_line(self) -> str:
        return format_row(self.file, self.line, self.node_type, self.text)


_set_file, _set_line = RowRecord.file.__set__, RowRecord.line.__set__
_set_node_type, _set_text = RowRecord.node_type.__set__, RowRecord.text.__set__


class OutputSink:
    """Collects print lines and result rows for one query document.

    A row stays its project and node id until it is read: `rows` builds its
    records and `render` its `.rows` text, so emitting renders nothing.
    """

    def __init__(self) -> None:
        self.prints: list[str] = []
        # The rows in emit order, as runs of node ids of one project each.
        self.runs: list[tuple[ProjectAst, list[int]]] = []

    def print_line(self, text: str) -> None:
        self.prints.append(text)

    def result_row(self, project: ProjectAst, node_id: int) -> None:
        runs = self.runs
        if not runs or runs[-1][0] is not project:
            runs.append((project, []))
        runs[-1][1].append(node_id)

    @property
    def row_count(self) -> int:
        return sum(len(ids) for _, ids in self.runs)

    @property
    def rows(self) -> list[RowRecord]:
        """The rows as records, built on each read."""
        return [RowRecord(*row_fields(project, n)) for project, ids in self.runs for n in ids]

    def render(self, lines: dict[ProjectAst, dict[int, str]]) -> str:
        """The rows as the text of a `.rows` file. `lines` holds, per
        project, the lines of the nodes rendered so far and gains the rest:
        sinks that share it render each node once."""
        out = []
        for project, ids in self.runs:
            known = lines.setdefault(project, {})
            for n in ids:
                line = known.get(n)
                if line is None:
                    line = known[n] = format_row(*row_fields(project, n)) + "\n"
                out.append(line)
        return "".join(out)
