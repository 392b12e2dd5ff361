"""The batch root's on-disk format: directory layout, list and text files,
the escaping of result values, CSV collation and the properties generator.

Directory conventions (under one root), which no other module spells:

    projects/<name>/**.mj     source files, or projects/<name>/project.ast.json
    queries/<file>.craql      query documents
    properties/<name>.properties
    properties/projecttags.csv
    results/<name>.vars, <name>.<query>.rows, craql_output.csv

Every file is read and written as UTF-8, whatever the locale. This module
imports nothing of the engine, the parsers or the binder, so `craql collate`
and `craql genprops` start without them.
"""

from __future__ import annotations

import csv
import io
import re
from itertools import zip_longest
from pathlib import Path

from craql import Record
from craql.diagnostics import Diagnostic

OUTPUT_CSV = "craql_output.csv"
PROJECT_TAGS = "projecttags.csv"
SERIALIZED_AST = "project.ast.json"
_BOM = "\ufeff".encode()  # the UTF-8 byte-order mark


class RunnerError(Exception):
    """Configuration or batch-level failure (bad lists, unparseable queries)."""


class RunConfig(Record):
    """A batch's root and the files listing its projects and query files;
    `craql collate` and `craql genprops` read no list and pass `None`."""
    root: Path
    project_list: Path | None
    query_list: Path | None

    projects_dir = property(lambda self: self.root / "projects")
    queries_dir = property(lambda self: self.root / "queries")
    properties_dir = property(lambda self: self.root / "properties")
    results_dir = property(lambda self: self.root / "results")

    def validate(self) -> None:
        """Check the directories and list files, then make `results/`."""
        for path in (self.projects_dir, self.queries_dir, self.properties_dir):
            if not path.is_dir():
                raise RunnerError(f"missing directory: {path}")
        for path in (self.project_list, self.query_list):
            if not path.is_file():
                raise RunnerError(f"missing list file: {path}")
        self.results_dir.mkdir(parents=True, exist_ok=True)


def result_files(results_dir: Path, project: str, doc_names: list[str]) -> list[Path]:
    """Project `project`'s result files: `<project>.vars`, then
    `<project>.<doc>.rows` for each query document name, in order."""
    return [results_dir / f"{project}.vars",
            *(results_dir / f"{project}.{doc_name}.rows" for doc_name in doc_names)]


def properties_file(properties_dir: Path, project: str) -> Path:
    return properties_dir / f"{project}.properties"


def read_text(path: Path, name: str) -> str:
    """The file's UTF-8 text, with `\\r\\n` and `\\r` read as `\\n` as
    `Path.read_text` reads them, and without one leading byte-order mark,
    as Python's own source reader drops it. A file that is not UTF-8 raises
    `RunnerError` with the diagnostic `name:line:column` at the first byte
    that does not decode, giving its value and offset in the file; line 1's
    columns count from after the mark. A file that cannot be read (a
    directory, a dangling link) raises `RunnerError` naming it and the
    reason."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise RunnerError(f"{name}: cannot read: {exc.strerror or exc}") from None
    mark = len(_BOM) if data.startswith(_BOM) else 0
    try:
        return data[mark:].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        start = mark + exc.start
        line_start = max(data.rfind(b"\n", 0, start) + 1, mark)
        raise RunnerError(str(Diagnostic(
            name, data.count(b"\n", 0, start) + 1, len(data[line_start:start].decode()) + 1,
            f"not UTF-8: byte 0x{data[start]:02x} at offset {start}",
        ))) from None


def read_list(path: Path) -> list[str]:
    names = []
    for raw in read_text(path, str(path)).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            names.append(line)
    return names


def is_project_name(name: str) -> bool:
    """Whether `name` can name a project: a name with a separator (an
    absolute one too), `.` or `..` would reach outside the directories
    that project files are read from and written to, and one with a NUL
    byte names no file at all."""
    return not ("/" in name or "\\" in name or "\0" in name or name in (".", ".."))


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


def vars_text(variables: dict[str, str]) -> str:
    """A `.vars` file's text, which `collate_csv` reads: sorted `key=value` lines."""
    return "".join(f"{key}={escape_text(variables[key])}\n" for key in sorted(variables))


def collate_csv(results_dir: Path) -> Path:
    """Collate all `.vars` files into one RFC-4180 CSV. A variable named
    `project`, which would repeat the first column, raises `RunnerError`."""
    vars_files = sorted(results_dir.glob("*.vars"))
    if not vars_files:
        raise RunnerError(f"no .vars files under {results_dir}")
    projects: dict[str, dict[str, str]] = {}
    for path in vars_files:
        values: dict[str, str] = {}
        # Values are escaped onto one line; other line breaks are text.
        for line in read_text(path, str(path)).split("\n"):
            if "=" in line:
                key, _, value = line.partition("=")
                values[key] = unescape_text(value)
        if "project" in values:
            raise RunnerError(f"{path}: variable 'project' collides with the project column")
        projects[path.stem] = values
    columns = sorted({key for values in projects.values() for key in values})
    out_path = results_dir / OUTPUT_CSV
    with out_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["project"] + columns)
        for name in sorted(projects):
            writer.writerow([name] + [projects[name].get(col, "") for col in columns])
    return out_path


def generate_props(properties_dir: Path) -> list[Path]:
    """Expand properties/projecttags.csv into per-project properties files.
    A header name that repeats, holds `=` or is `project` raises
    `RunnerError`, and so does a value that is under an empty header cell
    or past the header's last one, or whose line would span lines."""
    tags_path = properties_dir / PROJECT_TAGS
    if not tags_path.is_file():
        raise RunnerError(f"missing {tags_path}")
    rows = list(csv.reader(io.StringIO(read_text(tags_path, str(tags_path)))))
    if not rows:
        raise RunnerError(f"{tags_path} is empty")
    props = rows[0][1:]
    # The header and every row are checked before the first file is written,
    # so that each `key=value` line reads back as that key and value.
    seen: set[str] = set()
    for column, key in enumerate(props, start=2):
        name = key.strip()
        if "=" in key:
            raise RunnerError(f"{tags_path}: column {column}'s name {key!r} holds '='")
        if name in seen:
            raise RunnerError(f"{tags_path}: column {column} repeats the name {name!r}")
        if name == "project":
            raise RunnerError(f"{tags_path}: column {column}'s name 'project' collides "
                              f"with the project column")
        if name:
            seen.add(name)
    contents: dict[str, list[str]] = {}
    for row in rows[1:]:
        if not row or not row[0].strip():
            continue
        project = row[0].strip()
        if not is_project_name(project):
            raise RunnerError(f"bad project name in {tags_path}: {project!r}")
        if project in contents:
            raise RunnerError(f"duplicate project row: {project}")
        lines = contents[project] = []
        for column, (key, value) in enumerate(zip_longest(props, row[1:], fillvalue=""),
                                              start=2):
            if value.strip() == "":
                continue
            if not key.strip():
                raise RunnerError(f"{tags_path}: column {column} has no name, "
                                  f"but project {project} has a value in it")
            line = f"{key}={value.strip()}"
            if len(line.splitlines()) > 1:  # the line breaks `load_properties` splits at
                raise RunnerError(f"{tags_path}: column {column}'s name or project "
                                  f"{project}'s value in it spans lines")
            lines.append(line)
    written: list[Path] = []
    for project, lines in contents.items():
        path = properties_file(properties_dir, project)
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        written.append(path)
    return written
