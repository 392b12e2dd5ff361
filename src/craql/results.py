"""The batch root's on-disk format: directory layout, list and text files,
the escaping of result values, CSV collation and the properties generator.

Directory conventions (under one root):

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
from pathlib import Path

from craql import Record
from craql.diagnostics import Diagnostic

OUTPUT_CSV = "craql_output.csv"
PROJECT_TAGS = "projecttags.csv"


class RunnerError(Exception):
    """Configuration or batch-level failure (bad lists, unparseable queries)."""


class RunConfig(Record):
    projects_dir: Path
    queries_dir: Path
    properties_dir: Path
    results_dir: Path
    project_list: Path
    query_list: Path

    @classmethod
    def from_root(cls, root: Path, project_list: Path, query_list: Path) -> "RunConfig":
        return cls(
            projects_dir=root / "projects",
            queries_dir=root / "queries",
            properties_dir=root / "properties",
            results_dir=root / "results",
            project_list=project_list,
            query_list=query_list,
        )

    def validate(self) -> None:
        """Check the directories and list files, then make `results/`."""
        for path in (self.projects_dir, self.queries_dir, self.properties_dir):
            if not path.is_dir():
                raise RunnerError(f"missing directory: {path}")
        for path in (self.project_list, self.query_list):
            if not path.is_file():
                raise RunnerError(f"missing list file: {path}")
        self.results_dir.mkdir(parents=True, exist_ok=True)


def read_text(path: Path, name: str) -> str:
    """The file's UTF-8 text, with `\\r\\n` and `\\r` read as `\\n` as
    `Path.read_text` reads them. A file that is not UTF-8 raises
    `RunnerError` with the diagnostic `name:line:column` at the first byte
    that does not decode, giving its value and offset."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        start = exc.start
        line_start = data.rfind(b"\n", 0, start) + 1
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
    that project files are read from and written to."""
    return not ("/" in name or "\\" in name or name in (".", ".."))


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


def collate_csv(results_dir: Path) -> Path:
    """Collate all `.vars` files into one RFC-4180 CSV."""
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
    """Expand properties/projecttags.csv into per-project properties files."""
    tags_path = properties_dir / PROJECT_TAGS
    if not tags_path.is_file():
        raise RunnerError(f"missing {tags_path}")
    rows = list(csv.reader(io.StringIO(read_text(tags_path, str(tags_path)))))
    if not rows:
        raise RunnerError(f"{tags_path} is empty")
    header = rows[0]
    props = header[1:]
    # Every row is checked before the first file is written.
    contents: dict[str, list[str]] = {}
    for row in rows[1:]:
        if not row or not row[0].strip():
            continue
        project = row[0].strip()
        if not is_project_name(project):
            raise RunnerError(f"bad project name in {tags_path}: {project!r}")
        if project in contents:
            raise RunnerError(f"duplicate project row: {project}")
        contents[project] = [
            f"{key}={value.strip()}"
            for key, value in zip(props, row[1:])
            if value.strip() != ""
        ]
    written: list[Path] = []
    for project, lines in contents.items():
        path = properties_dir / f"{project}.properties"
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        written.append(path)
    return written
