"""Batch executor: project/query lists, properties, per-project outputs,
result records, CSV collation, and the properties generator.

Directory conventions (under one root):

    projects/<name>/**.mj     source files, or projects/<name>/project.ast.json
    queries/<file>.craql      query documents
    properties/<name>.properties
    properties/projecttags.csv
    results/<name>.vars, <name>.<query>.rows, craql_output.csv
"""

from __future__ import annotations

import csv
import io
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from craql.astcore import AstFormatError, deserialize_project, ProjectAst
from craql.diagnostics import Diagnostic
from craql.engine.evaluator import Evaluator, QueryRuntimeError
from craql.engine.runtime import (
    Environment,
    ExecutionStats,
    OutputSink,
    escape_text,
    unescape_text,
)
from craql.minilang import load_project
from craql.query.ast import QueryDocument
from craql.query.parser import parse_query_document
from craql.query.tokens import QuerySyntaxError

logger = logging.getLogger("craql")

OUTPUT_CSV = "craql_output.csv"
PROJECT_TAGS = "projecttags.csv"
SERIALIZED_AST = "project.ast.json"


class RunnerError(Exception):
    """Configuration or batch-level failure (bad lists, unparseable queries)."""


@dataclass
class RunConfig:
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
        self.results_dir.mkdir(parents=True, exist_ok=True)
        for path in (self.projects_dir, self.queries_dir, self.properties_dir):
            if not path.is_dir():
                raise RunnerError(f"missing directory: {path}")
        for path in (self.project_list, self.query_list):
            if not path.is_file():
                raise RunnerError(f"missing list file: {path}")


@dataclass
class ProjectRunRecord:
    project: str
    variables: dict[str, str] = field(default_factory=dict)
    row_counts: dict[str, int] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    print_lines: list[str] = field(default_factory=list)
    aborted: bool = False


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


def load_properties(properties_dir: Path, project: str) -> dict[str, object]:
    """Parse <project>.properties; integers and true/false are converted."""
    path = properties_dir / f"{project}.properties"
    seed: dict[str, object] = {}
    if not path.is_file():
        return seed
    for lineno, raw in enumerate(read_text(path, str(path)).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            logger.warning("%s:%d: skipping malformed line %r", path, lineno, line)
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value in ("true", "false"):
            seed[key] = value == "true"
        else:
            try:
                seed[key] = int(value)
            except ValueError:
                seed[key] = value
    return seed


def render_variable(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def load_project_sources(project_dir: Path, name: str) -> tuple[ProjectAst, list[str]]:
    """Parse the project once: `.mj` sources, or a serialized-AST document.
    A source that is not UTF-8 is skipped with a diagnostic."""
    serialized = project_dir / SERIALIZED_AST
    if serialized.is_file():
        try:
            text = read_text(serialized, SERIALIZED_AST)
        except RunnerError as exc:
            raise AstFormatError(str(exc)) from None
        project = deserialize_project(text)
        project.name = name
        return project, []
    sources, skipped = [], []
    for path in sorted(project_dir.rglob("*.mj")):
        file_name = path.relative_to(project_dir).as_posix()
        try:
            sources.append((file_name, read_text(path, file_name)))
        except RunnerError as exc:
            skipped.append(str(exc))
    project, diagnostics = load_project(name, sources)
    return project, skipped + [str(d) for d in diagnostics]


def is_project_name(name: str) -> bool:
    """Whether `name` can name a project: a name with a separator (an
    absolute one too), `.` or `..` would reach outside the directories
    that project files are read from and written to."""
    return not ("/" in name or "\\" in name or name in (".", ".."))


def run_project(
    name: str,
    config: RunConfig,
    docs: list[tuple[str, QueryDocument]],
) -> ProjectRunRecord:
    record = ProjectRunRecord(project=name)
    project_dir = config.projects_dir / name
    if not is_project_name(name) or not project_dir.is_dir():
        record.aborted = True
        record.diagnostics.append(f"project directory missing: {project_dir}")
        logger.error("skipping %s: no directory %s", name, project_dir)
        return record

    # Any failure confined to one project skips only that project; the
    # traceback of an unexpected one goes to the log.
    try:
        project, diagnostics = load_project_sources(project_dir, name)
        seed = load_properties(config.properties_dir, name)
    except (AstFormatError, RunnerError) as exc:
        record.aborted = True
        record.diagnostics.append(str(exc))
        logger.error("skipping %s: %s", name, exc)
        return record
    except Exception as exc:
        record.aborted = True
        record.diagnostics.append(f"loading {name} failed: {type(exc).__name__}: {exc}")
        logger.exception("skipping %s", name)
        return record
    record.diagnostics.extend(diagnostics)
    for diagnostic in diagnostics:
        logger.warning("%s: %s", name, diagnostic)
    record.stats.files_parsed = project.files_parsed

    env = Environment(seed)
    sinks: list[tuple[str, OutputSink]] = []
    for doc_name, doc in docs:
        sink = OutputSink()
        sinks.append((doc_name, sink))
        evaluator = Evaluator(project, env, sink, source=doc.source)
        try:
            evaluator.execute_document(doc)
        except QueryRuntimeError as exc:
            record.aborted = True
            record.diagnostics.append(f"query {doc_name} failed on {name}: {exc}")
            logger.error("aborting %s: %s", name, exc)
            return record
        except Exception as exc:
            record.aborted = True
            record.diagnostics.append(
                f"query {doc_name} failed on {name}: {type(exc).__name__}: {exc}"
            )
            logger.exception("aborting %s", name)
            return record
        record.row_counts[doc_name] = len(sink.rows)
        record.print_lines.extend(sink.prints)
        record.stats.nodes_visited += evaluator.stats.nodes_visited
        record.stats.rows_yielded += evaluator.stats.rows_yielded

    record.variables = {
        key: render_variable(value) for key, value in env.exported().items()
    }
    if project.degraded_output:
        message = "source text missing: rows and prints show <Type@file:line> placeholders"
        record.diagnostics.append(message)
        logger.warning("%s: %s", name, message)
    _write_outputs(record, config, sinks)
    return record


def _write_outputs(
    record: ProjectRunRecord, config: RunConfig, sinks: list[tuple[str, OutputSink]]
) -> None:
    vars_path = config.results_dir / f"{record.project}.vars"
    lines = [f"{key}={escape_text(record.variables[key])}" for key in sorted(record.variables)]
    vars_path.write_text("\n".join(lines) + ("\n" if lines else ""))
    for doc_name, sink in sinks:
        rows_path = config.results_dir / f"{record.project}.{doc_name}.rows"
        rows_path.write_text("".join(rec.to_line() + "\n" for rec in sink.rows))


def run_batch(config: RunConfig) -> tuple[int, list[ProjectRunRecord]]:
    """Execute every query document against every listed project.

    Returns the exit status and per-project records. The status is nonzero
    when any project was skipped or aborted.
    """
    config.validate()
    project_names = read_list(config.project_list)
    query_names = read_list(config.query_list)
    if not project_names or not query_names:
        raise RunnerError("project and query lists must be non-empty")

    # An unparseable query aborts the batch before any project runs.
    docs: list[tuple[str, QueryDocument]] = []
    for qname in query_names:
        qpath = config.queries_dir / qname
        if not qpath.is_file():
            raise RunnerError(f"missing query file: {qpath}")
        try:
            doc = parse_query_document(read_text(qpath, str(qpath)), source=qname)
        except QuerySyntaxError as exc:
            raise RunnerError(f"unparseable query file {qname}: {exc}") from exc
        docs.append((qpath.stem, doc))

    records = [run_project(name, config, docs) for name in project_names]

    for record in records:
        for line in record.print_lines:
            sys.stdout.write(line + "\n")
    status = 1 if any(r.aborted for r in records) else 0
    return status, records


def collate_csv(results_dir: Path, output_name: str = OUTPUT_CSV) -> Path:
    """Collate all `.vars` files into one RFC-4180 CSV."""
    vars_files = sorted(results_dir.glob("*.vars"))
    if not vars_files:
        raise RunnerError(f"no .vars files under {results_dir}")
    projects: dict[str, dict[str, str]] = {}
    for path in vars_files:
        values: dict[str, str] = {}
        # Values are escaped onto one line; other line breaks are text.
        for line in path.read_text().split("\n"):
            if "=" in line:
                key, _, value = line.partition("=")
                values[key] = unescape_text(value)
        projects[path.stem] = values
    columns = sorted({key for values in projects.values() for key in values})
    out_path = results_dir / output_name
    with out_path.open("w", newline="") as handle:
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
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        written.append(path)
    return written
