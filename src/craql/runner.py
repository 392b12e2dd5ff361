"""Batch executor: loads each listed project once, runs the query documents
over it and writes its result files. `craql.results` owns the directory
layout and the file formats.
"""

from __future__ import annotations

import contextlib
import re
import sys
from pathlib import Path

from craql import Record
from craql.astcore import AstFormatError, deserialize_project, ProjectAst
from craql.engine.evaluator import MAX_INT_DIGITS, Evaluator, QueryRuntimeError
from craql.engine.runtime import Environment, ExecutionStats, OutputSink
from craql.minilang import load_project
from craql.query.ast import QueryDocument
from craql.query.parser import parse_query_document
from craql.query.tokens import QuerySyntaxError
# Also re-exports the names that lived here before `craql.results` took them.
from craql.results import (
    OUTPUT_CSV,
    PROJECT_TAGS,
    RunConfig,
    RunnerError,
    collate_csv,
    escape_text,
    generate_props,
    is_project_name,
    read_list,
    read_text,
    unescape_text,
)

SERIALIZED_AST = "project.ast.json"

# The format of the stderr handler that the first log record sets up
# (`logging.basicConfig`); None leaves logging's set-up to the caller. The
# CLI sets it.
log_format: str | None = None


def _log(level: str, message: str, *args, exc_info: bool = False) -> None:
    """Log to the `craql` logger at `level` ("warning", "error"). `logging`
    is imported on first use, so a batch that logs nothing never loads it."""
    import logging

    if log_format is not None:
        logging.basicConfig(format=log_format)
    getattr(logging.getLogger("craql"), level)(message, *args, exc_info=exc_info)


class ProjectRunRecord(Record):
    project: str
    variables: dict[str, str]
    row_counts: dict[str, int]
    diagnostics: list[str]
    stats: ExecutionStats
    print_lines: list[str]
    aborted: bool

    def __init__(self, project: str):
        self.project = project
        self.variables, self.row_counts, self.diagnostics = {}, {}, []
        self.stats, self.print_lines, self.aborted = ExecutionStats(), [], False


# What `int` reads as an integer: a sign, then digits with single underscores.
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def load_properties(properties_dir: Path, project: str) -> dict[str, object]:
    """Parse <project>.properties; integers and true/false are converted.
    An integer of more than `MAX_INT_DIGITS` digits past its leading zeros,
    the bound on query results, raises `RunnerError`: one `++` on it might
    not render."""
    path = properties_dir / f"{project}.properties"
    seed: dict[str, object] = {}
    if not path.is_file():
        return seed
    for lineno, raw in enumerate(read_text(path, str(path)).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            _log("warning", "%s:%d: skipping malformed line %r", path, lineno, line)
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value in ("true", "false"):
            seed[key] = value == "true"
        elif _INTEGER.fullmatch(value):
            # `int` counts leading zeros against its own, larger bound.
            digits = value.lstrip("+-").replace("_", "").lstrip("0")
            if len(digits) > MAX_INT_DIGITS:
                raise RunnerError(f"{path}:{lineno}: integer longer than {MAX_INT_DIGITS} digits")
            number = int(digits or "0")
            seed[key] = -number if value[0] == "-" else number
        else:
            seed[key] = value
    return seed


def render_variable(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def load_project_sources(project_dir: Path, name: str) -> tuple[ProjectAst, list[str]]:
    """Parse the project once: `.mj` sources, or a serialized-AST document.
    A `.mj` source that is not UTF-8 is skipped with a diagnostic; a
    serialized document that is not UTF-8 raises `RunnerError`."""
    serialized = project_dir / SERIALIZED_AST
    if serialized.is_file():
        project = deserialize_project(read_text(serialized, SERIALIZED_AST))
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


def run_project(
    name: str,
    config: RunConfig,
    docs: list[tuple[str, QueryDocument]],
) -> ProjectRunRecord:
    record = ProjectRunRecord(project=name)
    project_dir = config.projects_dir / name
    # Any failure confined to one project aborts only that project, with one
    # diagnostic that `doing` prefixes with the stage it interrupted; the
    # traceback of an unexpected one goes to the log.
    doing = ""
    try:
        if not is_project_name(name) or not project_dir.is_dir():
            raise RunnerError(f"project directory missing: {project_dir}")
        project, diagnostics = load_project_sources(project_dir, name)
        seed = load_properties(config.properties_dir, name)
        record.diagnostics.extend(diagnostics)
        for diagnostic in diagnostics:
            _log("warning", "%s: %s", name, diagnostic)
        record.stats.files_parsed = project.files_parsed

        env = Environment(seed)
        sinks: list[tuple[str, OutputSink]] = []
        for doc_name, doc in docs:
            doing = f"query {doc_name} failed on {name}: "
            sink = OutputSink()
            sinks.append((doc_name, sink))
            evaluator = Evaluator(project, env, sink, source=doc.source)
            evaluator.execute_document(doc)
            record.row_counts[doc_name] = len(sink.rows)
            record.print_lines.extend(sink.prints)
            record.stats.nodes_visited += evaluator.stats.nodes_visited
            record.stats.rows_yielded += evaluator.stats.rows_yielded

        doing = f"writing {name}'s results failed: "
        record.variables = {
            key: render_variable(value) for key, value in env.exported().items()
        }
        if project.degraded_output:
            message = "source text missing: rows and prints show <Type@file:line> placeholders"
            record.diagnostics.append(message)
            _log("warning", "%s: %s", name, message)
        _write_outputs(record, config, sinks)
    except Exception as exc:
        record.aborted = True
        if isinstance(exc, (AstFormatError, RunnerError, QueryRuntimeError)):
            record.diagnostics.append(f"{doing}{exc}")
            _log("error", "aborting %s: %s", name, exc)
        else:
            record.diagnostics.append(f"{doing}{type(exc).__name__}: {exc}")
            _log("error", "aborting %s", name, exc_info=True)
        if doing.startswith("writing"):
            # The project's results go whole: its prints too, which the
            # batch's stdout might not be able to encode either.
            record.print_lines.clear()
    return record


def _write_outputs(
    record: ProjectRunRecord, config: RunConfig, sinks: list[tuple[str, OutputSink]]
) -> None:
    """Write the project's `.vars` and `.rows` files: all of them, or, when
    one cannot be encoded or written, none."""
    lines = [f"{key}={escape_text(record.variables[key])}" for key in sorted(record.variables)]
    texts = {config.results_dir / f"{record.project}.vars":
             "\n".join(lines) + ("\n" if lines else "")}
    for doc_name, sink in sinks:
        texts[config.results_dir / f"{record.project}.{doc_name}.rows"] = "".join(
            rec.to_line() + "\n" for rec in sink.rows)
    encoded = {path: text.encode("utf-8") for path, text in texts.items()}
    try:
        for path, data in encoded.items():
            path.write_bytes(data)
    except OSError:
        for path in encoded:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


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

    # An unparseable query, or two whose results would share a name, aborts
    # the batch before any project runs.
    docs: list[tuple[str, QueryDocument]] = []
    query_files: dict[str, str] = {}  # result name -> query file
    for qname in query_names:
        qpath = config.queries_dir / qname
        if not qpath.is_file():
            raise RunnerError(f"missing query file: {qpath}")
        if qpath.stem in query_files:
            raise RunnerError(f"query files {query_files[qpath.stem]} and {qname} both write "
                              f"results named {qpath.stem}")
        query_files[qpath.stem] = qname
        try:
            doc = parse_query_document(read_text(qpath, str(qpath)), source=qname)
        except QuerySyntaxError as exc:
            raise RunnerError(f"unparseable query file {qname}: {exc}") from exc
        docs.append((qpath.stem, doc))

    records = [run_project(name, config, docs) for name in project_names]

    # UTF-8 bytes whatever encoding the locale gave sys.stdout.
    # A text stream with no byte buffer (io.StringIO, say) takes the text.
    text = "".join(line + "\n" for record in records for line in record.print_lines)
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        buffer.write(text.encode("utf-8"))
        buffer.flush()
    status = 1 if any(r.aborted for r in records) else 0
    return status, records
