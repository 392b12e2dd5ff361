"""Batch executor: loads each listed project once, runs the query documents
over it and writes its result files. `craql.results` owns the directory
layout and the file formats.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from pathlib import Path

from craql import Record
from craql.astcore import AstFormatError, deserialize_project, ProjectAst
from craql.engine.evaluator import MAX_INT_DIGITS, Evaluator, QueryRuntimeError
from craql.engine.runtime import Environment, ExecutionStats, OutputSink, render_value
from craql.minilang import load_project
from craql.minilang.schema import MINILANG_SCHEMA
from craql.query.ast import QueryDocument
from craql.query.parser import parse_query_document
from craql.query.tokens import QuerySyntaxError
from craql.query.validate import validate_against_schema
from craql.results import (SERIALIZED_AST, RunConfig, RunnerError, is_project_name,
                           properties_file, read_list, read_text, result_files, vars_text)

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
    A project without the entry has no properties; an entry that cannot be
    read, such as a directory or a dangling link, raises `RunnerError`.
    A line without `=`, or with nothing before it, is skipped with a warning.
    An integer of more than `MAX_INT_DIGITS` digits past its leading zeros,
    the bound on query results, raises `RunnerError`: one `++` on it might
    not render."""
    path = properties_file(properties_dir, project)
    seed: dict[str, object] = {}
    if not os.path.lexists(path):
        return seed
    for lineno, raw in enumerate(read_text(path, str(path)).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            _log("warning", "%s:%d: skipping malformed line %r", path, lineno, line)
            continue
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


def load_project_sources(project_dir: Path, name: str) -> tuple[ProjectAst, list[str]]:
    """Parse the project once: its `.mj` sources, or the serialized-AST
    document when an entry of that name exists, whatever its kind. A `.mj`
    source that is not UTF-8, or cannot be read, is skipped with a
    diagnostic; such a document (a directory or a dangling link, say)
    raises `RunnerError`."""
    serialized = project_dir / SERIALIZED_AST
    if os.path.lexists(serialized):
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
    # A name that names no project is shown quoted, so that a control
    # character in it reaches no log or diagnostic raw.
    valid = is_project_name(name)
    shown = name if valid else repr(name)
    # Any failure confined to one project aborts only that project, with one
    # diagnostic that `doing` prefixes with the stage it interrupted; the
    # traceback of an unexpected one goes to the log.
    doing = ""
    try:
        if not valid or not project_dir.is_dir():
            raise RunnerError(f"project directory missing: {config.projects_dir / shown}")
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
            key: render_value(value, project) for key, value in env.exported().items()
        }
        # Rendering the rows reads their source text, which may be missing.
        outputs = _render_outputs(record, config, project, sinks)
        if project.degraded_output:
            message = "source text missing: rows and prints show <Type@file:line> placeholders"
            record.diagnostics.append(message)
            _log("warning", "%s: %s", name, message)
        for path, data in outputs.items():
            path.write_bytes(data)
    except Exception as exc:
        record.aborted = True
        if isinstance(exc, (AstFormatError, RunnerError, QueryRuntimeError)):
            record.diagnostics.append(f"{doing}{exc}")
            _log("error", "aborting %s: %s", shown, exc)
        else:
            record.diagnostics.append(f"{doing}{type(exc).__name__}: {exc}")
            _log("error", "aborting %s", shown, exc_info=True)
        if doing.startswith("writing"):
            # The project's results go whole: its prints too, which the
            # batch's stdout might not be able to encode either.
            record.print_lines.clear()
        if valid:
            _remove_results(name, config, docs)
    return record


def _render_outputs(
    record: ProjectRunRecord, config: RunConfig, project: ProjectAst,
    sinks: list[tuple[str, OutputSink]],
) -> dict[Path, bytes]:
    """The bytes of the project's `.vars` and `.rows` files, by path. The
    documents share one rendering of each row node."""
    rendered: dict[int, str] = {}
    texts = [vars_text(record.variables)] + [sink.render(project, rendered) for _, sink in sinks]
    paths = result_files(config.results_dir, record.project, [doc_name for doc_name, _ in sinks])
    return {path: text.encode("utf-8") for path, text in zip(paths, texts)}


def _remove_results(name: str, config: RunConfig, docs: list[tuple[str, QueryDocument]]) -> None:
    """Remove, by exact name, each result file of project `name` that this
    batch writes: an aborted project keeps none, from this batch or an
    earlier one, for `collate` to read as its results."""
    for path in result_files(config.results_dir, name, [doc_name for doc_name, _ in docs]):
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            if not path.is_dir():  # a directory is no result file
                _log("warning", "%s: cannot remove %s: %s", name, path, exc)


def run_batch(config: RunConfig) -> tuple[int, list[ProjectRunRecord]]:
    """Execute every query document against every listed project.

    Returns the exit status and per-project records. The status is nonzero
    when any project was skipped or aborted.

    The batch runs with the cyclic garbage collector off, and the caller's
    setting is back when it returns. A batch makes no reference cycles, so
    reference counting alone frees what it drops, and the hundreds of
    collections its allocations would set off, mostly while loading, would
    each find nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_batch(config)
    finally:
        if enabled:
            gc.enable()


def _run_batch(config: RunConfig) -> tuple[int, list[ProjectRunRecord]]:
    config.validate()
    project_names = read_list(config.project_list)
    query_names = read_list(config.query_list)
    if not project_names or not query_names:
        raise RunnerError("project and query lists must be non-empty")

    # An unparseable query, one that names a node type the schema lacks, or
    # two whose results would share a name, aborts the batch before any
    # project runs. The schema is MiniLang's, the only one a batch loads
    # unless a library caller registers another; an accessor that no type
    # declares gets one warning.
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
        for fault in validate_against_schema(doc, MINILANG_SCHEMA):
            located = f"{fault.file}:{fault.line}:{fault.column}: {fault.message}"
            if fault.severity == "error":
                raise RunnerError(f"invalid query file {qname}: {located}")
            _log("warning", "%s", located)
        docs.append((qpath.stem, doc))
    # So do two (project, query) pairs that would write one `.rows` file:
    # the second would overwrite the first, and an abort of either project
    # would remove the other's results.
    writers: dict[Path, tuple[str, str]] = {}  # .rows file -> (project, query file)
    for name in filter(is_project_name, project_names):
        _, *rows_paths = result_files(config.results_dir, name, list(query_files))
        for rows_path, qname in zip(rows_paths, query_files.values()):
            # One project's result names all differ, so a project finds
            # itself here only when the list names it twice.
            first, first_query = writers.setdefault(rows_path, (name, qname))
            if first != name:
                raise RunnerError(f"project {first} with query file {first_query} and project "
                                  f"{name} with query file {qname} both write {rows_path}")

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
