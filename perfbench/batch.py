"""Launching `craql` batches on a generated corpus and checking their outputs."""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import Corpus
from craql.engine.evaluator import Evaluator
from craql.engine.runtime import Environment, OutputSink
from craql.oracle import compare, replay_capture
from craql.query.parser import parse_query_document
from craql.runner import load_project_sources, load_properties

SHIM = Path(__file__).resolve().parent / "traceshim.py"


class LaunchError(Exception):
    """A child process was killed: it ran past its time limit or crashed."""


@dataclass
class Launch:
    start: float           # time.perf_counter() at launch
    wall_s: float
    cpu_s: float           # user plus system time
    peak_rss_mb: float
    status: int


def launch(argv: list[str], env: dict[str, str], out_path: Path, timeout: float) -> Launch:
    """Run one child to completion; its stdout goes to `out_path`, stderr beside it."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise LaunchError(f"{argv[1:4]} killed by signal {-proc.returncode} after {wall:.0f} s "
                          f"(limit {timeout:.0f} s)")
    return Launch(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@dataclass
class BatchResult:
    start: float           # time.perf_counter() at the batch's launch
    wall_s: float          # batch plus collate
    cpu_s: float           # batch plus collate
    peak_rss_mb: float     # of the batch process
    statuses: tuple[int, int]
    digest: dict
    traces: list[Path]


def run_batch(corpus: Corpus, env: dict[str, str], timeout: float, traced: bool) -> BatchResult:
    """One `craql -P -Q` batch plus `craql collate`, each in a fresh process."""
    results = corpus.root / "results"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir()
    logs = corpus.root / "logs"
    logs.mkdir(exist_ok=True)
    run_args = ["-P", str(corpus.project_list), "-Q", str(corpus.query_list),
                "--dirs", str(corpus.root)]
    collate_args = ["collate", "--dirs", str(corpus.root)]
    traces: list[Path] = []
    launches = []
    for step, args in (("run", run_args), ("collate", collate_args)):
        if traced:
            traces.append(logs / f"{step}.spans.json")
            argv = [sys.executable, str(SHIM), str(traces[-1]), *args]
        else:
            argv = [sys.executable, "-m", "craql.cli", *args]
        launches.append(launch(argv, env, logs / f"{step}.out", timeout))
    run, collate = launches
    return BatchResult(
        run.start,
        run.wall_s + collate.wall_s,
        run.cpu_s + collate.cpu_s,
        run.peak_rss_mb,
        (run.status, collate.status),
        output_digest(corpus, (logs / "run.out").read_bytes()),
        traces,
    )


def _hash(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def output_digest(corpus: Corpus, stdout: bytes) -> dict:
    """Digests of each project's `.vars` and `.rows` files, the CSV and stdout.

    A project without a `.vars` file (skipped or aborted) digests to None.
    """
    results = corpus.root / "results"
    stems = [Path(q).stem for q in corpus.queries]
    projects = {}
    for name in corpus.projects:
        vars_path = results / f"{name}.vars"
        if not vars_path.is_file():
            projects[name] = None
            continue
        parts = []
        for path in [vars_path] + [results / f"{name}.{stem}.rows" for stem in stems]:
            parts += [path.name.encode(), path.read_bytes() if path.is_file() else b"\0missing"]
        projects[name] = _hash(*parts)
    csv_path = results / "craql_output.csv"
    return {
        "projects": projects,
        "csv": _hash(csv_path.read_bytes()) if csv_path.is_file() else None,
        "stdout": _hash(stdout),
    }


def failed_projects(result: BatchResult, reference: dict | None) -> list[str]:
    """Projects whose outputs are missing or differ from `reference`.

    A wrong CSV or stdout, or a failing exit status no project explains,
    fails every project of the batch: the collated product is wrong.
    """
    observed = result.digest
    failed = [
        name for name, digest in observed["projects"].items()
        if digest is None or (reference is not None and reference["projects"].get(name) != digest)
    ]
    batch_wrong = observed["csv"] is None or (
        reference is not None
        and (observed["csv"], observed["stdout"]) != (reference["csv"], reference["stdout"])
    )
    if batch_wrong or (any(result.statuses) and not failed):
        return list(observed["projects"])
    return failed


def oracle_check(corpus: Corpus, sample: list[str]) -> tuple[int, int, list[str]]:
    """Engine == oracle on every selection the sampled projects run.

    Runs the query list over each project the way the runner does (one
    environment per project, documents in list order), captures each select
    and replays it through `craql.oracle`. Returns selections checked,
    mismatches and the projects with a mismatch.
    """
    docs = [
        parse_query_document((corpus.root / "queries" / q).read_text(), source=q)
        for q in corpus.queries
    ]
    checked = mismatches = 0
    failed = []
    for name in sample:
        project, _ = load_project_sources(corpus.root / "projects" / name, name)
        env = Environment(load_properties(corpus.root / "properties", name))
        bad = 0
        for doc in docs:
            captures = []
            evaluator = Evaluator(project, env, OutputSink(), source=doc.source)
            evaluator.trace = captures.append
            evaluator.execute_document(doc)
            for capture in captures:
                report = compare(project, capture.rows, replay_capture(project, capture))
                checked += 1
                bad += not report.empty
        mismatches += bad
        if bad:
            failed.append(name)
    return checked, mismatches, failed
