"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import batch  # noqa: E402
import corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    for m in declared:
        assert f"{m['name']} " in proc.stdout
    if trace:
        assert result["metrics"]["oracle.mismatches"]["value"] == 0


def test_corrupted_output_fails_its_project(tmp_path):
    c = corpus.generate("corpus", 5, tmp_path / "batch", smoke=True)
    env = batch.child_env(ROOT / "src")
    good = batch.run_batch(c, env, 170, traced=False)
    assert batch.failed_projects(good, None) == []

    victim = c.projects[-1]
    rows = tmp_path / "batch" / "results" / f"{victim}.bound_calls.rows"
    rows.write_text(rows.read_text() + "extra\trow\n")
    stdout = (c.root / "logs" / "run.out").read_bytes()
    corrupted = dataclasses.replace(good, digest=batch.output_digest(c, stdout))
    assert batch.failed_projects(corrupted, good.digest) == [victim]

    (tmp_path / "batch" / "results" / "craql_output.csv").write_text("project\n")
    corrupted.digest = batch.output_digest(c, b"")
    assert batch.failed_projects(corrupted, good.digest) == c.projects


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "corpus", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
