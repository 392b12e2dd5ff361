"""Record the benchmark's reference digests and baseline in baseline.json.

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline

`digests` runs two batches per workload on its default and its held-out
seed, requires them to agree with each other and engine == oracle on the
sampled projects, and stores the output digests that later runs on those
seeds must reproduce. Run it only on a commit whose outputs are known good.

`baseline` runs `run.py` ten times per workload, on seeds 1 to 10, for
BENCHMARK.json's `run_seconds`, and once traced on the default seed. It
records each end-to-end metric's median, quartiles and spread (interquartile
range over median) with the bound from BENCHMARK.json, each layer's share of
the traced batch, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import batch  # noqa: E402
import corpus  # noqa: E402
import traceshim  # noqa: E402
from run import BASELINE, ORACLE_SAMPLE, ROOT, SPEC, SRC, WORK  # noqa: E402

RUNS = 10


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}


def save_baseline(data: dict) -> None:
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def record_digests() -> dict:
    env = batch.child_env(SRC)
    digests: dict[str, dict] = {}
    for workload in corpus.WORKLOADS:
        for seed in (corpus.DEFAULT_SEEDS[workload], corpus.HELD_OUT_SEEDS[workload]):
            work = WORK / f"record-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                c = corpus.generate(workload, seed, work / "batch")
                first = batch.run_batch(c, env, 170, traced=False)
                second = batch.run_batch(c, env, 170, traced=False)
                failed = batch.failed_projects(first, None)
                if failed or first.digest != second.digest:
                    raise SystemExit(f"{workload} seed {seed}: outputs failed or unstable {failed}")
                checked, mismatches, _ = batch.oracle_check(c, c.projects[:ORACLE_SAMPLE])
                if mismatches:
                    raise SystemExit(f"{workload} seed {seed}: {mismatches} oracle mismatches")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            digests.setdefault(workload, {})[str(seed)] = first.digest
            print(f"{workload} seed {seed}: {len(c.projects)} projects, {c.loc} LOC, "
                  f"{checked} selections == oracle", file=sys.stderr)
    return digests


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
    }


def record_baseline() -> dict:
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict[str, dict] = {}
    for workload in corpus.WORKLOADS:
        results = []
        for seed in range(1, RUNS + 1):
            results.append(bench(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                  file=sys.stderr)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            metrics[name] = {"values": values, "median": mid, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / mid, "bound": bound}
            flag = "ok" if (q3 - q1) / mid < bound / 3 else "WIDE"
            print(f"{workload} {name}: median {mid:.4g}, spread {(q3 - q1) / mid:.3f} "
                  f"(bound {bound}) {flag}", file=sys.stderr)
        traced = bench(workload, corpus.DEFAULT_SEEDS[workload], seconds, 1)["metrics"]
        total = traced["trace.batch_s"]["value"]
        shares = {layer: traced[f"{layer}.self_s"]["value"] / total for layer in traceshim.LAYERS}
        shares["uncovered"] = traced["trace.uncovered_s"]["value"] / total
        out[workload] = {
            "seeds": list(range(1, RUNS + 1)),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "layer_shares": shares,
            "traced": {name: m["value"] for name, m in traced.items()},
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("digests")
    sub.add_parser("baseline")
    args = parser.parse_args(argv)

    data = load_baseline()
    if args.command == "digests":
        data["digests"] = record_digests()
        data["seeds"] = {"default": corpus.DEFAULT_SEEDS, "held_out": corpus.HELD_OUT_SEEDS}
    else:
        data["runs"] = record_baseline()
        data["machine"] = machine()
    save_baseline(data)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
