"""Batch benchmark for the `craql` CLI.

    python3 perfbench/run.py --workload corpus --seed 99 --seconds 30 --trace 0

Each run generates the workload's corpus from the seed under `.perfbench/`
in the checkout (generation is not timed), then repeats, while the measuring
window lasts, one batch: `craql -P ... -Q ...` and `craql collate`, each in a
fresh interpreter. Every batch's outputs (each project's `.vars` and `.rows`
files, the CSV and the batch's stdout) are digested and compared with the
digests recorded in `baseline.json` for that seed, or else with the run's
first batch. A sample of projects is also checked engine == oracle
selection by selection. A project whose outputs are missing or differ fails.

`--trace 0` reports the end-to-end metrics: median batch time, corpus LOC
per second, setup time (median over fresh launches of the CLI on one empty
project with the full query list, i.e. import plus query parsing, run after
each batch until they take a tenth of the batches' time) and the batch
process's peak RSS. The host's other tenants change the speed of its cores
by up to 2x over seconds to minutes, so these times are not wall times: the
runs are pinned to one CPU beside a pace probe (`pace.py`), and each launch's
CPU time is scaled to the pace at which a probe unit takes REF_UNIT_S, about
an idle core's pace on the machine the baseline was recorded on.
`--trace 1` alternates untraced batches with batches run through
`traceshim.py` and reports the per-layer metrics, in wall time.
`--smoke` shrinks every workload to a few files and runs it once, for the
benchmark's own tests. Every run emits exactly the metrics BENCHMARK.json
declares, with their units; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
PACE = Path(__file__).resolve().parent / "pace.py"
WORK = ROOT / ".perfbench"

# One pace-probe unit takes about this much CPU time on an idle core of the
# machine the baseline was recorded on (its first decile there); times are
# reported at that pace.
REF_UNIT_S = 0.001
# Probe units that end within this long of a launch set its pace.
PACE_PAD_S = 1.0
# Setup launches take this share of the time the batches take.
SETUP_SHARE = 0.1
ORACLE_SAMPLE = 2
# Leave room under the 180 s a run may take for the oracle check and cleanup.
RUN_DEADLINE_S = 150.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="corpus, big_projects or ingest")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; batches start only while one more fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, one batch (or one untraced/traced pair)")
    return parser.parse_args(argv)


class Run:
    """One benchmark run: corpus, batches, checks and the tally of failures."""

    def __init__(self, args: argparse.Namespace, work: Path):
        import batch
        import corpus

        self.args = args
        self.started = time.perf_counter()
        self.corpus = corpus.generate(args.workload, args.seed, work / "batch", smoke=args.smoke)
        self.env = batch.child_env(SRC)
        self.reference = None
        if not args.smoke and BASELINE.is_file():
            digests = json.loads(BASELINE.read_text()).get("digests", {})
            self.reference = digests.get(args.workload, {}).get(str(args.seed))
        self.recorded = self.reference is not None
        self.attempted = 0
        self.failed = 0

    def timeout(self) -> float:
        return max(10.0, RUN_DEADLINE_S + 20 - (time.perf_counter() - self.started))

    def one_batch(self, traced: bool):
        import batch

        result = batch.run_batch(self.corpus, self.env, self.timeout(), traced)
        failed = batch.failed_projects(result, self.reference)
        if self.reference is None and not failed:
            self.reference = result.digest
        self.attempted += len(result.digest["projects"])
        self.failed += len(failed)
        label = "traced" if traced else "batch"
        print(f"{label}: {result.wall_s:.3f} s, peak RSS {result.peak_rss_mb:.1f} MB, "
              f"exit {result.statuses}, {len(failed)} failed", file=sys.stderr)
        for name in failed[:5]:
            print(f"  output check failed: {name}", file=sys.stderr)
        return result

    def measure(self, step, measured=None) -> None:
        """Repeat `step` while the next repetition fits in the window.

        `measured()` gives the time counted against the window so far; by
        default, all the time the steps took.
        """
        start = time.perf_counter()
        measured = measured or (lambda: time.perf_counter() - start)
        done = 0
        while True:
            step()
            done += 1
            elapsed = measured()
            if self.args.smoke or elapsed * (done + 1) / done > self.args.seconds:
                break
            per_step = (time.perf_counter() - start) / done
            if time.perf_counter() - self.started > RUN_DEADLINE_S - per_step:
                break

    def oracle(self) -> tuple[int, int]:
        import batch

        sample = self.corpus.projects[:ORACLE_SAMPLE]
        checked, mismatches, failed = batch.oracle_check(self.corpus, sample)
        self.attempted += len(sample)
        self.failed += len(failed)
        print(f"oracle: {checked} selections checked on {sample}, {mismatches} mismatches",
              file=sys.stderr)
        return checked, mismatches


def setup_launcher(run: Run, work: Path):
    """A function that launches one fresh CLI process on one empty project."""
    import batch
    from corpus import Corpus

    root = work / "setup"
    for sub in ("projects/empty", "properties", "results"):
        (root / sub).mkdir(parents=True)
    shutil.copytree(run.corpus.root / "queries", root / "queries")
    probe = Corpus(root, ["empty"], run.corpus.queries, 0)
    probe.project_list.write_text("empty\n")
    shutil.copy(run.corpus.query_list, probe.query_list)
    argv = [sys.executable, "-m", "craql.cli", "-P", str(probe.project_list),
            "-Q", str(probe.query_list), "--dirs", str(root)]

    def launch():
        result = batch.launch(argv, run.env, work / "setup.out", run.timeout())
        if result.status != 0:
            raise batch.LaunchError(f"setup launch exited {result.status}: "
                                    + (work / "setup.err").read_text()[-500:])
        return result

    return launch


class Pacer:
    """The pace probe (pace.py), pinned with the measured processes to one CPU.

    Within the `with` block this process and every child it starts run on one
    CPU, beside the probe. Afterwards `scaled` gives a launch's CPU time at
    the reference pace.
    """

    def __enter__(self) -> Pacer:
        import batch

        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.proc = subprocess.Popen([sys.executable, str(PACE)], stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise batch.LaunchError("the pace probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.records = json.loads(out) if out.strip() else []
        os.sched_setaffinity(0, self.cpus)

    def deciles(self) -> str:
        units = [cpu_s * 1000 for _, cpu_s in self.records]
        return " ".join(f"{d:.3f}" for d in statistics.quantiles(units, n=10))

    def scaled(self, launch) -> float:
        """`launch.cpu_s` at the reference pace.

        The pace of one probe unit is the reference unit time over its time.
        Units are spread evenly over time, so their mean pace is the pace at
        which the launch's CPU time accrued.
        """
        end = launch.start + launch.wall_s
        paces = [REF_UNIT_S / cpu_s for at, cpu_s in self.records
                 if launch.start - PACE_PAD_S <= at <= end + PACE_PAD_S]
        if not paces:
            import batch

            raise batch.LaunchError("the pace probe recorded nothing around a launch")
        return launch.cpu_s * statistics.fmean(paces)


def end_to_end(run: Run, work: Path) -> dict[str, float]:
    batches, setups = [], []
    launch_setup = setup_launcher(run, work)

    def step():
        batches.append(run.one_batch(traced=False))
        # Setup launches follow each batch, so they see the same drift in
        # CPU speed over the window as the batches do.
        while not setups or (sum(s.wall_s for s in setups)
                             < SETUP_SHARE * sum(b.wall_s for b in batches)):
            setups.append(launch_setup())

    with Pacer() as pacer:
        run.measure(step, lambda: sum(b.wall_s for b in batches))
    batch_times = [pacer.scaled(b) for b in batches]
    setup_times = [pacer.scaled(s) for s in setups]
    print(f"batches at reference pace: {', '.join(f'{t:.3f}' for t in batch_times)} s "
          f"(CPU {', '.join(f'{b.cpu_s:.3f}' for b in batches)} s); "
          f"setup: {len(setups)} launches, median {statistics.median(setup_times):.4f} s; "
          f"probe unit deciles {pacer.deciles()} ms", file=sys.stderr)
    run.oracle()
    batch_s = statistics.median(batch_times)
    return {
        "batch_s": batch_s,
        "loc_per_s": run.corpus.loc / batch_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(b.peak_rss_mb for b in batches),
    }


def per_layer(run: Run, work: Path) -> dict[str, float]:
    import traceshim
    from craql import BUNDLED_QUERIES

    plain, traced = [], []

    def step():
        plain.append(run.one_batch(traced=False).wall_s)
        result = run.one_batch(traced=True)
        metrics = traceshim.summarize([json.loads(p.read_text()) for p in result.traces])
        layers = sum(metrics[f"{layer}.self_s"] for layer in traceshim.LAYERS)
        metrics["trace.batch_s"] = result.wall_s
        metrics["trace.uncovered_s"] = result.wall_s - layers
        results = run.corpus.root / "results"
        metrics["runner.bytes_written"] = sum(p.stat().st_size for p in results.iterdir())
        traced.append(metrics)
        keep = WORK / f"{run.args.workload}.spans"
        shutil.rmtree(keep, ignore_errors=True)
        shutil.copytree(result.traces[0].parent, keep)

    run.measure(step)
    checked, mismatches = run.oracle()
    metrics = {f"engine.query.{Path(q).stem}_s": 0.0 for q in BUNDLED_QUERIES}
    for key in traced[0]:
        metrics[key] = statistics.median([m[key] for m in traced])
    metrics["trace.overhead_s"] = metrics["trace.batch_s"] - statistics.median(plain)
    metrics["oracle.selections_checked"] = checked
    metrics["oracle.mismatches"] = mismatches
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "craql" / "__init__.py").is_file():
        print(f"error: no craql package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: missing {SPEC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import batch
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    work = WORK / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        c = run.corpus
        print(f"{args.workload} seed {args.seed}: {len(c.projects)} projects "
              f"({len(c.serialized)} serialized), {c.loc} LOC, {len(c.queries)} queries; "
              f"reference digests {'recorded' if run.recorded else 'from first batch'}",
              file=sys.stderr)
        values = (per_layer if args.trace else end_to_end)(run, work)
    except batch.LaunchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    undeclared = [n for n in values if n not in names]
    if missing or undeclared:
        print(f"error: metrics missing {missing}, undeclared {undeclared}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} project runs)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
