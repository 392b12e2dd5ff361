"""Seeded workload corpora for the batch benchmark.

Each workload is a function of its seed and size only. It writes a `craql`
batch root (projects/, queries/, properties/, results/ plus the two list
files) and returns a `Corpus` describing it. Generation uses the package's
own MiniLang generator and serializer, and is never timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from craql import BUNDLED_QUERIES, bundled_query_path, load_project, serialize_project
from craql.fixtures import (
    fixture_text,
    generate_block_sea,
    generate_nested_blocks,
    generate_random_source,
)
from craql.runner import SERIALIZED_AST

# The acceptance-7 corpus is seed 99; the other defaults are arbitrary but
# fixed, because the recorded output digests belong to them.
DEFAULT_SEEDS = {"corpus": 99, "big_projects": 7, "ingest": 11}
HELD_OUT_SEEDS = {"corpus": 1099, "big_projects": 1007, "ingest": 1011}


@dataclass(frozen=True)
class Shape:
    files_per_project: int
    min_loc: int
    queries: tuple[str, ...]
    bundle: bool = False
    min_projects: int = 1
    # Projects whose LOC falls outside this window are drawn again.
    project_loc: tuple[int, int] = (0, 1 << 30)
    # Every `serialize_every`-th project is stored as project.ast.json.
    serialize_every: int = 0


WORKLOADS = {
    # The ROADMAP's reference load: the exact acceptance-7 corpus.
    "corpus": Shape(8, 10_000, BUNDLED_QUERIES, bundle=True),
    # 2.5x larger projects, so the quadratic nested selects dominate. Their
    # cost grows with the square of project size, so each of the four
    # projects is held to within 2% of the median 20-file project (1,400
    # LOC); otherwise the seed alone moves the work by about 10%.
    "big_projects": Shape(20, 5_480, BUNDLED_QUERIES, project_loc=(1_370, 1_430)),
    # Many projects, one cheap query: load time dominates; half serialized.
    "ingest": Shape(8, 80_000, ("top_statements.craql",), serialize_every=2),
}

# Tiny sizes for the smoke mode: every code path, seconds not minutes.
SMOKE_WORKLOADS = {
    "corpus": Shape(2, 1, BUNDLED_QUERIES, bundle=True, min_projects=2),
    "big_projects": Shape(3, 1, BUNDLED_QUERIES),
    "ingest": Shape(2, 1, ("top_statements.craql",), serialize_every=2, min_projects=2),
}


@dataclass
class Corpus:
    root: Path
    projects: list[str]
    queries: tuple[str, ...]
    loc: int
    serialized: list[str] = field(default_factory=list)

    @property
    def project_list(self) -> Path:
        return self.root / "projects.txt"

    @property
    def query_list(self) -> Path:
        return self.root / "queries.txt"


def _bundle_files() -> dict[str, str]:
    """The acceptance-7 `bundle` project: the fixtures plus F4 and F5."""
    files = {
        name: fixture_text(name)
        for name in ("Sample.mj", "Fact.mj", "AB.mj", "Unreachable.mj", "Loops.mj", "Chain.mj")
    }
    files["Deep.mj"] = generate_nested_blocks(10)
    files["Sea.mj"] = generate_block_sea(250)
    return files


def _loc(files: dict[str, str]) -> int:
    return sum(text.count("\n") for text in files.values())


def generate(workload: str, seed: int, root: Path, smoke: bool = False) -> Corpus:
    """Write the workload's batch root under `root` (which must not exist)."""
    shape = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
    rng = random.Random(seed)
    projects: dict[str, dict[str, str]] = {}
    loc = 0
    if shape.bundle:
        projects["bundle"] = _bundle_files()
        loc += _loc(projects["bundle"])
    index = 0
    while loc < shape.min_loc or len(projects) < shape.min_projects:
        files = {
            f"gen{f}.mj": generate_random_source(rng, classes=2, max_depth=4)
            for f in range(shape.files_per_project)
        }
        lo, hi = shape.project_loc
        if not lo <= _loc(files) <= hi:
            continue
        projects[f"gen{index}"] = files
        loc += _loc(files)
        index += 1

    for sub in ("projects", "queries", "properties", "results"):
        (root / sub).mkdir(parents=True)
    serialized = []
    for i, (name, files) in enumerate(projects.items()):
        pdir = root / "projects" / name
        pdir.mkdir()
        if shape.serialize_every and i % shape.serialize_every == 0:
            project, diagnostics = load_project(name, sorted(files.items()))
            if diagnostics:
                raise RuntimeError(f"generated project {name} does not parse: {diagnostics[0]}")
            (pdir / SERIALIZED_AST).write_text(serialize_project(project))
            serialized.append(name)
        else:
            for fname, text in files.items():
                (pdir / fname).write_text(text)
    for qname in shape.queries:
        (root / "queries" / qname).write_text(bundled_query_path(qname).read_text())
    corpus = Corpus(root, list(projects), shape.queries, loc, serialized)
    corpus.project_list.write_text("\n".join(corpus.projects) + "\n")
    corpus.query_list.write_text("\n".join(corpus.queries) + "\n")
    return corpus
