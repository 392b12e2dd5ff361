"""A pace probe: how fast the CPU under the benchmark is, moment by moment.

    python3 perfbench/pace.py

Other tenants of a shared host slow its cores, often by 1.5-2x and in spells
that last from seconds to minutes, so two runs of the same batch can differ
by more than any bound worth setting. This probe runs beside the measured
processes, pinned to the same CPU: every GAP_S seconds it does one fixed
unit of pure-Python work (object allocation, attribute access, branching and
a tree walk, the kind of work the program does) and records when the unit
ended and the CPU time it took. It takes about a tenth of the CPU. Its code
does not change with the program, so the time a unit takes follows only the
machine.

It prints "ready" once warm; on SIGTERM it prints its records as one JSON
list of [end, cpu_s] pairs (`time.perf_counter()` seconds) and exits. It also
exits, silently, as soon as the process that started it has gone.
"""

from __future__ import annotations

import json
import os
import signal
import time

GAP_S = 0.02
WARM_UNITS = 20


class Node:
    __slots__ = ("kind", "name", "kids")

    def __init__(self, kind: str, name: str, kids: list[Node]):
        self.kind = kind
        self.name = name
        self.kids = kids


def build(depth: int, index: int) -> Node:
    if depth == 0:
        return Node("leaf", f"n{index}", [])
    kind = "block" if index % 3 == 0 else "inner"
    return Node(kind, f"n{index}", [build(depth - 1, index * 3 + k) for k in range(3)])


def unit() -> int:
    """One unit of work: build a 1,093-node tree and walk it."""
    found = []
    stack = [build(6, 1)]
    while stack:
        node = stack.pop()
        if node.kind == "block":
            found.append((node.name, len(node.kids)))
        stack.extend(node.kids)
    return len(found)


def main() -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    records = []
    while not stopping:
        if os.getppid() != parent:
            return 0
        before = time.thread_time()
        unit()
        cpu_s = time.thread_time() - before
        records.append((time.perf_counter(), cpu_s))
        if len(records) == WARM_UNITS:
            print("ready", flush=True)
        time.sleep(GAP_S)
    print(json.dumps(records[WARM_UNITS:]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
