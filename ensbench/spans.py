"""In-memory spans, solver wrappers and /proc readings for the traced run.

Spans are recorded from the benchmark's own files only, around calls
into the program's public functions; nothing inside ``src/`` is
instrumented. ``repro/core/__init__.py`` re-exports the function
``fdet``, so ``import repro.core.fdet`` yields that function, not the
module: the wrappers patch ``sys.modules["repro.core.fdet"]``, whose
globals ``fdet()`` (and so ``fraudar()``) resolves at call time.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans of one benchmark run: name, start, end, parent span, workload, run id."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def attr_sum(self, name: str, key: str) -> int:
        return int(sum(r["attrs"][key] for r in self.spans if r["name"] == name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


@contextmanager
def traced_solver(tracer: Tracer):
    """Time every peel, block removal and truncation call made in this process."""
    from repro.graph.bipartite import BipartiteGraph

    fdet_mod = sys.modules["repro.core.fdet"]
    peel, trunc, remove = fdet_mod.peel_densest, fdet_mod.truncating_point, BipartiteGraph.remove_block_edges

    def peel_densest(g, *args, **kwargs):
        with tracer.span("peel.peel_densest", edges=g.n_edges):
            return peel(g, *args, **kwargs)

    def truncating_point(phis):
        with tracer.span("fdet.truncating_point"):
            return trunc(phis)

    def remove_block_edges(self, users, merchants):
        with tracer.span("bipartite.remove_block_edges"):
            return remove(self, users, merchants)

    fdet_mod.peel_densest, fdet_mod.truncating_point = peel_densest, truncating_point
    BipartiteGraph.remove_block_edges = remove_block_edges
    try:
        yield
    finally:
        fdet_mod.peel_densest, fdet_mod.truncating_point = peel, trunc
        BipartiteGraph.remove_block_edges = remove


# ------------------------------------------------------------------- /proc
_TICK = os.sysconf("SC_CLK_TCK")


def proc_stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (state first), None if gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # the process ended while we looked
        return None
    return raw[raw.rindex(")") + 2 :].split()


def descendants() -> list[int]:
    """Pids of this process and of everything it started."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and (st := proc_stat(int(name))) is not None:
            children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_cpu_s() -> float:
    """CPU seconds (user + system) of this process, its reaped children and every live descendant.

    This process and its reaped children are read in microseconds, so a
    short driver-only call (FRAUDAR) is not rounded to clock ticks. Live
    descendants (the JVM, the Python workers) are read from /proc in clock
    ticks, their own reaped children included.
    """
    me, kids = os.getpid(), resource.getrusage(resource.RUSAGE_CHILDREN)
    ticks = 0
    for pid in descendants():
        if pid != me and (st := proc_stat(pid)) is not None:
            ticks += sum(int(x) for x in st[11:15])
    return time.process_time() + kids.ru_utime + kids.ru_stime + ticks / _TICK


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of ``pid`` in MB, 0 if it has gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def python_workers() -> list[int]:
    """Python processes below this one (the Spark worker daemon and its workers)."""
    me = os.getpid()
    out = []
    for pid in descendants():
        try:
            comm = Path(f"/proc/{pid}/comm").read_text().strip()
        except OSError:
            continue
        if pid != me and comm.startswith("python"):
            out.append(pid)
    return out
