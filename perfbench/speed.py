"""Machine-speed references for scaling timings.

On a shared 2-CPU cloud VM (Xeon, Python 3.11) the speed of the same
pure-Python code was seen to switch between two levels about 1.65x apart,
sometimes several times a second, sometimes staying at one level for
minutes.  Raw timings of one commit then differed by up to a third between
runs.  Timing CPU seconds instead of wall seconds leaves out the time a
process waits for a CPU, but not the slow phases, which show in CPU time too.
So the worker times a fixed reference kernel next to the work it measures
and scales each timing by the kernel's nominal repetition time over its
measured one: the time the work would take on a machine running the kernel
at its nominal speed.

There are two kernels, and each stage of a workload names the one whose
kind of work it resembles.  ``sets`` (a breadth-first search over sets and
dicts) tracks scheduling, checking, the tables and writing JSON.
Construction and reading JSON back mostly allocate: construction was seen
to slow by only about 1.25x where ``sets`` slowed by 1.65x.  Over four noisy
minutes, the spread (interquartile range over median) of the CPU time of a
t=14 k=6 build was 0.18 raw, 0.16 over ``sets`` and 0.07 over ``alloc``
(100,000 tuples built, sorted and grouped, then a JSON round trip); of
reading its JSON back, 0.18, 0.17 and 0.08.
"""

from __future__ import annotations

import gc
import json
from statistics import fmean
from time import perf_counter, process_time

_N = 2000
_ADJ = [((i * 7919) % _N, (i * 104729 + 1) % _N, (i * 31 + 17) % _N, (i + 1) % _N)
        for i in range(_N)]


def sets_rep() -> int:
    """One repetition of the ``sets`` kernel: a breadth-first search with
    sets, dicts and tuples, the operations scheduling spends its time on."""
    seen = {0}
    frontier = [0]
    order: dict[tuple[int, int], int] = {}
    while frontier:
        nxt = []
        for u in frontier:
            for v in _ADJ[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    order[u, v] = len(nxt)
        frontier = nxt
    return len(order)


def alloc_rep() -> int:
    """One repetition of the ``alloc`` kernel: new tuples sorted and grouped
    into lists, then written to JSON and read back, as construction and
    export do.  It holds no memory between repetitions."""
    triples = [((i * 7919) % 1048573, (i * 104729 + 1) % 1048571, i & 1023)
               for i in range(100000)]
    triples.sort()
    adj: dict[int, list] = {}
    for a, b, c in triples:
        adj.setdefault(a & 32767, []).append((b, c))
    return len(json.loads(json.dumps([[a, v] for a, v in adj.items()])))


# kernel name -> (one repetition, its time at nominal machine speed)
KERNELS = {"sets": (sets_rep, 1e-3), "alloc": (alloc_rep, 0.35)}


def burst(kernel: str, seconds: float) -> list[tuple[float, float]]:
    """(wall, CPU) times of repetitions of a kernel, run until ``seconds``
    have passed."""
    rep = KERNELS[kernel][0]
    times = []
    collecting = gc.isenabled()
    gc.disable()  # the kernel's time must not depend on what else the heap holds
    try:
        end = perf_counter() + seconds
        while True:
            c0, t0 = process_time(), perf_counter()
            rep()
            t1, c1 = perf_counter(), process_time()
            times.append((t1 - t0, c1 - c0))
            if t1 >= end:
                return times
    finally:
        if collecting:
            gc.enable()


def factor(kernel: str, times: list[tuple[float, float]], cpu: bool) -> float:
    """Scale that maps a timing taken beside these repetitions, by the same
    clock (CPU or wall), to nominal speed."""
    return KERNELS[kernel][1] / fmean(cpu_s if cpu else wall_s for wall_s, cpu_s in times)
