"""The benchmark's four workloads, run through the library's public API.

Each workload has a set-up (import plus any build that is not the timed
operation), an untimed preparation (input generation from the seed, cache
warm-up), and a unit of timed work that the worker repeats until its time is
up.  Every timed operation's output is checked; a failed check or an
exception counts as a failed operation and the run goes on.

Why these four: ``certify_shrunk`` is dominated by the replay check and
label hashing on many small pruned trees, ``sample_deep`` by the tree-phase
simulation on large trees, ``build_export`` by edge generation and graph
assembly with no scheduling, and ``tables`` touches only the bounds layer,
so each layer change has a workload that exercises it and one that does not.
"""

from __future__ import annotations

import gc
import hashlib
import random
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter, process_time

import broadcastnet as bn
from broadcastnet.bounds import table1_csv, table2_csv
from broadcastnet.graph import Graph
from broadcastnet.params import ceil_log2

# Instances per scale; "tiny" (t=7) is for the harness self-test only.  The
# export instance is t=14, not t=15: a t=15 build fits only two or three
# times in a 20-second run, too few for a median that holds between runs.
SCALES = {
    "full": {"shrunk": (10, 3, 1500), "deep": (14, 2, 24576), "export": (14, 6, 32256),
             "table1": (7, 18), "table2": (14, 15)},
    "tiny": {"shrunk": (7, 3, 191), "deep": (7, 2, 192), "export": (7, 2, 192),
             "table1": (7, 9), "table2": (7, 8)},
}

# SHA-256 of the table CSVs, pinned when the benchmark was added.
TABLE_DIGESTS = {
    "table1_csv(7,18)": "d3fd3460e232365bc481060a846c2ca3462c4d9da510391823f6c06f76aec9fd",
    "table2_csv(14)": "2f4add125c36e8938586f49da1f2b0e05acb55e8f2e0e4e28cb85ff402c00ac5",
    "table2_csv(15)": "0b2319a5c8c83956f7fb3f65eb80d5234b736d799269cc7cabd45f96df78a122",
    "table1_csv(7,9)": "7d4c2fac881501790f379bf748baffb39fef687aecbf88a539a5ef921e8ea210",
    "table2_csv(7)": "95a291ee4f1c6ed2130d9b536b10431b8daa32c69ddfb66c2a99144843fe5c6f",
    "table2_csv(8)": "614f0184dfcf0db7ffc6d9a2be78e908d09f26c5d4a74e0ec8c4084ab18b9e69",
}


class Tally:
    """Timings and check outcomes of the timed operations of one run.  A
    stage is timed in CPU seconds of this process, or in wall seconds if it
    is one of ``wall_stages``."""

    def __init__(self, wall_stages: frozenset[str] = frozenset()):
        self.wall_stages = wall_stages
        self.stages: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def timed(self, stage: str, fn):
        """Run fn, record its time under stage; an exception is returned, not
        raised, so the caller's check counts it as a failure."""
        clock = perf_counter if stage in self.wall_stages else process_time
        t0 = clock()
        try:
            out = fn()
        except Exception as exc:  # a failing operation is counted, never fatal
            out = exc
        dt = clock() - t0
        self.stages[stage].append(dt)
        return out, dt


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _certified(report, expected_ids: list[int], n: int) -> bool:
    """Passed, completes in exactly ceil(log2 n) rounds, and one entry per
    originator."""
    if isinstance(report, Exception):
        return False
    return (report.passed and report.max_round == ceil_log2(n)
            and [vid for vid, _ in report.per_originator] == expected_ids)


def _describe(out) -> str:
    return f"{type(out).__name__}: {out}" if isinstance(out, Exception) else "wrong output"


def stratified_blocks(strata: dict[str, list], seed: int):
    """Endless seeded originator blocks holding one member of every stratum.

    Each stratum is drawn without replacement from a seeded permutation,
    reshuffled when used up, so every prefix of whole blocks has equal
    counts per stratum whatever their sizes."""
    rng = random.Random(seed)
    tags = sorted(strata)
    pools: dict[str, list] = {tag: [] for tag in tags}
    while True:
        block = []
        for tag in tags:
            if not pools[tag]:
                pools[tag] = rng.sample(strata[tag], len(strata[tag]))
            block.append(pools[tag].pop())
        rng.shuffle(block)
        yield block


class Workload:
    """Set-up (timed), preparation (untimed) and a repeatable unit of timed
    work whose stage timings, summed, make one operation."""

    OP_STAGES: tuple[str, ...] = ()
    # stages timed by the wall clock; the rest run in this process alone and
    # are timed in its CPU seconds, which leave out time the process waits
    # for a CPU (on a VM too: the kernel does not count stolen time)
    WALL_STAGES: frozenset[str] = frozenset()
    STAGE_KERNELS: dict[str, str] = {}  # the reference kernel of a stage not
                                        # scaled by ``sets`` (speed.py)

    def kernel(self, stage: str) -> str:
        return self.STAGE_KERNELS.get(stage, "sets")

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def unit(self, i: int, tally: Tally, tracer=None) -> None:
        raise NotImplementedError


class CertifyShrunk(Workload):
    """All originators of a deletion instance, with jobs=1 and jobs=2."""

    OP_STAGES = ("certify_s", "certify_jobs2_s")
    WALL_STAGES = frozenset({"certify_jobs2_s"})  # the work runs in a pool of two processes

    def __init__(self, scale: str, seed: int, trace: bool):
        self.tkn = SCALES[scale]["shrunk"]
        self.trace = trace
        if trace:
            self.OP_STAGES = ("certify_s",)
        self.reference: str | None = None

    def setup(self) -> None:
        self.params = bn.make_params(*self.tkn)
        self.g, self.layout, _ = bn.build(self.params)
        self.ids = list(range(self.g.n))

    def unit(self, i: int, tally: Tally, tracer=None) -> None:
        # one certification per unit, jobs 1,2,2,1,1,2,... (the traced run: jobs=1 only)
        jobs = 1 if self.trace or i % 4 in (0, 3) else 2
        stage = "certify_s" if jobs == 1 else "certify_jobs2_s"
        with _span(tracer, "verify.certify_graph"):
            report, _ = tally.timed(stage, lambda: bn.certify_graph(
                self.g, self.layout, self.params, jobs=jobs))
        ok = _certified(report, self.ids, self.g.n)
        if ok:
            # every report of the run, jobs=1 or 2, must be byte-identical
            text = report.to_json()
            if self.reference is None:
                self.reference = text
            ok = text == self.reference
        tally.check(ok, f"certify jobs={jobs}: {_describe(report)}")


class SampleDeep(Workload):
    """Seeded originators of a large full-size instance, stratified by the
    originator class, one certify_graph call each; the build is set-up."""

    OP_STAGES = ("orig_s",)

    def __init__(self, scale: str, seed: int, trace: bool):
        self.tkn = SCALES[scale]["deep"]
        self.seed = seed
        self.drawn: list[list] = []

    def setup(self) -> None:
        self.params = bn.make_params(*self.tkn)
        self.g, self.layout, _ = bn.build(self.params)

    def prepare(self) -> None:
        strata: dict[str, list] = defaultdict(list)
        for label in self.g.labels:
            strata[bn.classify(self.g, self.layout, label).tag].append(label)
        self.blocks = stratified_blocks(strata, self.seed)
        # fill the per-tree caches the first originators would otherwise pay for
        for tag in sorted(strata):
            bn.certify_graph(self.g, self.layout, self.params, originators=[strata[tag][0]])

    def unit(self, i: int, tally: Tally, tracer=None) -> None:
        # block i is drawn once, so a traced and an untraced pass see the same originators
        while len(self.drawn) <= i:
            self.drawn.append(next(self.blocks))
        for label in self.drawn[i]:
            with _span(tracer, "verify.certify_graph"):
                report, _ = tally.timed("orig_s", lambda: bn.certify_graph(
                    self.g, self.layout, self.params, originators=[label]))
            ok = _certified(report, [self.g.vertex_id(label)], self.g.n)
            tally.check(ok, f"certify originator {label}: {_describe(report)}")


def _expected_deltas(params) -> dict[str, int]:
    """Closed-form gaps of a full-size build: all zero except the documented
    undercount (k-2)(2^(k-1)-2) of the v1 second-half class."""
    k = params.k
    return {"v1_second_half_links": (k - 2) * ((1 << (k - 1)) - 2)}


class BuildExport(Workload):
    """Full-size build, JSON export, and reading the export back."""

    OP_STAGES = ("build_s", "export_s", "load_s")
    # construction and reading JSON back slow less than set work; writing does not
    STAGE_KERNELS = {"build_s": "alloc", "load_s": "alloc"}

    def __init__(self, scale: str, seed: int, trace: bool):
        self.tkn = SCALES[scale]["export"]

    def setup(self) -> None:
        self.params = bn.make_params(*self.tkn)

    def unit(self, i: int, tally: Tally, tracer=None) -> None:
        gc.collect()
        with _span(tracer, "construct.build"):
            built, _ = tally.timed("build_s", lambda: bn.build(self.params))
        if isinstance(built, Exception):
            tally.check(False, f"build: {_describe(built)}")
            return
        g, layout, acc = built
        if tracer is not None:
            tracer.counts["construct.edges"] += g.num_edges
        want = _expected_deltas(self.params)
        deltas = {name: item["delta"] for name, item in acc.to_json_obj().items()
                  if isinstance(item, dict)}
        bad = {name: d for name, d in deltas.items() if d != want.get(name, 0)}
        tally.check(not bad, f"build accounting deltas {bad}")

        with _span(tracer, "graph.export"):
            data, _ = tally.timed("export_s", lambda: g.export("json"))
        with _span(tracer, "graph.from_json"):
            loaded, _ = tally.timed("load_s", lambda: Graph.from_json(data.decode()))
        tally.check(not isinstance(data, Exception), f"export: {_describe(data)}")
        same = (not isinstance(loaded, Exception) and loaded == g
                and (loaded.t, loaded.k) == (g.t, g.k))
        tally.check(same, f"from_json(export) differs from the build: {_describe(loaded)}")
        if tracer is not None and not isinstance(data, Exception):
            tracer.counts["graph.export_bytes"] += len(data)
            with _span(tracer, "construct.audit"):
                audited = bn.audit_edges(g, layout, self.params)
            tally.check(audited.to_json_obj() == acc.to_json_obj(), "audit_edges differs from build")
        del built, g, layout, acc, data, loaded


class Tables(Workload):
    """Table 1 over a t range plus full-range Table 2 for two values of t."""

    OP_STAGES = ("tables_s",)

    def __init__(self, scale: str, seed: int, trace: bool, digests: dict | None = None):
        s = SCALES[scale]
        self.table1 = s["table1"]
        self.table2 = s["table2"]
        self.digests = TABLE_DIGESTS if digests is None else digests

    def _table(self, tally: Tally, tracer, key: str, name: str, fn) -> float:
        with _span(tracer, f"bounds.{name}"):
            csv, dt = tally.timed(f"{name}_s", fn)
        ok = (not isinstance(csv, Exception)
              and hashlib.sha256(csv.encode()).hexdigest() == self.digests.get(key))
        tally.check(ok, f"{key}: digest mismatch ({_describe(csv)})")
        if tracer is not None and ok:
            tracer.counts["bounds.rows"] += csv.count("\n") - 1
        return dt

    def unit(self, i: int, tally: Tally, tracer=None) -> None:
        lo, hi = self.table1
        total = self._table(tally, tracer, f"table1_csv({lo},{hi})", "table1",
                            lambda: table1_csv(lo, hi))
        for t in self.table2:
            total += self._table(tally, tracer, f"table2_csv({t})", "table2",
                                 lambda: table2_csv(t))
        tally.stages["tables_s"].append(total)


WORKLOADS = {
    "certify_shrunk": CertifyShrunk,
    "sample_deep": SampleDeep,
    "build_export": BuildExport,
    "tables": Tables,
}
