"""One benchmark worker: a fresh, single-threaded process for one workload.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
        [--scale full|tiny] [--setup-only]

It times the import of the library plus the workload's set-up, then repeats
the workload's unit of timed work until S seconds have passed (at least
once), and prints one JSON object with the raw samples as its last line.
Timings are CPU seconds of this process, except for the stages a workload
names as wall-clock ones (workloads.py).

Every timing is also reported scaled to nominal machine speed (speed.py):
the set-up (with --setup-only) by a short burst of the ``alloc`` kernel right
after it, each stage of a unit by the bursts of the stage's kernel just
after the unit and after the one before it, timed by the stage's clock.  The
bursts take a fifth of the run, so that the kernels sample the same stretch
of time as the work.  Peak memory is read after the first unit, before any
burst.  With --trace 1 each unit runs twice, untraced and traced in
alternating order, the per-layer figures come from the traced passes, and
nothing is scaled.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter, process_time

import speed

REFERENCE_SHARE = 0.2  # kernel time after each unit, as a share of the unit's time
SETUP_KERNEL = "alloc"  # set-up is import plus, on some workloads, a build

def layer_metrics(tracer, n_ops: int, traced_s: float, plain_s: float) -> dict:
    """Per-layer figures of the traced passes, per workload operation where
    the unit says "/op".  A layer the workload never reaches reads 0."""
    from spans import percentile_ms

    spans = tracer.summary()
    counts = tracer.counts
    per_op = 1.0 / max(n_ops, 1)

    def agg(name: str, field: str) -> float:
        return spans[name][field] if name in spans else 0.0

    def durations(name: str) -> list[float]:
        return spans[name]["durations"] if name in spans else []

    tree_calls = agg("construct.tree_rounds", "count")
    return {
        "verify.check_schedule_s": agg("verify.check_schedule", "total") * per_op,
        "verify.check_schedule_p50_ms": percentile_ms(durations("verify.check_schedule"), 50),
        "verify.check_schedule_p99_ms": percentile_ms(durations("verify.check_schedule"), 99),
        "verify.calls_checked": counts["verify.calls_checked"] * per_op,
        "verify.violations": counts["verify.violations"] * per_op,
        "verify.certify_overhead_s": agg("verify.certify_graph", "self") * per_op,
        "construct.tree_rounds_s": agg("construct.tree_rounds", "total") * per_op,
        "construct.tree_rounds_self_s": agg("construct.tree_rounds", "self") * per_op,
        "construct.tree_rounds_calls": tree_calls * per_op,
        # a call that ran no binomial simulation was served from the root-only cache
        "construct.tree_rounds_hit_ratio": (agg("construct.tree_rounds", "leaf") / tree_calls
                                            if tree_calls else 0.0),
        "binomial.rounds_masks_s": agg("binomial.rounds_masks", "total") * per_op,
        "binomial.rounds_masks_calls": agg("binomial.rounds_masks", "count") * per_op,
        "hypercube.sweep_rounds_s": agg("hypercube.sweep_rounds", "total") * per_op,
        "hypercube.sweep_rounds_calls": agg("hypercube.sweep_rounds", "count") * per_op,
        "scheme.make_schedule_s": agg("scheme.make_schedule", "total") * per_op,
        "scheme.self_s": agg("scheme.make_schedule", "self") * per_op,
        "scheme.make_schedule_p50_ms": percentile_ms(durations("scheme.make_schedule"), 50),
        "scheme.make_schedule_p99_ms": percentile_ms(durations("scheme.make_schedule"), 99),
        "scheme.calls_emitted": counts["scheme.calls_emitted"] * per_op,
        "scheme.errors": counts["scheme.make_schedule.errors"] * per_op,
        "construct.build_s": agg("construct.build", "total") * per_op,
        "construct.self_s": agg("construct.build", "self") * per_op,
        "graph.from_sorted_s": agg("graph.from_sorted", "total") * per_op,
        "construct.audit_s": agg("construct.audit", "total") * per_op,
        "construct.edges": counts["construct.edges"] * per_op,
        "graph.export_bytes": counts["graph.export_bytes"] * per_op,
        "bounds.table1_s": agg("bounds.table1", "total") * per_op,
        "bounds.table2_s": agg("bounds.table2", "total") * per_op,
        "bounds.rows": counts["bounds.rows"] * per_op,
        "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
    }


def run(args, targets=None) -> dict:
    c0 = process_time()
    importlib.import_module("broadcastnet")
    import_s = process_time() - c0

    import workloads
    from spans import WRAPPED, Tracer

    workload = workloads.WORKLOADS[args.workload](args.scale, args.seed, bool(args.trace))
    c1 = process_time()
    workload.setup()
    setup_s = import_s + process_time() - c1
    out = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        # only set-up probes run this burst: its memory is not the workload's
        out["setup_scaled_s"] = setup_s * speed.factor(
            SETUP_KERNEL, speed.burst(SETUP_KERNEL, 0.6), cpu=True)
        return out

    t2 = perf_counter()
    workload.prepare()
    out["prepare_s"] = perf_counter() - t2

    plain = workloads.Tally(workload.WALL_STAGES)
    traced = workloads.Tally(workload.WALL_STAGES)
    scaled: dict[str, list[float]] = defaultdict(list)
    kernels = sorted({workload.kernel(stage) for stage in workload.OP_STAGES})
    reference: dict[str, list[tuple[float, float]]] = {name: [] for name in kernels}
    bursts = lambda seconds: {name: speed.burst(name, seconds / len(kernels)) for name in kernels}
    before = {name: [] for name in kernels}
    peak_rss_kb = 0
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    i = 0
    # past the time only to give every stage of the operation a sample
    while (perf_counter() - start < args.seconds
           or i < 4 and not all(plain.stages.get(stage) for stage in workload.OP_STAGES)):
        if tracer is None:
            seen = {stage: len(v) for stage, v in plain.stages.items()}
            t0 = perf_counter()
            workload.unit(i, plain)
            if i == 0:  # peak memory of set-up and one operation, before any burst
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            after = bursts(REFERENCE_SHARE * (perf_counter() - t0))
            # the unit's own speed: the stage's kernel in the bursts on either
            # side of it, timed by the same clock as the stage
            for stage, v in plain.stages.items():
                name = workload.kernel(stage)
                f = speed.factor(name, before[name] + after[name],
                                 cpu=stage not in workload.WALL_STAGES)
                scaled[stage] += [x * f for x in v[seen.get(stage, 0):]]
            for name in kernels:
                reference[name] += after[name]
            before = after
        else:
            for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if use_trace:
                    with tracer.installed(targets or WRAPPED):
                        workload.unit(i, traced, tracer)
                else:
                    workload.unit(i, plain)
        i += 1

    out.update(
        units=i,
        op_stages=workload.OP_STAGES,
        stages=dict(plain.stages),
        scaled=dict(scaled),
        speed_factor={name: speed.factor(name, times, cpu=True)
                      for name, times in reference.items() if times},
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        errors=(plain.errors + traced.errors)[:10],
        peak_rss_kb=peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        total = lambda tally: sum(sum(tally.stages[s]) for s in workload.OP_STAGES)
        n_ops = len(traced.stages[workload.OP_STAGES[0]])
        out["layers"] = layer_metrics(tracer, n_ops, total(traced), total(plain))
        out["absent"] = tracer.absent
    return out


def parse(argv):
    ap = argparse.ArgumentParser(description="one benchmark worker process")
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


if __name__ == "__main__":
    print(json.dumps(run(parse(sys.argv[1:]))))
