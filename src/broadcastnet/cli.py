"""Command-line front end.

Structured results go to stdout as JSON or CSV; diagnostics go to stderr.
Exit status: 0 on success (and a passing certification), 1 on domain
errors or a failing certification, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from .construct import build
from .errors import BroadcastNetError, UnknownVertex
from .graph import Graph
from .params import full_size, make_params
from .verify import certify_graph, check_schedule, exact_broadcast_time
from .scheme import make_schedule


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="broadcastnet",
                                 description="Broadcast-graph construction, "
                                             "certification, and bound tables.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived construction parameters as JSON")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("construct", help="build a graph, write it, print edge accounting")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="defaults to the full size N")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["dot", "json", "edgelist"], default="json")

    p = sub.add_parser("certify", help="schedule witness for every originator")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--originator", default="all", help="dense vertex id or 'all'")
    p.add_argument("--jobs", type=int, default=1,
                   help="at least 1; accepted for compatibility, it does not change "
                        "the work or the report")

    p = sub.add_parser("exact", help="exact broadcast time on a tiny graph file")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--originator", type=int, required=True)

    p = sub.add_parser("bounds", help="evaluate the edge-count bounds at one n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("table1", help="full-size comparison table as CSV")
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)

    p = sub.add_parser("table2", help="shrunk-size comparison table as CSV")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--paper-facsimile", action="store_true")

    p = sub.add_parser("export", help="convert a graph JSON file to another format")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["dot", "json", "edgelist"], required=True)
    p.add_argument("--out", default=None, help="defaults to stdout")

    p = sub.add_parser("schedule", help="schedule for one originator as JSON")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--originator", type=int, required=True)
    return ap


def _params_for(args):
    n = full_size(args.t, args.k) if args.n is None else args.n
    return make_params(args.t, args.k, n)


def _vertex(g: Graph, vid: int):
    if not 0 <= vid < g.n:
        raise UnknownVertex(f"vertex id {vid} out of range [0, {g.n})")
    return g.labels[vid]


def _read_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return Graph.from_json(fh.read())


def run(argv: list[str]) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    sys.set_int_max_str_digits(0)  # outputs may print ints of any size; main restores it
    cmd = args.command

    if cmd == "params":
        sys.stdout.write(make_params(args.t, args.k, args.n).to_json())
        return 0

    if cmd == "construct":
        params = _params_for(args)
        g, layout, acc = build(params)
        with open(args.out, "wb") as fh:
            g.write(fh, args.format)
        sys.stdout.write(json.dumps(acc.to_json_obj(), separators=(",", ":")) + "\n")
        return 0

    if cmd == "certify":
        if args.jobs < 1:
            ap.error(f"--jobs must be at least 1, got {args.jobs}")
        try:
            vid = None if args.originator == "all" else int(args.originator)
        except ValueError:
            ap.error(f"--originator must be a vertex id or 'all', got {args.originator!r}")
        params = _params_for(args)
        g, layout, _ = build(params)
        origin = None if vid is None else [_vertex(g, vid)]
        report = certify_graph(g, layout, params, jobs=args.jobs, originators=origin)
        report.write(sys.stdout)
        return 0 if report.passed else 1

    if cmd == "exact":
        g = _read_graph(args.graph)
        value = exact_broadcast_time(g, _vertex(g, args.originator))
        sys.stdout.write(f"{value}\n")
        return 0

    if cmd == "bounds":
        if args.n < 2:
            ap.error(f"bounds: --n must be at least 2, got {args.n}")
        sys.stdout.write(bounds_mod.bound_report(args.n).to_json())
        return 0

    if cmd == "table1":
        if not 7 <= args.t_min <= args.t_max:
            ap.error(f"table1: t range [{args.t_min}, {args.t_max}] is empty or starts below 7")
        sys.stdout.write(bounds_mod.table1_csv(args.t_min, args.t_max))
        return 0

    if cmd == "table2":
        if args.t < 7:
            ap.error(f"table2: --t must be at least 7, got {args.t}")
        n_values = None
        if args.n_min is not None or args.n_max is not None:
            lo = args.n_min if args.n_min is not None else (1 << args.t) + 1
            hi = args.n_max if args.n_max is not None else lo
            if not (1 << args.t) < lo <= hi <= 1 << (args.t + 1):
                # powers of two stay symbolic: 2^t has about 0.3 t digits
                lo_text = str(args.n_min) if args.n_min is not None else "2^t+1"
                hi_text = str(args.n_max) if args.n_max is not None else lo_text
                ap.error(f"table2: n range [{lo_text}, {hi_text}] is empty or leaves "
                         f"(2^t, 2^(t+1)] for t={args.t}")
            n_values = list(range(lo, hi + 1))
        sys.stdout.write(bounds_mod.table2_csv(args.t, n_values,
                                               facsimile=args.paper_facsimile))
        return 0

    if cmd == "export":
        g = _read_graph(args.graph)
        if args.out:
            with open(args.out, "wb") as fh:
                g.write(fh, args.format)
        else:
            g.write(sys.stdout.buffer, args.format)
        return 0

    if cmd == "schedule":
        params = _params_for(args)
        g, layout, _ = build(params)
        sched = make_schedule(g, layout, params, _vertex(g, args.originator))
        res = check_schedule(g, sched)
        if not res.ok:
            sys.stderr.write(f"generated schedule failed its own check: "
                             f"{res.violation.to_json_obj()}\n")
            return 1
        sys.stdout.write(sched.to_json(g))
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def main(argv: list[str] | None = None) -> int:
    digits = sys.get_int_max_str_digits()
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (BroadcastNetError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (MemoryError, OverflowError) as exc:  # N or 2^t of a huge --t
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}; is --t too large?\n")
        return 1
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
