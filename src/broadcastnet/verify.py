"""Independent certification: schedule legality, whole-graph certification,
and an exact broadcast-time oracle for tiny graphs.

check_schedule trusts nothing about how a schedule was produced: it replays
the calls round by round and rejects the first violation in deterministic
order.  certify_graph runs the generator plus the checker for every
originator; the accepted schedules are the witness that the graph
broadcasts within its target."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .construct import CaseOneLayout
from .errors import BroadcastNetError, DisconnectedGraph, TooLarge
from .graph import Graph
from .labels import VertexLabel
from .params import ConstructionParams, ceil_log2
from .schedule import Schedule
from .scheme import make_schedule


@dataclass(frozen=True)
class Violation:
    kind: str  # "illegal-call" or "incomplete"
    round: int | None = None
    caller: int | None = None
    callee: int | None = None
    reason: str | None = None
    uninformed: int | None = None

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind}
        for name in ("round", "caller", "callee", "reason", "uninformed"):
            val = getattr(self, name)
            if val is not None:
                obj[name] = val
        return obj


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    completion_round: int | None = None
    violation: Violation | None = None
    informed_per_round: tuple[int, ...] = ()


def check_schedule(g: Graph, s: Schedule) -> CheckResult:
    """Validate a schedule against the graph and report its completion round.

    Per round, in canonical call order: the caller must already be informed,
    the callee must not be, the edge must exist, and no vertex may take part
    in two calls.  Returns the round in which the last vertex learns the
    message, or the earliest violation.  The replay runs on dense ids: a
    schedule made on g's numbering is replayed as it is, any other is
    converted once from its labels.
    """
    n, adj = g.n, g.adj
    origin, id_rounds = s.ids_in(g)
    if not 0 <= origin < n:
        return CheckResult(False, violation=Violation(
            "illegal-call", round=0, reason="unknown-originator"))
    # per vertex: 0 uninformed, 1 informed before this round, and within a
    # round 2 once it has called, 3 once it has been called
    state = bytearray(n)
    state[origin] = 1
    count = 1
    completion = 0 if count == n else None
    sizes = [1]
    for rnd, calls in enumerate(id_rounds, start=1):
        calls = sorted(calls)
        newly: list[int] = []
        for a, b in calls:
            if not (0 <= a < n and 0 <= b < n and state[a] == 1 and state[b] == 0
                    and b in adj[a]):
                return CheckResult(False, violation=_illegal_call(rnd, a, b, calls, state, adj))
            state[a] = 2
            state[b] = 3
            newly.append(b)
        for a, _ in calls:
            state[a] = 1
        for b in newly:
            state[b] = 1
        count += len(newly)
        sizes.append(count)
        if completion is None and count == n:
            completion = rnd
    if count != n:
        return CheckResult(False, violation=Violation(
            "incomplete", uninformed=n - count), informed_per_round=tuple(sizes))
    return CheckResult(True, completion_round=completion,
                       informed_per_round=tuple(sizes))


def _illegal_call(rnd: int, a: int, b: int, calls: list[tuple[int, int]],
                  state: bytearray, adj) -> Violation:
    """Why call (a, b) of round rnd fails, given the replay state at it."""
    n = len(state)
    if any(not 0 <= x < n for call in calls for x in call):
        # an unknown vertex voids its whole round, whatever comes first
        return Violation("illegal-call", round=rnd, reason="unknown-vertex")
    if state[a] in (0, 3):
        reason = "caller-uninformed"
    elif state[b] in (1, 2):
        reason = "callee-informed"
    elif b not in adj[a]:
        reason = "no-edge"
    elif state[a] == 2:
        reason = "busy-caller"
    else:
        reason = "busy-callee"
    return Violation("illegal-call", round=rnd, caller=a, callee=b, reason=reason)


# ---------------------------------------------------------------------------
# whole-graph certification


@dataclass
class CertificationReport:
    graph_id: str
    n: int
    target: int
    max_round: int | None
    passed: bool
    per_originator: list[tuple[int, int]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        obj = {
            "graph": self.graph_id,
            "n": self.n,
            "target": self.target,
            "max_round": self.max_round,
            "pass": self.passed,
            "failures": self.failures,
            "per_originator": [list(x) for x in self.per_originator],
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"


_WORKER_STATE: dict = {}


def _init_worker(g, layout, params):
    _WORKER_STATE.update(g=g, layout=layout, params=params)


def _certify_ids(ids):
    g = _WORKER_STATE["g"]
    return [_certify_one(g, _WORKER_STATE["layout"], _WORKER_STATE["params"], vid)
            for vid in ids]


def _certify_one(g: Graph, layout, params, vid: int) -> dict:
    label = g.labels[vid]
    try:
        sched = make_schedule(g, layout, params, label)
    except BroadcastNetError as exc:
        return {"id": vid, "error": f"{type(exc).__name__}: {exc}"}
    res = check_schedule(g, sched)
    out = {"id": vid}
    if res.ok:
        out["round"] = res.completion_round
    else:
        out["violation"] = res.violation.to_json_obj()
    return out


def certify_graph(g: Graph, layout: CaseOneLayout, params: ConstructionParams,
                  jobs: int = 1, originators: list[VertexLabel] | None = None,
                  ) -> CertificationReport:
    """Generate and check a schedule for every originator; pass iff all
    complete by ceil(log2 n)."""
    target = ceil_log2(g.n)
    ids = ([g.vertex_id(v) for v in originators] if originators is not None
           else list(range(g.n)))
    if jobs > 1 and len(ids) > 1:
        chunks = [ids[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(g, layout, params)) as pool:
            parts = list(pool.map(_certify_ids, chunks))
        outcomes = [o for part in parts for o in part]
        outcomes.sort(key=lambda o: o["id"])
    else:
        outcomes = [_certify_one(g, layout, params, vid) for vid in ids]

    report = CertificationReport(
        graph_id=f"t={params.t},k={params.k},n={params.n}",
        n=g.n, target=target, max_round=None, passed=True)
    worst = 0
    for out in outcomes:
        if "round" in out:
            rnd = out["round"]
            report.per_originator.append((out["id"], rnd))
            worst = max(worst, rnd)
            if rnd > target:
                report.passed = False
                if len(report.failures) < 10:
                    report.failures.append({"id": out["id"], "round": rnd,
                                            "reason": "late-completion"})
        else:
            report.passed = False
            if len(report.failures) < 10:
                report.failures.append(out)
    report.max_round = worst if report.per_originator else None
    return report


# ---------------------------------------------------------------------------
# exact oracle


def exact_broadcast_time(g: Graph, u: VertexLabel) -> int:
    """Exact b(u) by search over informed sets; graphs up to 16 vertices."""
    n = g.n
    if n > 16:
        raise TooLarge(f"exact search capped at 16 vertices, got {n}")
    start_id = g.vertex_id(u)
    if not g.is_connected():
        raise DisconnectedGraph("graph is disconnected; broadcast cannot complete")
    adj = [0] * n
    for a in range(n):
        for b in g.adj[a]:
            adj[a] |= 1 << b
    full = (1 << n) - 1
    if n == 1:
        return 0

    def lower_bound(state: int) -> int:
        pc = bin(state).count("1")
        return ceil_log2((n + pc - 1) // pc) if pc < n else 0

    memo: dict[int, int] = {}
    INF = n + 1

    def candidate_moves(state: int) -> list[int]:
        actors = [v for v in range(n) if state >> v & 1 and adj[v] & ~state]
        outs: set[int] = set()

        def rec(i: int, newly: int):
            if i == len(actors):
                if newly:
                    outs.add(newly)
                return
            v = actors[i]
            free = adj[v] & ~state & ~newly
            matched = False
            while free:
                bit = free & -free
                free ^= bit
                matched = True
                rec(i + 1, newly | bit)
            if not matched:
                rec(i + 1, newly)

        rec(0, 0)
        return sorted(outs, key=lambda m: -bin(m).count("1"))

    def best(state: int, budget: int) -> int:
        """Exact rounds to finish from state, or INF if it exceeds budget."""
        if state == full:
            return 0
        if lower_bound(state) > budget:
            return INF
        known = memo.get(state)
        if known is not None:
            return known
        result = INF
        for newly in candidate_moves(state):
            sub = best(state | newly, min(budget, result - 1) - 1)
            if sub + 1 < result:
                result = sub + 1
        if result < INF:
            memo[state] = result
        return result

    return best(1 << start_id, n)
