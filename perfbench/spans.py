"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: around the calls the
benchmark makes into the library, and around a fixed set of public call
sites inside it, which are wrapped for the duration of a traced operation.
A wrapped name that no longer exists (renamed or removed by a refactor) is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, owner attribute or None, attribute, span name).  The owner is a
# class inside the module when the call site is a method.
WRAPPED = (
    ("broadcastnet.verify", None, "make_schedule", "scheme.make_schedule"),
    ("broadcastnet.verify", None, "check_schedule", "verify.check_schedule"),
    ("broadcastnet.scheme", None, "sweep_rounds", "hypercube.sweep_rounds"),
    ("broadcastnet.construct", None, "binomial_rounds_masks", "binomial.rounds_masks"),
    ("broadcastnet.construct", "CaseOneLayout", "tree_rounds", "construct.tree_rounds"),
    ("broadcastnet.graph", "Graph", "from_sorted", "graph.from_sorted"),
)


def _num_calls(schedule) -> int:
    """Calls in a schedule; 0 for an object without per-round call lists, so
    a change of schedule representation costs a counter, not the run."""
    return sum(len(calls) for calls in getattr(schedule, "rounds", ()))


class Tracer:
    """Spans as (name, start, end, parent index), kept in memory; counters
    are added at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[idx]
            self.spans[idx] = (name, start, perf_counter(), parent)

    def _wrap(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    tracer.counts[name + ".errors"] += 1
                    raise
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result):
        if name == "scheme.make_schedule":
            self.counts["scheme.calls_emitted"] += _num_calls(result)
        elif name == "verify.check_schedule":
            self.counts["verify.calls_checked"] += _num_calls(args[1] if len(args) > 1 else None)
            self.counts["verify.violations"] += not getattr(result, "ok", True)

    def install(self, targets=WRAPPED) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.absent = []
        for module_name, owner_name, attr, name in targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            static = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if static is None:
                self.absent.append(name)
                continue
            if isinstance(static, classmethod):
                wrapped = classmethod(self._wrap(static.__func__, name))
            else:
                wrapped = self._wrap(static, name)
            self._restore.append((owner, attr, static))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, static in reversed(self._restore):
            setattr(owner, attr, static)
        self._restore.clear()

    @contextmanager
    def installed(self, targets=WRAPPED):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds, self seconds (total minus the
        time covered by child spans), the per-call durations, and how many
        calls had no child span."""
        child_time = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                has_child[parent] = True
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0,
                                        "durations": [], "leaf": 0})
            dur = end - start
            agg["count"] += 1
            agg["total"] += dur
            agg["self"] += dur - child_time[i]
            agg["durations"].append(dur)
            agg["leaf"] += not has_child[i]
        return out


def percentile_ms(durations: list[float], q: int) -> float:
    """q-th percentile of span durations in milliseconds (0 without spans)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3
