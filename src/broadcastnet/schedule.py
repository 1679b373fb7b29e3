"""Broadcast schedules: an originator, then per-round (caller, callee) calls.

A schedule is immutable.  Its vertices are dense ids indexing a label tuple,
as the graph numbering them holds it; labels are read only at the boundary.
The calls are kept in the shape of the broadcast scheme's two phases: the
rounds from round 1 on, then optionally one (tree, fragment) pair per tree,
every fragment starting in the round after those rounds.  A plain schedule
has no fragments.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .errors import UnknownVertex
from .graph import Graph
from .labels import VertexLabel

IdCall = tuple[int, int]  # (caller, callee) dense ids


class Schedule:
    """The broadcast from ``labels[origin]``; the calls of ``rounds[i]`` are
    placed during round i+1, every id indexing ``labels``.

    ``pieces`` is (the rounds given, the (tree, fragment) pairs given).  The
    fragments are kept as they are given, so they should be immutable, as
    tree_rounds makes them.
    """

    __slots__ = ("labels", "origin", "pieces", "_assembled")

    def __init__(self, labels: tuple[VertexLabel, ...], origin: int,
                 rounds: Iterable[Iterable[IdCall]],
                 fragments: Iterable[tuple[int, Sequence[Sequence[IdCall]]]] = ()):
        self.labels = labels
        self.origin = origin
        self.pieces = (tuple(tuple(calls) for calls in rounds), tuple(fragments))
        self._assembled: tuple[tuple[IdCall, ...], ...] | None = None

    @property
    def rounds(self) -> tuple[tuple[IdCall, ...], ...]:
        """The calls of every piece per round, read-only, made on first use."""
        if self._assembled is None:
            first, fragments = self.pieces
            rounds = [list(calls) for calls in first]
            rounds += [[] for _ in range(max((len(f) for _, f in fragments), default=0))]
            for _, frag in fragments:
                for rnd, calls in enumerate(frag, start=len(first)):
                    rounds[rnd].extend(calls)
            self._assembled = tuple(map(tuple, rounds))
        return self._assembled

    def ids_in(self, g: Graph) -> tuple[int, Sequence[Sequence[IdCall]]]:
        """The originator and the calls as ids of g's numbering: as they are
        when the schedule is on g's own label tuple, else mapped through one
        table over the schedule's labels.  A label g lacks, and an id outside
        the schedule's tuple, becomes -1."""
        if self.labels is g.labels:
            return self.origin, self.rounds
        table = [g.vertex_id(label) if label in g else -1 for label in self.labels]
        n = len(table)

        def vid(i: int) -> int:
            return table[i] if 0 <= i < n else -1

        return vid(self.origin), [[(vid(a), vid(b)) for a, b in calls]
                                  for calls in self.rounds]

    @property
    def num_calls(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def completes_at(self) -> int:
        """Index of the last round that places a call (0 for a trivial schedule)."""
        last = 0
        for i, calls in enumerate(self.rounds, start=1):
            if calls:
                last = i
        return last

    def to_json(self, g: Graph) -> str:
        origin, id_rounds = self.ids_in(g)
        if origin < 0 or any(x < 0 for calls in id_rounds for call in calls for x in call):
            raise UnknownVertex("schedule names a vertex not in the graph")
        obj = {
            "originator": origin,
            "rounds": [sorted(calls) for calls in id_rounds],
            "completes_at": self.completes_at,
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"
