"""Broadcast schedules: one originator, then per-round sets of (caller, callee) calls."""

from __future__ import annotations

import json
from collections.abc import Sequence

from .errors import UnknownVertex
from .graph import Graph
from .labels import VertexLabel

Call = tuple[VertexLabel, VertexLabel]
IdCall = tuple[int, int]  # (caller, callee) dense ids


class Schedule:
    """rounds[i] holds the calls placed during round i+1.

    A schedule holds its calls either as label pairs or, as make_schedule
    makes it, as dense-id pairs together with the label tuple of the graph
    numbering the ids index.  The id form reads through ``rounds`` as a
    read-only label view; assigning ``rounds`` replaces it with label calls.
    A schedule made from pieces keeps them (``pieces``): its cube-phase
    rounds and one (tree, fragment) pair per tree, each fragment starting in
    the round after the cube phase; its calls are those the pieces hold.
    """

    def __init__(self, originator: VertexLabel, rounds: list[list[Call]] | None = None):
        self.originator = originator
        self.rounds = [] if rounds is None else rounds

    @classmethod
    def from_ids(cls, labels: tuple[VertexLabel, ...], origin: int,
                 id_rounds: Sequence[Sequence[IdCall]] | None) -> "Schedule":
        s = cls(labels[origin] if 0 <= origin < len(labels) else None)
        s.labels, s.origin, s._id_rounds = labels, origin, id_rounds
        return s

    @classmethod
    def from_pieces(cls, labels: tuple[VertexLabel, ...], origin: int,
                    cube_rounds: list[list[IdCall]],
                    fragments: list[tuple[int, Sequence[Sequence[IdCall]]]]) -> "Schedule":
        """The id schedule of cube_rounds (rounds 1..k) followed by every
        fragment from round k+1 on.  The fragments are kept as given, so they
        should be immutable, as tree_rounds makes them."""
        s = cls.from_ids(labels, origin, None)
        s.pieces = (tuple(tuple(calls) for calls in cube_rounds), tuple(fragments))
        return s

    @property
    def id_rounds(self) -> Sequence[Sequence[IdCall]] | None:
        """The calls as dense-id pairs per round (None for label calls); made
        from the pieces, read-only, on first use."""
        if self._id_rounds is None and self.pieces is not None:
            cube, fragments = self.pieces
            rounds = [list(calls) for calls in cube]
            rounds += [[] for _ in range(max((len(f) for _, f in fragments), default=0))]
            for _, frag in fragments:
                for rnd, calls in enumerate(frag, start=len(cube)):
                    rounds[rnd].extend(calls)
            self._id_rounds = tuple(map(tuple, rounds))
        return self._id_rounds

    @property
    def rounds(self) -> Sequence[Sequence[Call]]:
        if self.id_rounds is None:
            return self._rounds
        return tuple(_LabelCalls(self.labels, calls) for calls in self.id_rounds)

    @rounds.setter
    def rounds(self, value: list[list[Call]]) -> None:
        self._rounds = value
        self.labels = self.origin = self._id_rounds = self.pieces = None

    def ids_in(self, g: Graph) -> tuple[int, Sequence[Sequence[IdCall]]]:
        """The originator and the calls as ids of g's numbering; a label that
        g lacks becomes -1.  The id form is used as it is when it was made on
        g's own label tuple."""
        if self.id_rounds is not None and self.labels is g.labels:
            return self.origin, self.id_rounds

        def vid(label: VertexLabel) -> int:
            try:
                return g.vertex_id(label)
            except UnknownVertex:
                return -1

        return vid(self.originator), [[(vid(a), vid(b)) for a, b in calls]
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


class _LabelCalls(Sequence):
    """One round of id calls, read as label pairs."""

    __slots__ = ("_labels", "_calls")

    def __init__(self, labels: tuple[VertexLabel, ...], calls: list[IdCall]):
        self._labels, self._calls = labels, calls

    def __len__(self) -> int:
        return len(self._calls)

    def __getitem__(self, i: int) -> Call:
        a, b = self._calls[i]
        return (self._labels[a], self._labels[b])

    def __iter__(self):
        labels = self._labels
        return ((labels[a], labels[b]) for a, b in self._calls)
