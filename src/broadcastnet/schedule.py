"""Broadcast schedules: one originator, then per-round sets of (caller, callee) calls."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import Graph
from .labels import VertexLabel

Call = tuple[VertexLabel, VertexLabel]


@dataclass
class Schedule:
    """rounds[i] holds the calls placed during round i+1."""

    originator: VertexLabel
    rounds: list[list[Call]] = field(default_factory=list)

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
        obj = {
            "originator": g.vertex_id(self.originator),
            "rounds": [
                sorted((g.vertex_id(a), g.vertex_id(b)) for a, b in calls)
                for calls in self.rounds
            ],
            "completes_at": self.completes_at,
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"
