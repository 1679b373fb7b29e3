"""Hypercube graphs and dimension-sweep broadcasting.

The scheme decomposes the cube by coordinates: Q^{m-1} is the half with the top
bit set (this is the first half Q_1); inside the zero half, Q^{m-2} is the
set with the next bit as its highest set bit, and so on down to Q^0 = {1};
the all-zeros corner is the extra dimension-0 block Q^{01}.  Consequently
Q^{01} together with Q^0..Q^{j-1} always induces a j-dimensional subcube.
The layout and the scheme read these blocks as coordinate ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UnknownVertex
from .graph import Graph
from .labels import VertexLabel, bits, pos_mask
from .schedule import Schedule


@dataclass(frozen=True)
class Hypercube:
    """Q^m over coordinates 0..2^m-1, edges at Hamming distance 1."""

    m: int

    @property
    def size(self) -> int:
        return 1 << self.m

    def label(self, c: int) -> VertexLabel:
        return VertexLabel(tree=None, pos="", cube=bits(c, self.m))

    @cached_property
    def labels(self) -> tuple[VertexLabel, ...]:
        """Every vertex in coordinate order, as to_graph() numbers them."""
        return tuple(map(self.label, range(self.size)))

    def coord_of(self, label: VertexLabel) -> int:
        """The coordinate whose label equals ``label``, else UnknownVertex."""
        try:
            c = pos_mask(label.cube)
        except (AttributeError, TypeError, ValueError):
            c = -1
        if not (0 <= c < self.size and label == self.label(c)):
            raise UnknownVertex(f"{label} is not a vertex of Q^{self.m}")
        return c

    def to_graph(self) -> Graph:
        edges = [(c, c | 1 << b) for c in range(self.size) for b in range(self.m)
                 if not c >> b & 1]
        return Graph.from_sorted(self.labels, edges)


def build_hypercube(m: int) -> Hypercube:
    if m < 0:
        raise ValueError("dimension must be >= 0")
    return Hypercube(m=m)


def sweep_rounds(seed: int, m: int) -> list[list[tuple[int, int]]]:
    """Dimension sweep from ``seed`` over dimensions 0..m-1: in round r every
    informed vertex calls its neighbour along dimension r-1.

    The dimensions are distinct, so no vertex is called twice, and the sweep
    never leaves the aligned block of 2^m coordinates that holds ``seed``;
    the scheme sweeps its blocks this way.
    """
    informed = [seed]
    rounds = []
    for b in range(m):
        calls = [(c, c ^ 1 << b) for c in sorted(informed)]
        rounds.append(calls)
        informed += [c2 for _, c2 in calls]
    return rounds


def hypercube_schedule(cube: Hypercube, originator: VertexLabel) -> Schedule:
    """Inform all 2^m vertices in exactly m rounds (dimension sweep); the
    ids are the coordinates."""
    seed = cube.coord_of(originator)
    return Schedule(cube.labels, seed, sweep_rounds(seed, cube.m))
