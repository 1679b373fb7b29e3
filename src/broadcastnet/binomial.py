"""Binomial trees and their root-first broadcast schedules.

Vertices are encoded as bitmasks over child orders: the root is mask 0,
and a vertex extends its ancestor's mask by one bit strictly below the
ancestor's lowest set bit.  The subtree hanging below a nonzero mask has
order equal to the mask's lowest set bit, so "largest subtree first" is
just descending bit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import RootNotInformed, UnknownVertex
from .graph import Graph
from .labels import VertexLabel, bits, pos_mask
from .schedule import Schedule


def subtree_order(mask: int, m: int) -> int:
    return m if mask == 0 else (mask & -mask).bit_length() - 1


def parent_mask(mask: int) -> int:
    return mask & (mask - 1)


@dataclass(frozen=True)
class BinomialTree:
    """B^m rooted at mask 0; 2^m vertices, height m, labelled as tree 1."""

    m: int

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def root(self) -> VertexLabel:
        return self.label(0)

    def label(self, mask: int) -> VertexLabel:
        return VertexLabel(tree=1, pos=bits(mask, self.m) if mask else "")

    def mask_of(self, label: VertexLabel) -> int:
        """The mask whose label equals ``label``, else UnknownVertex."""
        try:
            mask = pos_mask(label.pos)
        except (AttributeError, TypeError, ValueError):
            mask = -1
        if not (0 <= mask < self.size and label == self.label(mask)):
            raise UnknownVertex(f"{label} is not a vertex of B^{self.m}")
        return mask

    @cached_property
    def labels(self) -> tuple[VertexLabel, ...]:
        """Every vertex in mask order, as to_graph() numbers them."""
        return tuple(map(self.label, range(self.size)))

    def to_graph(self) -> Graph:
        edges = [(parent_mask(mask), mask) for mask in range(1, self.size)]
        return Graph.from_sorted(self.labels, edges)


def build_binomial(m: int) -> BinomialTree:
    if m < 0:
        raise ValueError("order must be >= 0")
    return BinomialTree(m=m)


def binomial_schedule(tree: BinomialTree, informed: set[VertexLabel] | None = None) -> Schedule:
    """Broadcast the tree from its root.

    Every informed vertex calls its largest-order uninformed child each
    round; vertices in ``informed`` (which must hold the root, and only
    labels of the tree: UnknownVertex otherwise) are never called but place
    calls from round 1 on.  The ids are the masks.
    """
    if informed is not None and tree.root not in informed:
        raise RootNotInformed("root of tree 1 must be informed")
    masks = set(map(tree.mask_of, informed)) if informed else None
    return Schedule(tree.labels, 0, binomial_rounds_masks(tree.m, masks))


def binomial_rounds_masks(
    m: int,
    informed: set[int] | None = None,
    pruned: set[int] | frozenset[int] | None = None,
) -> list[list[tuple[int, int]]]:
    """Rounds of (caller mask, callee mask) pairs for the tree broadcast.

    ``pruned`` holds the masks removed from the tree.  Every informed vertex
    keeps a pointer to the bit of its next child to call; the pointer only
    moves down, so one call costs O(2^m) whatever the pre-informed set.
    Calls within a round are in ascending caller order.
    """
    gone = pruned or frozenset()
    start = sorted(({0} | (informed or set())) - gone)
    if not start or start[0] != 0:
        raise RootNotInformed("root of the tree must be informed")
    done = bytearray(1 << m)
    nxt = [0] * (1 << m)  # bit of the next child a vertex may call
    for v in start:
        done[v] = 1
        nxt[v] = subtree_order(v, m) - 1
    left = (1 << m) - len(gone) - len(start)
    active = [v for v in start if nxt[v] >= 0]
    rounds: list[list[tuple[int, int]]] = []
    while active:
        calls: list[tuple[int, int]] = []
        callers: list[int] = []
        for v in active:
            b = nxt[v]
            while b >= 0 and (done[v | 1 << b] or v | 1 << b in gone):
                b -= 1
            if b < 0:
                continue
            c = v | 1 << b
            done[c] = 1
            calls.append((v, c))
            if b:  # c has order b, so both v and c go on with bit b-1
                nxt[v] = nxt[c] = b - 1
                callers.append(v)
                callers.append(c)
        if calls:
            rounds.append(calls)
            left -= len(calls)
        active = sorted(callers)
    assert left == 0, "pruned-tree broadcast left vertices uninformed"
    return rounds
