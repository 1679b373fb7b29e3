"""Structural vertex identity.

A vertex is identified by the binomial tree it lives in and its position
code inside that tree; vertices that also sit on the hypercube (the tree
roots and the promoted leaf w) carry a cube coordinate.  The position code
is a bit string of the tree's order: reading left to right, character q
says whether the path from the root picks the child of subtree order
h-1-q.  Roots have an empty position code.  Only this module writes
(``bits``) and reads (``pos_mask``) these bit strings.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class VertexLabel:
    """Identity of one vertex: tree index, in-tree position, optional cube coordinate."""

    tree: int | None
    pos: str = ""
    cube: str | None = None

    @property
    def is_root(self) -> bool:
        return self.pos == "" and self.tree is not None

    def __str__(self) -> str:
        if self.tree is None:
            return f"q{self.cube}" if self.cube is not None else "v"
        if self.pos == "":
            return f"r{self.tree}"
        if self.cube is not None:
            return "w"
        return f"B{self.tree}/{self.pos}"

    def to_json(self, vid: int) -> dict:
        return {"id": vid, "tree": self.tree, "pos": self.pos, "cube": self.cube}


def bits(value: int, width: int) -> str:
    """``value`` as a bit string of ``width`` characters ("" at width 0): a
    position code of a tree of order ``width``, or a cube coordinate."""
    return format(value, f"0{width}b") if width else ""


def pos_mask(pos: str) -> int:
    """The integer a position code (or cube coordinate) spells; "" reads 0."""
    return int(pos, 2) if pos else 0
