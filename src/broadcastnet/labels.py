"""Structural vertex identity.

A vertex is identified by the binomial tree it lives in and its position
code inside that tree; vertices that also sit on the hypercube (the tree
roots and the promoted leaf w) carry a cube coordinate.  The position code
is a bit string of the tree's order: reading left to right, character q
says whether the path from the root picks the child of subtree order
h-1-q.  Roots have an empty position code.
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

    @classmethod
    def from_json(cls, obj: dict) -> "VertexLabel":
        return cls(tree=obj["tree"], pos=obj["pos"], cube=obj["cube"])


def pos_string(mask: int, order: int) -> str:
    """Position code of the tree vertex reached by the child-order set ``mask``."""
    if mask == 0:
        return ""
    return format(mask, f"0{order}b")
