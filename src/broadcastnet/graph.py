"""Immutable simple undirected graph over structural vertex labels.

Vertex id i is labels[i], in the order the builder gives (the primitives by
coordinate or mask, the construction by tree and position), so exports are
byte-identical across runs; everything else works on the ids and ``adj``.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .errors import MalformedGraph, UnknownVertex
from .labels import VertexLabel


class Graph:
    """Simple undirected graph over dense ids; construct via :meth:`from_sorted`
    (or :meth:`from_json`, which reads what :meth:`to_json` writes)."""

    __slots__ = ("labels", "_index", "adj", "_edge_count", "t", "k", "_verdicts")

    def __init__(
        self,
        labels: tuple[VertexLabel, ...],
        adj: tuple[frozenset[int], ...],
        edge_count: int,
        t: int | None = None,
        k: int | None = None,
    ):
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self.adj = adj
        self._edge_count = edge_count
        self.t = t
        self.k = k
        self._verdicts = None  # filled by verify: what it has checked on this graph

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sorted(
        cls,
        labels: Sequence[VertexLabel],
        id_edges: Iterable[tuple[int, int]],
        t: int | None = None,
        k: int | None = None,
    ) -> "Graph":
        """The graph on ``labels`` in the order given, edges as id pairs;
        a repeated edge counts once."""
        nbrs: list[list[int]] = [[] for _ in labels]
        for a, b in id_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        adj = tuple(map(frozenset, nbrs))
        return cls(tuple(labels), adj, sum(map(len, adj)) // 2, t=t, k=k)

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def __contains__(self, label: VertexLabel) -> bool:
        return label in self._index

    def vertex_id(self, label: VertexLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertex(f"vertex {label} not in graph") from None

    def edge_ids(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in sorted(self.adj[a]) if a < b]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        found = 1
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    found += 1
                    stack.append(v)
        return found == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        obj: dict = {"n": self.n}
        if self.t is not None:
            obj["t"] = self.t
        if self.k is not None:
            obj["k"] = self.k
        obj["vertices"] = [lab.to_json(i) for i, lab in enumerate(self.labels)]
        obj["edges"] = self.edge_ids()
        return json.dumps(obj, separators=(",", ":"), sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, data: str | bytes) -> "Graph":
        """Read what :meth:`to_json` writes; raise MalformedGraph on anything else."""
        try:
            obj = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise MalformedGraph(f"graph file is not JSON: {exc}") from None
        if not (isinstance(obj, dict) and isinstance(obj.get("vertices"), list)
                and isinstance(obj.get("edges"), list)
                and all(obj.get(key) is None or type(obj[key]) is int for key in ("t", "k"))):
            raise MalformedGraph("graph JSON needs 'vertices' and 'edges' lists, int 't' and 'k'")
        n = len(obj["vertices"])
        labels: list[VertexLabel | None] = [None] * n
        for i, v in enumerate(obj["vertices"]):
            if not (isinstance(v, dict) and _is_id(v.get("id"), n) and labels[v["id"]] is None
                    and "tree" in v and (v["tree"] is None or type(v["tree"]) is int)
                    and _is_bits(v.get("pos"))
                    and "cube" in v and (v["cube"] is None or _is_bits(v["cube"]))):
                raise MalformedGraph(f"vertex entry {i} is malformed or repeats an id")
            labels[v["id"]] = VertexLabel.from_json(v)
        if len(set(labels)) != n:
            raise MalformedGraph("two vertices share a label")
        for i, e in enumerate(obj["edges"]):
            if not (isinstance(e, list) and len(e) == 2 and _is_id(e[0], n)
                    and _is_id(e[1], n) and e[0] != e[1]):
                raise MalformedGraph(f"edge entry {i} is not two distinct ids in [0, {n})")
        return cls.from_sorted(labels, obj["edges"], t=obj.get("t"), k=obj.get("k"))

    def to_edgelist(self) -> str:
        return "".join(f"{a} {b}\n" for a, b in self.edge_ids())

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for i, lab in enumerate(self.labels):
            text = str(lab)
            if lab.cube is not None:
                text += f" [{lab.cube}]"
            lines.append(f'  {i} [label="{text}"];')
        for a, b in self.edge_ids():
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def export(self, fmt: str) -> bytes:
        """Serialize deterministically; ``fmt`` is one of dot, json, edgelist."""
        if fmt == "json":
            return self.to_json().encode()
        if fmt == "dot":
            return self.to_dot().encode()
        if fmt == "edgelist":
            return self.to_edgelist().encode()
        raise ValueError(f"unknown export format: {fmt}")


def _is_id(value, n: int) -> bool:
    return type(value) is int and 0 <= value < n


def _is_bits(value) -> bool:
    """A position code or cube coordinate: a string of 0s and 1s, maybe empty."""
    return isinstance(value, str) and not value.strip("01")

