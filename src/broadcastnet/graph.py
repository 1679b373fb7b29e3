"""Immutable simple undirected graph over structural vertex labels.

Vertex id i is labels[i], in the order the builder gives (the primitives by
coordinate or mask, the construction by tree and position), so exports are
byte-identical across runs; everything else works on the ids.

The adjacency is kept in CSR (compressed sparse row) form, two arrays of C
ints and no container per vertex: ``offsets`` holds n + 1 entries and
``targets`` the 2|E| neighbour ids, those of vertex v, ascending, being
``targets[offsets[v]:offsets[v + 1]]``.  The label -> id index is made on
the first lookup by label.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from itertools import islice
from operator import eq
from typing import Iterable, Iterator, Sequence

from .errors import MalformedGraph, UnknownVertex
from .labels import VertexLabel


class Graph:
    """Simple undirected graph over dense ids; construct via :meth:`from_sorted`
    (or :meth:`from_json`, which reads what :meth:`to_json` writes)."""

    __slots__ = ("labels", "offsets", "targets", "t", "k", "_index", "_verdicts")

    def __init__(
        self,
        labels: tuple[VertexLabel, ...],
        offsets: array,
        targets: array,
        t: int | None = None,
        k: int | None = None,
    ):
        self.labels = labels
        self.offsets = offsets
        self.targets = targets
        self.t = t
        self.k = k
        self._index: dict[VertexLabel, int] | None = None  # made on first lookup
        self._verdicts = None  # filled by verify: what it has checked on this graph

    def __reduce__(self):
        # the label index and verify's record are caches, made again on demand
        return Graph, (self.labels, self.offsets, self.targets, self.t, self.k)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sorted(
        cls,
        labels: Sequence[VertexLabel],
        id_edges: Iterable[tuple[int, int]],
        t: int | None = None,
        k: int | None = None,
    ) -> "Graph":
        """The graph on ``labels`` in the order given, edges as id pairs read
        once; a repeated edge counts once."""
        rows: list[list[int] | None] = [[] for _ in labels]
        for a, b in id_edges:
            rows[a].append(b)
            rows[b].append(a)
        offsets, targets = array("i", [0]), array("i")
        for v, row in enumerate(rows):
            rows[v] = None  # each row goes once it is in the arrays
            row.sort()
            if any(map(eq, row, islice(row, 1, None))):  # build never repeats one; a file may
                row = sorted(set(row))
            targets.extend(row)
            offsets.append(len(targets))
        return cls(tuple(labels), offsets, targets, t=t, k=k)

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.targets) // 2

    def _ids(self) -> dict[VertexLabel, int]:
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        return self._index

    def __contains__(self, label: VertexLabel) -> bool:
        return label in (self._index or self._ids())

    def vertex_id(self, label: VertexLabel) -> int:
        try:
            return (self._index or self._ids())[label]
        except KeyError:
            raise UnknownVertex(f"vertex {label} not in graph") from None

    def edge_ids(self) -> list[tuple[int, int]]:
        """Every edge once, as (low, high) ids, ascending: each row read from
        its first neighbour above the vertex."""
        off, nbrs = self.offsets, self.targets
        return [(a, b) for a in range(self.n)
                for b in nbrs[bisect_right(nbrs, a, off[a], off[a + 1]):off[a + 1]]]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        off, nbrs = self.offsets, self.targets
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        found = 1
        while stack:
            u = stack.pop()
            for v in nbrs[off[u]:off[u + 1]]:
                if not seen[v]:
                    seen[v] = 1
                    found += 1
                    stack.append(v)
        return found == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.labels == other.labels and self.offsets == other.offsets
                and self.targets == other.targets)

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
        vertices = obj.pop("vertices")
        n = len(vertices)
        labels: list[VertexLabel | None] = [None] * n
        for i, v in enumerate(vertices):
            if not (isinstance(v, dict) and _is_id(v.get("id"), n) and labels[v["id"]] is None
                    and "tree" in v and (v["tree"] is None or type(v["tree"]) is int)
                    and _is_bits(v.get("pos"))
                    and "cube" in v and (v["cube"] is None or _is_bits(v["cube"]))):
                raise MalformedGraph(f"vertex entry {i} is malformed or repeats an id")
            labels[v["id"]] = VertexLabel.from_json(v)
        del vertices
        if len(set(labels)) != n:
            raise MalformedGraph("two vertices share a label")
        # only the reader holds the parsed edge list, so it goes once read
        return cls.from_sorted(labels, _edge_pairs(obj.pop("edges"), n),
                               t=obj.get("t"), k=obj.get("k"))

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


def _edge_pairs(edges: list, n: int) -> Iterator[tuple[int, int]]:
    """The entries of a graph file's edge list as id pairs, as they are read;
    raise MalformedGraph at the first that is not two distinct ids in [0, n)."""
    for i, e in enumerate(edges):
        if type(e) is list and len(e) == 2:
            a, b = e
            if type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n and a != b:
                yield a, b
                continue
        raise MalformedGraph(f"edge entry {i} is not two distinct ids in [0, {n})")

