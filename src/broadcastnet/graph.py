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

import gc
import io
import json
from array import array
from bisect import bisect_right
from itertools import count, islice, repeat
from operator import eq
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import MalformedGraph, UnknownVertex
from .labels import VertexLabel

_BLOCK = 4096  # vertices, or rows of edges, per block a graph file is written in


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

    def write(self, fh: BinaryIO, fmt: str) -> None:
        """Write :meth:`export`'s bytes to the binary file object ``fh``, a
        block of _BLOCK vertices or rows at a time, never the whole file."""
        fh.writelines(self._blocks(fmt))

    def export(self, fmt: str) -> bytes:
        """Serialize deterministically; ``fmt`` is one of dot, json, edgelist.
        The blocks go into one growing buffer: a list of them joined would
        hold the file twice."""
        fh = io.BytesIO()
        self.write(fh, fmt)
        return fh.getvalue()

    def to_json(self) -> str:
        return self.export("json").decode()

    def _blocks(self, fmt: str) -> Iterator[bytes]:
        """The file ``fmt`` names in pieces: the vertices, then the edges,
        each a block of _BLOCK vertices or rows."""
        starts = range(0, self.n, _BLOCK)
        if fmt == "json":
            head = json.dumps({key: v for key, v in (("n", self.n), ("t", self.t), ("k", self.k))
                               if v is not None}, separators=(",", ":"))
            yield f'{head[:-1]},"vertices":['.encode()
            yield from ((("," if lo else "") + self._json_vertices(lo)).encode() for lo in starts)
            yield b'],"edges":['
            yield from self._edge_rows("[%d,", "]", ",")
            yield b"]}\n"
        elif fmt == "edgelist":
            yield from self._edge_rows("%d ", "\n", "")
        elif fmt == "dot":
            yield b"graph G {\n"
            yield from (self._dot_vertices(lo).encode() for lo in starts)
            yield from self._edge_rows("  %d -- ", ";\n", "")
            yield b"}\n"
        else:
            raise ValueError(f"unknown export format: {fmt}")

    def _edge_rows(self, head: str, tail: str, sep: str) -> Iterator[bytes]:
        """Every edge (a, b), a < b, once, as ``head % a + str(b) + tail``,
        the edges joined by ``sep``, in blocks of _BLOCK rows: row a is read
        from its first neighbour above a, and each row is one join."""
        off, nbrs, n = self.offsets, self.targets, self.n
        lead = ""
        for lo in range(0, n, _BLOCK):
            rows = []
            for a in range(lo, min(lo + _BLOCK, n)):
                end = off[a + 1]
                start = bisect_right(nbrs, a, off[a], end)
                if start < end:
                    pre = head % a
                    rows.append(pre + (tail + sep + pre).join(map(str, nbrs[start:end])) + tail)
            if rows:
                yield (lead + sep.join(rows)).encode()
                lead = sep

    def _json_vertices(self, lo: int) -> str:
        """The JSON entries of the vertices from id ``lo``, one block, joined
        by commas.  An f-string writes them when the columns show that it
        prints what json.dumps would; else json.dumps writes each entry."""
        block = self.labels[lo:lo + _BLOCK]
        trees = [lab.tree for lab in block]
        poss = [lab.pos for lab in block]
        cubes = [lab.cube for lab in block]
        if not (set(map(type, block)) <= {VertexLabel}
                and set(map(type, trees)) <= {int, type(None)}
                and set(map(type, poss)) <= {str}
                and set(map(type, cubes)) <= {str, type(None)}
                and _binary("".join(poss) + "".join(filter(None, cubes)))):
            return ",".join(json.dumps(lab.to_json(i), separators=(",", ":"))
                            for i, lab in enumerate(block, lo))
        return ",".join([f'''{{"id":{i},"tree":{"null" if t is None else t},"pos":"{p}",'''
                         f'''"cube":{"null" if c is None else '"' + c + '"'}}}'''
                         for i, t, p, c in zip(count(lo), trees, poss, cubes)])

    def _dot_vertices(self, lo: int) -> str:
        return "".join(f'  {i} [label="{lab!s}{"" if lab.cube is None else f" [{lab.cube}]"}"];\n'
                       for i, lab in enumerate(self.labels[lo:lo + _BLOCK], lo))

    @classmethod
    def from_json(cls, data: str | bytes) -> "Graph":
        """Read what :meth:`to_json` writes; raise MalformedGraph on anything else.

        The cyclic garbage collector is paused for the call, since nothing
        made here forms a cycle and reference counting frees all of it, and
        then left as the caller had it; other threads see it disabled for the
        duration of the call."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._read_json(data)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _read_json(cls, data: str | bytes) -> "Graph":
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
        if "n" in obj and not (type(obj["n"]) is int and obj["n"] == n):
            raise MalformedGraph(f"graph JSON's 'n' is not its vertex count {n}")
        labels = _vertex_labels(vertices)
        del vertices
        if len(set(labels)) != n:
            raise MalformedGraph("two vertices share a label")
        # only the reader holds the parsed edge list, so it goes once read
        return cls.from_sorted(labels, _edge_pairs(obj.pop("edges"), n),
                               t=obj.get("t"), k=obj.get("k"))


def _vertex_labels(vertices: list) -> list[VertexLabel]:
    """The labels a graph file's vertex entries give, placed by id.

    The entries are checked a column at a time, each pass a C loop: every
    entry a dict whose ids are ints forming a permutation of range(n), with
    "tree" an int or null, "pos" a string and "cube" a string or null, all
    present, and the strings of 0s and 1s only.  Only when a check fails are
    the entries scanned one by one, to name the first bad one."""
    n = len(vertices)

    def column(key: str) -> Iterator:
        return map(dict.get, vertices, repeat(key))

    if not (set(map(type, vertices)) <= {dict}
            and set(map(type, column("id"))) <= {int}
            and all(map(dict.__contains__, vertices, repeat("tree")))
            and all(map(dict.__contains__, vertices, repeat("cube")))
            and set(map(type, column("tree"))) <= {int, type(None)}
            and set(map(type, column("pos"))) <= {str}
            and set(map(type, column("cube"))) <= {str, type(None)}
            and _binary("".join(column("pos")) + "".join(filter(None, column("cube"))))):
        _name_bad_entry(vertices)
    made = map(VertexLabel, column("tree"), column("pos"), column("cube"))
    if all(map(eq, column("id"), count())):  # as to_json writes them
        return list(made)
    ids = list(column("id"))
    if sorted(ids) != list(range(n)):
        _name_bad_entry(vertices)
    labels: list[VertexLabel | None] = [None] * n
    for i, label in zip(ids, made):
        labels[i] = label
    return labels


def _name_bad_entry(vertices: list) -> None:
    """Raise MalformedGraph naming the first entry that is not a vertex or
    repeats an id, scanning the entries one by one."""
    n = len(vertices)
    seen = bytearray(n)
    for i, v in enumerate(vertices):
        if not (isinstance(v, dict) and _is_id(v.get("id"), n) and not seen[v["id"]]
                and "tree" in v and (v["tree"] is None or type(v["tree"]) is int)
                and _is_bits(v.get("pos"))
                and "cube" in v and (v["cube"] is None or _is_bits(v["cube"]))):
            raise MalformedGraph(f"vertex entry {i} is malformed or repeats an id")
        seen[v["id"]] = 1


def _is_id(value, n: int) -> bool:
    return type(value) is int and 0 <= value < n


def _binary(text: str) -> bool:
    """Whether ``text`` holds only 0s and 1s: two C counts, faster than a strip."""
    return text.count("0") + text.count("1") == len(text)


def _is_bits(value) -> bool:
    """A position code or cube coordinate: a string of 0s and 1s, maybe empty."""
    return isinstance(value, str) and _binary(value)


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

