"""Broadcast schedules: an originator, then per-round (caller, callee) calls.

A schedule is immutable.  Its vertices are dense ids indexing a label
tuple, as the graph numbering them holds it; labels are read only at the
boundary.  The calls are kept in the shape of the broadcast scheme's two
phases: the rounds from round 1 on, then the tree fragments, every one
starting in the round after those rounds.  The first rounds are a tuple of
rounds (a plain schedule's), or a CubeTemplate (the scheme's): the first
rounds that the originators of one tree off the cube share (or the one
originator on a cube coordinate has), with the originator's own calls left
in place and None as their caller; a schedule fills it with its own
originator when its rounds are read.  The fragments come as a table and
overrides.  The table is a tuple of (tree, fragment) pairs, one per tree,
each broadcasting its tree from the root alone; one table serves every
schedule on a graph (CaseOneLayout.plain_table), so a checker can accept it
once per graph.  An override is a (tree, fragment) pair that takes the
place of the table's fragment of its tree: the scheme overrides the
originator's own tree, unless the originator is its root, and, when its
first rounds inform w, tree 1.  A plain schedule has neither.  A fragment
is a tuple of rounds, or a ShiftedFragment: a tuple fragment with one more
vertex informed before it starts, described in O(1) and made into rounds
only when they are read.  A template, like a fragment, is immutable, so a
checker may accept it once and key the verdict by the object.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import UnknownVertex
from .graph import Graph
from .labels import VertexLabel

IdCall = tuple[int, int]  # (caller, callee) dense ids


class Schedule:
    """The broadcast from ``labels[origin]``; the calls of ``rounds[i]`` are
    placed during round i+1, every id indexing ``labels``.

    ``pieces`` is (the rounds given, the override pairs given, the table
    given).  The rounds are kept as a tuple, or as the CubeTemplate given,
    which the rounds fill with ``origin``; the table as the object given, a
    tuple, and the fragments as they are given, so they should be
    immutable, as tree_rounds makes them (tuples, or ShiftedFragments).
    """

    __slots__ = ("labels", "origin", "pieces", "_assembled")

    def __init__(self, labels: tuple[VertexLabel, ...], origin: int,
                 rounds: Iterable[Iterable[IdCall]] | CubeTemplate,
                 overrides: Iterable[tuple[int, Sequence[Sequence[IdCall]]]] = (),
                 table: tuple[tuple[int, Sequence[Sequence[IdCall]]], ...] = ()):
        self.labels = labels
        self.origin = origin
        if not isinstance(rounds, CubeTemplate):
            rounds = tuple(tuple(calls) for calls in rounds)
        self.pieces = (rounds, tuple(overrides), tuple(table))
        self._assembled: tuple[tuple[IdCall, ...], ...] | None = None

    @property
    def rounds(self) -> tuple[tuple[IdCall, ...], ...]:
        """The calls of every piece per round, read-only, made on first use:
        the first rounds (a template's with the originator as the caller
        None); then per table pair in order, the overrides of its tree in
        its place (or its own fragment, when none names it), then the
        overrides of trees the table lacks."""
        if self._assembled is None:
            first, overrides, table = self.pieces
            if isinstance(first, CubeTemplate):
                u = self.origin
                rounds = [[(u if a is None else a, b) for a, b in calls] for calls in first.rounds]
            else:
                rounds = [list(calls) for calls in first]
            start = len(rounds)
            named: dict[int, list] = {}
            for tree, frag in overrides:
                named.setdefault(tree, []).append(frag)
            fragments = [f for tree, plain in table for f in named.pop(tree, (plain,))]
            fragments += [f for frags in named.values() for f in frags]
            rounds += [[] for _ in range(max(map(len, fragments), default=0))]
            for frag in fragments:
                for rnd, calls in enumerate(frag, start=start):
                    rounds[rnd].extend(calls)
            self._assembled = tuple(map(tuple, rounds))
        return self._assembled

    def ids_in(self, g: Graph) -> tuple[int, Sequence[Sequence[IdCall]]]:
        """The originator and the calls as ids of g's numbering: as they are
        when the schedule is on g's own label tuple, else mapped through one
        table over the schedule's labels.  A label g lacks, and an id outside
        the schedule's tuple (or no int), becomes -1."""
        if self.labels is g.labels:
            return self.origin, self.rounds
        table = [g.vertex_id(label) if label in g else -1 for label in self.labels]
        n = len(table)

        def vid(i: int) -> int:
            return table[i] if isinstance(i, int) and 0 <= i < n else -1

        return vid(self.origin), [[(vid(a), vid(b)) for a, b in calls]
                                  for calls in self.rounds]

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
        if not all(isinstance(x, int) and 0 <= x < g.n
                   for x in chain((origin,), chain.from_iterable(chain.from_iterable(id_rounds)))):
            raise UnknownVertex("schedule names a vertex not in the graph")
        obj = {
            "originator": origin,
            "rounds": [sorted(calls) for calls in id_rounds],
            "completes_at": self.completes_at,
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"


class ShiftedFragment(Sequence):
    """The rounds of a tree fragment ``base`` when its vertex ``u`` is informed
    too before the fragment starts.

    ``base`` broadcasts a tree from its root alone and calls u in round r(u),
    from p.  The rounds are base's with three changes: the call p->u is
    dropped; the calls inside u's subtree (every vertex u informs, directly or
    not) move r(u) rounds earlier; the calls by which p informs the vertices
    it calls after u, and the calls inside their subtrees, move 1 round
    earlier.  Within a round the calls are in ascending caller order, and
    trailing empty rounds are left out.  Made in O(1); the rounds are made,
    once, when first read.  Immutable, like ``base`` must be, and pickled as
    its two fields.
    """

    __slots__ = ("base", "u", "_rounds")

    def __init__(self, base: Sequence[Sequence[IdCall]], u: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_rounds", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"ShiftedFragment is immutable: cannot set {name}")

    def __reduce__(self):
        return ShiftedFragment, (self.base, self.u)

    @property
    def rounds(self) -> tuple[tuple[IdCall, ...], ...]:
        """Made, once, in one pass over ``base``: each callee inherits the
        shift of its caller, except u (dropped) and the later callees of u's
        caller (shifted by 1)."""
        if self._rounds is None:
            shift: dict[int, int] = {}  # vertex -> rounds its calls move earlier
            rounds: list[list[IdCall]] = [[] for _ in self.base]
            p = None
            for r, calls in enumerate(self.base):
                for a, b in calls:
                    if b == self.u:
                        p, shift[b] = a, r + 1
                        continue
                    s = 1 if a == p else shift.get(a, 0)
                    if s:
                        shift[b] = s
                    rounds[r - s].append((a, b))
            while rounds and not rounds[-1]:
                rounds.pop()
            object.__setattr__(self, "_rounds", tuple(tuple(sorted(calls)) for calls in rounds))
        return self._rounds

    def __len__(self) -> int:
        return len(self.rounds)

    def __getitem__(self, i):
        return self.rounds[i]

    def __iter__(self):
        return iter(self.rounds)


class CubeTemplate:
    """The first rounds of the originators that share a cube phase (those
    of one tree off the cube, or the one on a cube coordinate): ``rounds``,
    the calls per round, the originator's own calls among them, in place,
    with None as their caller.  A Schedule fills it with its originator.
    Made once per tree or coordinate; immutable, and compared by identity.
    """

    __slots__ = ("tree", "rounds")

    def __init__(self, tree: int, rounds: Iterable[Iterable[tuple[int | None, int]]]):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "rounds", tuple(tuple(calls) for calls in rounds))

    def __setattr__(self, name, value):
        raise AttributeError(f"CubeTemplate is immutable: cannot set {name}")

    def __reduce__(self):
        return CubeTemplate, (self.tree, self.rounds)
