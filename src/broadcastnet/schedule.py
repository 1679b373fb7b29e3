"""Broadcast schedules: an originator, then per-round (caller, callee) calls.

A schedule is immutable.  Its vertices are dense ids indexing a label
tuple, as the graph numbering them holds it; labels are read only at the
boundary.  The calls are kept in the shape of the broadcast scheme's two
phases: the rounds from round 1 on, then the tree fragments, every one
starting in the round after those rounds.  The first rounds are a tuple of
rounds (a plain schedule's), or a FilledTemplate (the scheme's): a
CubeTemplate, the first rounds that the originators of one tree off the
cube share (or the one originator on a cube coordinate has), with the
originator's own calls left as (round, callee, place) slots, filled with
one originator in O(1) and made into rounds only when they are read.  The
fragments come as a table and overrides.  The table is a tuple of (tree,
fragment) pairs, one per tree, each broadcasting its tree from the root
alone; one table serves every schedule on a graph
(CaseOneLayout.plain_table), so a checker can accept it once per graph.  An
override is a (tree, fragment) pair that takes the place of the table's
fragment of its tree: the scheme overrides the originator's own tree,
unless the originator is its root, and, when its first rounds inform w,
tree 1.  A plain schedule has neither.  A fragment is a tuple of rounds, or
a ShiftedFragment: a tuple fragment with one more vertex informed before it
starts, described in O(1) and made into rounds only when they are read.  A
template, like a fragment, is immutable, so a checker may accept it once
and key the verdict by the object.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .errors import UnknownVertex
from .graph import Graph
from .labels import VertexLabel

IdCall = tuple[int, int]  # (caller, callee) dense ids


class Schedule:
    """The broadcast from ``labels[origin]``; the calls of ``rounds[i]`` are
    placed during round i+1, every id indexing ``labels``.

    ``pieces`` is (the rounds given, the override pairs given, the table
    given).  The rounds are kept as a tuple, or as the FilledTemplate given;
    the table as the object given, a tuple, and the fragments as they are
    given, so they should be immutable, as tree_rounds makes them (tuples,
    or ShiftedFragments).
    """

    __slots__ = ("labels", "origin", "pieces", "_assembled")

    def __init__(self, labels: tuple[VertexLabel, ...], origin: int,
                 rounds: Iterable[Iterable[IdCall]] | FilledTemplate,
                 overrides: Iterable[tuple[int, Sequence[Sequence[IdCall]]]] = (),
                 table: tuple[tuple[int, Sequence[Sequence[IdCall]]], ...] = ()):
        self.labels = labels
        self.origin = origin
        if not isinstance(rounds, FilledTemplate):
            rounds = tuple(tuple(calls) for calls in rounds)
        self.pieces = (rounds, tuple(overrides), tuple(table))
        self._assembled: tuple[tuple[IdCall, ...], ...] | None = None

    @property
    def rounds(self) -> tuple[tuple[IdCall, ...], ...]:
        """The calls of every piece per round, read-only, made on first use:
        per table pair in order, the overrides of its tree in its place (or
        its own fragment, when none names it), then the overrides of trees
        the table lacks."""
        if self._assembled is None:
            first, overrides, table = self.pieces
            named: dict[int, list] = {}
            for tree, frag in overrides:
                named.setdefault(tree, []).append(frag)
            fragments = [f for tree, plain in table for f in named.pop(tree, (plain,))]
            fragments += [f for frags in named.values() for f in frags]
            rounds = [list(calls) for calls in first]
            rounds += [[] for _ in range(max(map(len, fragments), default=0))]
            for frag in fragments:
                for rnd, calls in enumerate(frag, start=len(first)):
                    rounds[rnd].extend(calls)
            self._assembled = tuple(map(tuple, rounds))
        return self._assembled

    def ids_in(self, g: Graph) -> tuple[int, Sequence[Sequence[IdCall]]]:
        """The originator and the calls as ids of g's numbering: as they are
        when the schedule is on g's own label tuple, else mapped through one
        table over the schedule's labels.  A label g lacks, and an id outside
        the schedule's tuple, becomes -1."""
        if self.labels is g.labels:
            return self.origin, self.rounds
        table = [g.vertex_id(label) if label in g else -1 for label in self.labels]
        n = len(table)

        def vid(i: int) -> int:
            return table[i] if 0 <= i < n else -1

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
        if origin < 0 or any(x < 0 for calls in id_rounds for call in calls for x in call):
            raise UnknownVertex("schedule names a vertex not in the graph")
        obj = {
            "originator": origin,
            "rounds": [sorted(calls) for calls in id_rounds],
            "completes_at": self.completes_at,
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"


class _Lazy(Sequence):
    """Rounds described in O(1) by the fields a subclass lists in its
    ``__slots__`` and sets, in that order, in its constructor, with
    ``_rounds`` None; made, once, by its ``_make`` when first read.
    Immutable, and pickled as its fields."""

    __slots__ = ("_rounds",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    @property
    def rounds(self) -> tuple[tuple[IdCall, ...], ...]:
        if self._rounds is None:
            object.__setattr__(self, "_rounds", self._make())
        return self._rounds

    def __len__(self) -> int:
        return len(self.rounds)

    def __getitem__(self, i):
        return self.rounds[i]

    def __iter__(self):
        return iter(self.rounds)


class ShiftedFragment(_Lazy):
    """The rounds of a tree fragment ``base`` when its vertex ``u`` is informed
    too before the fragment starts.

    ``base`` broadcasts a tree from its root alone and calls u in round r(u),
    from p.  The rounds are base's with three changes: the call p->u is
    dropped; the calls inside u's subtree (every vertex u informs, directly or
    not) move r(u) rounds earlier; the calls by which p informs the vertices
    it calls after u, and the calls inside their subtrees, move 1 round
    earlier.  Within a round the calls are in ascending caller order, and
    trailing empty rounds are left out.  Made in O(1); the rounds are made,
    once, when first read.  Immutable, like ``base`` must be.
    """

    __slots__ = ("base", "u")

    def __init__(self, base: Sequence[Sequence[IdCall]], u: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_rounds", None)

    def _make(self) -> tuple[tuple[IdCall, ...], ...]:
        return _shifted(self.base, self.u)


def _shifted(base: Sequence[Sequence[IdCall]], u: int) -> tuple[tuple[IdCall, ...], ...]:
    """The rounds a ShiftedFragment stands for, in one pass over ``base``:
    each callee inherits the shift of its caller, except u (dropped) and the
    later callees of u's caller (shifted by 1)."""
    shift: dict[int, int] = {}  # vertex -> rounds its calls move earlier
    rounds: list[list[IdCall]] = [[] for _ in base]
    p = None
    for r, calls in enumerate(base):
        for a, b in calls:
            if b == u:
                p, shift[u] = a, r + 1
                continue
            s = 1 if a == p else shift.get(a, 0)
            if s:
                shift[b] = s
            rounds[r - s].append((a, b))
    while rounds and not rounds[-1]:
        rounds.pop()
    return tuple(tuple(sorted(calls)) for calls in rounds)


class CubeTemplate:
    """The first rounds of the originators that share a cube phase (those
    of one tree off the cube, or the one on a cube coordinate): ``rounds``,
    the calls per round of every vertex but the originator, and ``slots``,
    the originator's own calls as (round, callee, place) triples, the round
    counted from 1 and the place the call's index in its filled round; the
    slots are filled in order.  Made once per tree or coordinate;
    immutable, and compared by identity.
    """

    __slots__ = ("tree", "rounds", "slots")

    def __init__(self, tree: int, rounds: Iterable[Iterable[IdCall]],
                 slots: Iterable[tuple[int, int, int]]):
        rounds = tuple(tuple(calls) for calls in rounds)
        slots = tuple(slots)
        if any(not 1 <= r <= len(rounds) for r, _, _ in slots):
            raise ValueError("a slot lies outside the template's rounds")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "slots", slots)

    def __setattr__(self, name, value):
        raise AttributeError(f"CubeTemplate is immutable: cannot set {name}")

    def __reduce__(self):
        return CubeTemplate, (self.tree, self.rounds, self.slots)


class FilledTemplate(_Lazy):
    """The rounds of ``template`` with the originator ``u`` making its slot
    calls, each inserted at its place.  Made in O(1); the rounds are made,
    once, when first read."""

    __slots__ = ("template", "u")

    def __init__(self, template: CubeTemplate, u: int):
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_rounds", None)

    def _make(self) -> tuple[tuple[IdCall, ...], ...]:
        rounds = [list(calls) for calls in self.template.rounds]
        for r, c, i in self.template.slots:
            rounds[r - 1].insert(i, (self.u, c))
        return tuple(map(tuple, rounds))

    def __len__(self) -> int:
        return len(self.template.rounds)
