"""Schedule generation: hypercube phase (rounds 1..k), tree phase (k+1..t+1).

Every originator class follows the same shape: get the message onto the
cube in round 1, finish the cube by round k, then let every root broadcast
its own (possibly pruned) tree in the remaining t+1-k rounds.  The deepest
leaf w of the first tree is the one vertex that may wait until the final
round: when the cube phase does not reach it, its tree parent calls it at
round t+1 exactly.

For shrunk graphs the low half of the cube is a hypercube with its low
blocks removed.  That region is covered inside the budget by a recursive
split: the entry vertex crosses into the region's top block, sweeps it,
and the block then pulls the rest down its matching in the final round
(or recurses one level lower when the entry sits below the top block).

Every originator off the cube (classes C12, C13, C22, C23) makes its first
call to a root of the first half and one call into each lower block, and
the blocks then sweep themselves: only the originator's own calls depend
on which vertex of its tree it is.  So every cube phase is made, and its
phase checks run, once, as a CubeTemplate kept on the layout: per tree for
the originators off the cube, per cube coordinate for the one on it (a
root, or w; at most 2^k).  The template holds every call of the phase,
the originator's own in place with None as their caller; each originator's
schedule holds the template itself and fills it with its originator, so it
is made in O(1).

So the schedules of the originators off the cube of one tree differ only
in the originator: families() hands them to a checker as one Family per
tree, the template, the table and the tree's fragment in it, and the
member ids, which it may certify together with no schedule made.
make_schedule stays the reference, and gives each member the schedule its
family stands for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import filterfalse
from typing import NamedTuple

from .construct import CaseOneLayout
from .errors import SchemePhaseOverrun, UnknownVertex
from .graph import Graph
from .hypercube import sweep_rounds
from .labels import VertexLabel
from .params import ConstructionParams
from .schedule import CubeTemplate, IdCall, Schedule

CoordCall = tuple[int, int]


@dataclass(frozen=True)
class SchemeCase:
    """Originator classification: which case rule drives phase 1."""

    tag: str  # C11, C12, C13, C21, C22, C23


def classify(g: Graph, layout: CaseOneLayout, u: VertexLabel) -> SchemeCase:
    shrunk = layout.params.n < layout.params.N
    f = _full_id(g, layout, u)
    tree, mask = divmod(f, layout.tree_size)  # zero-based tree index
    if mask == 0 or f == layout.w:
        return SchemeCase(tag="C21" if shrunk else "C11")
    if layout.coord_of_tree[tree + 1] >= layout.half:
        return SchemeCase(tag="C22" if shrunk else "C12")
    return SchemeCase(tag="C23" if shrunk else "C13")


def _full_id(g: Graph, layout: CaseOneLayout, u: VertexLabel) -> int:
    """u's full id, or UnknownVertex when g lacks u: the full id u's label
    spells, when g's vertex there carries that label.  O(1), with no
    label -> id index made."""
    labels, dense = g.labels, layout.dense
    try:
        f = layout.full_id(u)
        if (0 <= f < len(dense) and 0 <= (v := dense[f]) < len(labels)
                and ((label := labels[v]) is u or label == u)):
            return f
    except (AttributeError, TypeError, ValueError):  # no label, or one no vertex can carry
        pass
    raise UnknownVertex(f"{u} not in graph")


# ---------------------------------------------------------------------------
# phase 1 pieces (coordinate space)


def _region_rounds(entry: int, lo: int, m: int) -> list[list[CoordCall]]:
    """Broadcast coords [lo, 2^(m+1)) from entry within m+1 rounds (lo <= 2^m)."""
    top = 1 << m
    if lo == top:
        return sweep_rounds(entry, m)
    if entry >= top:
        rounds = sweep_rounds(entry, m)
        rounds.append([(c + top, c) for c in range(lo, top)])
        return rounds
    low = _region_rounds(entry, lo, m - 1)
    high = sweep_rounds(entry + top, m)
    merged: list[list[CoordCall]] = [[(entry, entry + top)]]
    for i in range(max(len(low), len(high))):
        cur: list[CoordCall] = []
        if i < len(low):
            cur.extend(low[i])
        if i < len(high):
            cur.extend(high[i])
        merged.append(cur)
    return merged


def _low_region(layout: CaseOneLayout, entry: int) -> list[list[CoordCall]]:
    """Cover the surviving low half from entry within k-1 rounds."""
    if layout.params.x == 0:
        return sweep_rounds(entry, layout.k - 1)
    return _region_rounds(entry, 1 << layout.params.p, layout.k - 2)


# ---------------------------------------------------------------------------
# schedule assembly


def _cube_phase(layout: CaseOneLayout, params: ConstructionParams, tree: int,
                uc: int | None) -> tuple[list[list[tuple[int | None, int]]], set[int]]:
    """The cube phase, rounds 1..k, from the vertex on cube coordinate
    ``uc``, or, with uc None, from any vertex of ``tree`` off the cube.
    Returns the calls per round, the originator's own in place with None as
    their caller, and the coordinates informed.  For an off-cube originator
    neither depends on which vertex it is."""
    k, p, half = params.k, params.p, layout.half
    ids = layout.coord_ids
    rounds: list[list[tuple[int | None, int]]] = [[] for _ in range(k)]
    informed: set[int] = set() if uc is None else {uc}

    def call(rnd: int, a: int | None, c: int):
        """In round rnd, the vertex on coordinate a (the originator when a
        is uc: None off the cube) calls the vertex on coordinate c."""
        rounds[rnd - 1].append((None if a == uc else ids[a], ids[c]))
        informed.add(c)

    def place(start: int, coord_rounds: list[list[CoordCall]]):
        for off, calls in enumerate(coord_rounds):
            for a, b in calls:
                call(start + off, a, b)

    if uc is None:
        rc = layout.coord_of_tree[tree]
        first = rc if rc >= half else half  # C12/C22 call their own root, C13/C23 coordinate half
        call(1, uc, first)
        place(2, sweep_rounds(first, k - 1))
        for i in range(2, k - p + 1):
            j = k - i  # in round i u calls into block Q^j: its own root if that lies there
            seed = rc if rc >> j == 1 else 1 << j
            call(i, uc, seed)
            place(i + 1, sweep_rounds(seed, j))
    elif params.n == params.N:
        place(1, sweep_rounds(uc, k))
    else:
        dead = (1 << p) if params.x > 0 else 0
        if uc >= half:
            partner = uc ^ half
            if partner < dead:
                partner = dict(layout.replacement_coords)[uc]
            q1_seed, q2_entry = uc, partner
        else:
            partner = uc | half
            q1_seed, q2_entry = partner, uc
        call(1, uc, partner)
        place(2, sweep_rounds(q1_seed, k - 1))
        place(2, _low_region(layout, q2_entry))
    return rounds, informed


def _check_phase(layout: CaseOneLayout, params: ConstructionParams, informed: set[int],
                 off_cube: bool) -> None:
    """Raise SchemePhaseOverrun when a cube phase that informs the
    coordinates ``informed`` misses a live one (coordinate 0, w, waits for
    its tree when the originator is off the cube), or is an off-cube
    originator's and informs w.  So an on-cube phase informs w exactly when
    w survives, and an off-cube one never does, which make_schedule's
    overrides rely on: the shift lemma and the table need each tree to start
    from its root and one more vertex at most.  No generated phase raises
    (test_scheme pins this over every originator of t=7..11)."""
    missing = layout.live_coords - informed
    if off_cube:
        missing -= {0}
    if missing:
        raise SchemePhaseOverrun(f"cube vertices missed by round {params.k}: "
                                 f"{sorted(missing)}")
    if off_cube and 0 in informed:
        raise SchemePhaseOverrun("the cube phase informed w as well as u, off the cube")


def make_schedule(g: Graph, layout: CaseOneLayout, params: ConstructionParams,
                  u: VertexLabel) -> Schedule:
    """Legal schedule from originator u completing by round t+1, as dense ids
    of the graph the layout was built with.

    The cube phase is a CubeTemplate, which the schedule fills with u: made
    and checked on first use and kept in layout.cube_templates, keyed (u's
    tree, u's cube coordinate, or None when u is off the cube)."""
    f = _full_id(g, layout, u)
    M, w = layout.tree_size, layout.w
    utree, umask = f // M + 1, f % M
    uid = layout.dense[f]
    # tree phase: every surviving tree broadcasts alone from round k+1, from
    # its root (the layout's table) and at most one more vertex (an override
    # of the table's fragment): u in its own tree when u is off the cube,
    # else w in tree 1 when w survives (_check_phase)
    if umask and f != w:
        uc, overrides = None, [(utree, layout.tree_rounds(utree, umask))]
    else:  # tree 1 starts at full id 0, so w's mask is its full id
        uc = layout.coord_of_tree[utree] if umask == 0 else 0
        overrides = [(1, layout.tree_rounds(1, w))] if layout.w_alive else []
    return Schedule(layout.labels, uid, _template(layout, params, utree, uc), overrides,
                    layout.plain_table)


def _template(layout: CaseOneLayout, params: ConstructionParams, tree: int,
              uc: int | None) -> CubeTemplate:
    """The CubeTemplate of the cube phase from coordinate ``uc``, or from any
    vertex of ``tree`` off the cube (uc None): made, and its phase checks
    run, on first use, then kept in layout.cube_templates."""
    key = tree, uc
    template = layout.cube_templates.get(key)
    if template is None:
        rounds, informed = _cube_phase(layout, params, tree, uc)
        _check_phase(layout, params, informed, uc is None)
        template = layout.cube_templates[key] = CubeTemplate(tree, rounds)
    return template


class Family(NamedTuple):
    """The off-cube originators ``members`` of one tree, the template's,
    whose schedules differ only in the originator: make_schedule gives each
    member u Schedule(labels, u, template, [(template.tree,
    ShiftedFragment(base, u))], table), ``base`` being the table's fragment
    of the tree, and the schedule fills the template with u.  So a checker
    may certify them together."""

    labels: tuple[VertexLabel, ...]
    template: CubeTemplate
    base: tuple
    table: tuple
    members: list[int]


def families(layout: CaseOneLayout, params: ConstructionParams,
             ids: Sequence[int]) -> tuple[list[Family], list[int]]:
    """The dense ids ``ids`` of the built graph, split: those off the cube,
    each once, as one Family per tree, its members ascending; and the rest,
    in the order given: those on the cube, and those of a tree whose cube
    phase fails its checks (make_schedule raises for them)."""
    on_cube = frozenset(layout.coord_ids)
    rest = list(filter(on_cube.__contains__, ids))
    if isinstance(ids, range) and ids.step > 0:  # ascending and distinct already
        off = list(filterfalse(on_cube.__contains__, ids))
    else:
        off = sorted(set(ids).difference(on_cube))
    out: list[Family] = []
    if not off:
        return out, rest
    M = layout.tree_size
    trees = [tree for tree, _ in layout.plain_table]
    starts = [layout.dense[(tree - 1) * M] for tree in trees] + [params.n]
    i = 0
    while i < len(off):  # one tree per pass: the run of off that lies in its id range
        at = bisect_right(starts, off[i]) - 1
        j = bisect_left(off, starts[at + 1], i)
        members, tree = off[i:j], trees[at]
        i = j
        try:
            template = _template(layout, params, tree, None)
        except SchemePhaseOverrun:
            rest += members
            continue
        out.append(Family(layout.labels, template, layout.tree_rounds(tree), layout.plain_table,
                          members))
    return out, rest
