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
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import CaseOneLayout
from .errors import SchemePhaseOverrun, UnknownVertex
from .graph import Graph
from .hypercube import sweep_rounds
from .labels import VertexLabel
from .params import ConstructionParams
from .schedule import IdCall, Schedule

CoordCall = tuple[int, int]


@dataclass(frozen=True)
class SchemeCase:
    """Originator classification: which case rule drives phase 1."""

    tag: str  # C11, C12, C13, C21, C22, C23

    @property
    def on_cube(self) -> bool:
        return self.tag in ("C11", "C21")


def classify(g: Graph, layout: CaseOneLayout, u: VertexLabel) -> SchemeCase:
    return _case(g, layout, u)[1]


def _case(g: Graph, layout: CaseOneLayout, u: VertexLabel) -> tuple[int, SchemeCase]:
    """u's full id and its case."""
    if u not in g:
        raise UnknownVertex(f"{u} not in graph")
    shrunk = layout.params.n < layout.params.N
    f = layout.full_id(u)
    tree, mask = divmod(f, layout.tree_size)  # zero-based tree index
    if mask == 0 or f == layout.w:
        return f, SchemeCase(tag="C21" if shrunk else "C11")
    c = layout.coord_of_tree[tree + 1]
    if c >= layout.half:
        return f, SchemeCase(tag="C22" if shrunk else "C12")
    return f, SchemeCase(tag="C23" if shrunk else "C13")


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


def make_schedule(g: Graph, layout: CaseOneLayout, params: ConstructionParams,
                  u: VertexLabel) -> Schedule:
    """Legal schedule from originator u completing by round t+1, as dense ids
    of the graph the layout was built with."""
    f, case = _case(g, layout, u)
    k, p = params.k, params.p
    ids = layout.coord_ids
    cube: list[list[IdCall]] = [[] for _ in range(k)]  # rounds 1..k
    uid = layout.dense[f]
    utree, umask = f // params.tree_size + 1, f % params.tree_size
    # coordinates informed by the end of the cube phase
    cube_informed: set[int] = set()
    if umask == 0:
        cube_informed.add(layout.coord_of_tree[utree])
    elif f == layout.w:
        cube_informed.add(0)

    def call(rnd: int, a: int, c: int):
        """In round rnd, the vertex of id a calls the vertex on coordinate c."""
        cube[rnd - 1].append((a, ids[c]))
        cube_informed.add(c)

    def place(start: int, coord_rounds: list[list[CoordCall]]):
        for off, calls in enumerate(coord_rounds):
            for a, b in calls:
                call(start + off, ids[a], b)

    if case.on_cube:
        uc = layout.coord_of_tree[utree] if umask == 0 else 0
        if params.n == params.N:
            place(1, sweep_rounds(uc, k))
        else:
            dead = (1 << p) if params.x > 0 else 0
            if uc >= layout.half:
                partner = uc ^ layout.half
                if partner < dead:
                    partner = dict(layout.replacement_coords)[uc]
                q1_seed, q2_entry = uc, partner
            else:
                partner = uc | layout.half
                q1_seed, q2_entry = partner, uc
            call(1, ids[uc], partner)
            place(2, sweep_rounds(q1_seed, k - 1))
            place(2, _low_region(layout, q2_entry))
    else:
        rc = layout.coord_of_tree[utree]
        if case.tag in ("C12", "C22"):
            call(1, uid, rc)
            place(2, sweep_rounds(rc, k - 1))
        else:
            call(1, uid, layout.half)
            place(2, sweep_rounds(layout.half, k - 1))
        for i in range(2, k - p + 1):
            j = k - i  # in round i u calls into block Q^j: its own root if that lies there
            seed = rc if rc >> j == 1 else 1 << j
            call(i, uid, seed)
            place(i + 1, sweep_rounds(seed, j))

    # the cube phase must have informed every live coordinate by round k
    missing = layout.live_coords - cube_informed
    if not (case.on_cube or params.x > 0 or f == layout.w):
        missing -= {0}  # w is reached through its tree
    if missing:
        raise SchemePhaseOverrun(f"cube vertices missed by round {k}: {sorted(missing)}")

    # tree phase: every surviving tree broadcasts alone from round k+1, from
    # its root (the layout's table) and at most one more vertex, u in its own
    # tree or w in tree 1 (an override of the table's fragment)
    w_informed = 0 in cube_informed and layout.w_alive
    if w_informed and utree == 1 and umask not in (0, layout.w):
        raise SchemePhaseOverrun("the cube phase informed both u and w of tree 1")
    overrides = []
    if umask and f != layout.w:
        overrides.append((utree, layout.tree_rounds(utree, umask)))
    if w_informed:  # tree 1 starts at full id 0, so w's mask is its full id
        overrides.append((1, layout.tree_rounds(1, layout.w)))

    return Schedule(layout.labels, uid, cube, overrides, layout.plain_table)
