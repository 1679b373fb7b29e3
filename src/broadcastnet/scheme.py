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
    subcube: int | None = None  # block index of the tree's root, low half only

    @property
    def on_cube(self) -> bool:
        return self.tag in ("C11", "C21")


def classify(g: Graph, layout: CaseOneLayout, u: VertexLabel) -> SchemeCase:
    if u not in g:
        raise UnknownVertex(f"{u} not in graph")
    shrunk = layout.params.n < layout.params.N
    f = layout.full_id(u)
    tree, mask = divmod(f, layout.tree_size)  # zero-based tree index
    if mask == 0 or f == layout.w:
        return SchemeCase(tag="C21" if shrunk else "C11")
    c = layout.coord_of_tree[tree + 1]
    if c >= layout.half:
        return SchemeCase(tag="C22" if shrunk else "C12")
    return SchemeCase(tag="C23" if shrunk else "C13", subcube=layout.subcube_of_coord(c))


# ---------------------------------------------------------------------------
# phase 1 pieces (coordinate space)


def _region_rounds(entry: int, lo: int, m: int) -> list[list[CoordCall]]:
    """Broadcast coords [lo, 2^(m+1)) from entry within m+1 rounds (lo <= 2^m)."""
    top = 1 << m
    block = set(range(top, 2 * top))
    if lo == top:
        return sweep_rounds(entry, list(range(m)), block)
    if entry >= top:
        rounds = sweep_rounds(entry, list(range(m)), block)
        rounds.append([(c + top, c) for c in range(lo, top)])
        return rounds
    low = _region_rounds(entry, lo, m - 1)
    high = sweep_rounds(entry + top, list(range(m)), block)
    merged: list[list[CoordCall]] = [[(entry, entry + top)]]
    for i in range(max(len(low), len(high))):
        cur: list[CoordCall] = []
        if i < len(low):
            cur.extend(low[i])
        if i < len(high):
            cur.extend(high[i])
        merged.append(cur)
    return merged


def _half_sweep(layout: CaseOneLayout, seed: int, first: bool) -> list[list[CoordCall]]:
    k = layout.k
    lo, hi = (layout.half, 1 << k) if first else (0, layout.half)
    return sweep_rounds(seed, list(range(k - 1)), set(range(lo, hi)))


def _low_region(layout: CaseOneLayout, entry: int) -> list[list[CoordCall]]:
    """Cover the surviving low half from entry within k-1 rounds."""
    if layout.params.x == 0:
        return _half_sweep(layout, entry, first=False)
    return _region_rounds(entry, 1 << layout.params.p, layout.k - 2)


def _block_sweep(j: int, seed: int) -> list[list[CoordCall]]:
    """Sweep of block Q^j (the coordinates whose highest set bit is j) from seed."""
    return sweep_rounds(seed, list(range(j)), set(range(1 << j, 1 << (j + 1))))


# ---------------------------------------------------------------------------
# schedule assembly


def make_schedule(g: Graph, layout: CaseOneLayout, params: ConstructionParams,
                  u: VertexLabel) -> Schedule:
    """Legal schedule from originator u completing by round t+1, as dense ids
    of the graph the layout was built with."""
    case = classify(g, layout, u)
    k, p = params.k, params.p
    ids = layout.coord_ids
    cube: list[list[IdCall]] = [[] for _ in range(k)]  # rounds 1..k
    f = layout.full_id(u)
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
            place(1, sweep_rounds(uc, list(range(k))))
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
            place(2, _half_sweep(layout, q1_seed, first=True))
            place(2, _low_region(layout, q2_entry))
    else:
        rc = layout.coord_of_tree[utree]
        if case.tag in ("C12", "C22"):
            call(1, uid, rc)
            place(2, _half_sweep(layout, rc, first=True))
            swap_round = None
        else:
            call(1, uid, layout.half)
            place(2, _half_sweep(layout, layout.half, first=True))
            swap_round = k - case.subcube
        for i in range(2, k - p + 1):
            j = k - i + 1
            if swap_round == i:
                call(i, uid, rc)
                place(i + 1, _block_sweep(case.subcube, rc))
            else:
                call(i, uid, 1 << (j - 1))
                place(i + 1, _block_sweep(j - 1, 1 << (j - 1)))

    # the cube phase must have informed every live coordinate by round k
    want = set(layout.live_coords)
    if case.on_cube or params.x > 0 or f == layout.w:
        missing = want - cube_informed
    else:
        missing = want - cube_informed - {0}  # w is reached through its tree
    if missing:
        raise SchemePhaseOverrun(f"cube vertices missed by round {k}: {sorted(missing)}")

    # tree phase: every surviving tree broadcasts alone from round k+1
    w_informed = 0 in cube_informed and layout.w_alive
    fragments = []
    for tree in range(1, params.num_trees + 1):
        if tree in layout.deleted_trees:
            continue
        pre: set[int] = set()
        if utree == tree and umask != 0:
            pre.add(umask)
        if tree == 1 and w_informed:
            pre.add(layout.w)  # tree 1 starts at full id 0, so w's mask is its full id
        fragments.append((tree, layout.tree_rounds(tree, pre or None)))

    return Schedule(layout.labels, uid, cube, fragments)
