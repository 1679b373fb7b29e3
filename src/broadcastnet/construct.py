"""Construction of the broadcast graphs and itemized edge accounting.

The full-size graph places 2^k - 1 binomial trees of order t+1-k, wires the
roots plus the deepest leaf w of the first tree into a k-cube, and attaches
every remaining tree vertex to a fixed set of roots.  Smaller graphs are
obtained by deleting vertices: whole trees whose roots fill the low cube
blocks, then single vertices pruned leaves-first.

The builder numbers vertices by their full-size id (tree - 1) * M + mask,
where M = 2^h and mask is the vertex's position code read in binary; the
layout and the scheme name every vertex by this full id too.  Position
codes have a fixed width, so ascending full id is the canonical label
order: the dense ids of a built graph are the ranks of its surviving full
ids, and labels are made once per surviving vertex, at assembly.

The edges are made in runs (_case1_runs) whose edges all have one class:
a tree's tree edges, one (root, tree) attachment, the cube edges.  The graph
reads them flattened, once.  The build's accounting and deletion ledger
then count the same runs: only each run's first edge is made and
classified, and the run's edges are counted by its length or, after
deletion, by the deletion marks of their ends.  One classifier,
_edge_classes, serves them and audit_edges, which classifies every edge it
reads off the built graph; audit_edges shares the build's run tally for the
removed_* block only.

Pruning never removes a root child: a root child's attachment to its own
root coincides with its tree edge, so deleting it would remove one edge
fewer than deleting any other vertex and break the uniform per-vertex edge
loss (and the flat accounting deltas across each (x, p) regime).  Nor does
it touch a low-half tree when x = 0, so tree 1, which holds w, is never
pruned: for x > 0 it is deleted whole.  The deep (non-root-child) vertices of
the pruning trees always suffice: pruning takes M(x - 2^p + 1) + y <= 2^p M - 1
vertices (p = 0 when x = 0), and the 2^k - 2^p pruning trees (the 2^(k-1)
first-half trees when x = 0) each hold M - 1 - h deep vertices, where
h = t + 1 - k >= 5.  _prune asserts this capacity.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat, tee

from .binomial import binomial_rounds_masks
from .bounds import closed_form_5a, closed_form_5b
from .graph import Graph
from .labels import VertexLabel, bits, pos_mask
from .params import ConstructionParams
from .schedule import CubeTemplate, IdCall, ShiftedFragment

Edge = tuple[int, int]  # (low, high) full ids
Fragment = tuple[tuple[IdCall, ...], ...]  # rounds of one tree's broadcast


# ---------------------------------------------------------------------------
# layout


@dataclass
class CaseOneLayout:
    """Placement data: which root sits on which cube coordinate, plus the
    deletion record when the graph was shrunk below full size."""

    params: ConstructionParams
    coord_of_tree: dict[int, int]
    tree_of_coord: dict[int, int]
    deleted_trees: frozenset[int] = frozenset()
    pruned_masks: dict[int, frozenset[int]] = field(default_factory=dict)
    replacement_coords: tuple[tuple[int, int], ...] = ()
    # set by the build: the built graph's labels, its dense id of every full
    # id (-1 for a deleted vertex) and of every cube coordinate (a list: the
    # scheme reads it per call)
    labels: tuple[VertexLabel, ...] = field(default=(), repr=False)
    dense: array = field(default_factory=lambda: array("i"), repr=False)
    coord_ids: list[int] = field(default_factory=list, repr=False)
    _plain_rounds: dict[int, Fragment] = field(default_factory=dict, repr=False)
    # filled by the scheme on first use: the cube phase, keyed (tree, cube
    # coordinate), the coordinate None for the originators off the cube
    cube_templates: dict[tuple[int, int | None], CubeTemplate] = field(default_factory=dict,
                                                                       repr=False)

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def h(self) -> int:
        return self.params.tree_order

    # the scheme reads these per originator: each is worked out once, then
    # read as a plain attribute
    @cached_property
    def tree_size(self) -> int:
        return self.params.tree_size

    @cached_property
    def half(self) -> int:
        return 1 << (self.k - 1)

    @cached_property
    def w(self) -> int:
        """Full id of w, the deepest leaf of tree 1."""
        return self.tree_size - 1

    @property
    def w_alive(self) -> bool:
        return 1 not in self.deleted_trees

    @cached_property
    def live_coords(self) -> frozenset[int]:
        """The cube coordinates whose vertex survives, made once."""
        return frozenset(range(1 << self.params.p if self.params.x > 0 else 0, 1 << self.k))

    @cached_property
    def plain_table(self) -> tuple[tuple[int, Fragment], ...]:
        """Per surviving tree in order, the pair (tree, its root-only fragment
        from tree_rounds): the fragments every schedule shares, made on first
        use, after the build, and then kept."""
        return tuple((tree, self.tree_rounds(tree))
                     for tree in range(1, self.params.num_trees + 1)
                     if tree not in self.deleted_trees)

    def subcube_of_coord(self, c: int) -> int:
        """Index i of the block Q^i containing coordinate c (c in the low half, c > 0)."""
        return c.bit_length() - 1

    def full_of_coord(self, c: int) -> int:
        """Full id of the vertex on cube coordinate c: w, or a tree root."""
        return self.w if c == 0 else (self.tree_of_coord[c] - 1) * self.tree_size

    def full_id(self, label: VertexLabel) -> int:
        return (label.tree - 1) * self.tree_size + pos_mask(label.pos)

    def tree_rounds(self, tree: int, mask: int = 0) -> Fragment | ShiftedFragment:
        """Broadcast rounds of one surviving tree, as dense-id pairs, from its
        root and, unless ``mask`` is 0, the vertex at ``mask`` too (u, or w
        in tree 1; the cube phase never informs both).

        The root-only fragment is simulated once per tree and cached.  With u
        informed, the rounds are those of the simulation from {root, u}, got
        without simulating by the shift lemma: drop the call to u = p | 1<<b,
        move u's subtree r(u) rounds earlier and the subtrees of u's younger
        siblings p | 1<<b' (b' < b, called after u) one round earlier.  So
        this returns, in O(1), the ShiftedFragment of the cached fragment and
        u, whose rounds are made only when read.  w = 2^h - 1 is a leaf with
        no younger sibling, so for w the lemma only drops its call.
        Fragments are immutable, so a verdict recorded for one stays true."""
        plain = self._plain_rounds.get(tree)
        base = (tree - 1) * self.tree_size
        if plain is None:
            rounds = binomial_rounds_masks(self.h, None, self.pruned_masks.get(tree))
            # one int object per vertex, shared by all its calls
            ids = self.dense[base:base + self.tree_size].tolist()
            plain = tuple(tuple((ids[a], ids[b]) for a, b in calls) for calls in rounds)
            self._plain_rounds[tree] = plain
        if not mask:
            return plain
        return ShiftedFragment(plain, self.dense[base + mask])


def _make_layout(params: ConstructionParams) -> CaseOneLayout:
    k = params.k
    coord_of_tree = {i + 1: 1 << i for i in range(k)}
    slots = []
    for i in range(k - 1, 0, -1):
        slots.extend(range((1 << i) + 1, 1 << (i + 1)))
    v2 = list(range(k + 1, params.num_trees + 1))
    assert len(slots) == len(v2)
    for r, c in zip(v2, slots):
        coord_of_tree[r] = c
    tree_of_coord = {c: i for i, c in coord_of_tree.items()}
    return CaseOneLayout(params=params, coord_of_tree=coord_of_tree, tree_of_coord=tree_of_coord)


# ---------------------------------------------------------------------------
# edge generation and assembly


def _attachment_targets(layout: CaseOneLayout, tree: int) -> list[int]:
    """Trees whose roots every non-root vertex of the given tree is wired to."""
    k = layout.k
    c = layout.coord_of_tree[tree]
    if c >= layout.half:
        return list(range(1, k)) + [tree]
    iq = layout.subcube_of_coord(c)
    return [tree] + [j for j in range(1, k) if j != iq + 1] + [k]


# A run is the (low, high) ends of edges that all have one class: one tree's
# tree edges, one (root, tree) attachment or the cube edges.  Each end is a
# list of full ids, edge by edge, or one int, a root that every edge shares.
Run = tuple[list[int] | int, list[int] | int]


def _case1_runs(layout: CaseOneLayout) -> Iterator[Run]:
    """Every full-size edge once, in runs made as they are read: the cube
    edges, then per tree its tree edges and its attachment runs, all over
    slices of one list of the full ids, so the edges share its int objects."""
    params = layout.params
    M = layout.tree_size
    ids = list(range(params.num_trees * M))
    cube = [layout.full_of_coord(c) for c in range(1 << params.k)]
    low, high = [], []
    for c, a in enumerate(cube):
        for b in range(params.k):
            if c < c ^ (1 << b):
                z = cube[c ^ (1 << b)]
                low.append(min(a, z))
                high.append(max(a, z))
    yield low, high
    parent = [m & (m - 1) for m in range(1, M)]
    deep = [m for m in range(1, M) if m & (m - 1)]  # a root child's own-root link is its tree edge
    for i in range(1, params.num_trees + 1):
        base = (i - 1) * M
        tree = ids[base:base + M]
        yield list(map(tree.__getitem__, parent)), tree[1:]
        nonroot, own = tree[1:], list(map(tree.__getitem__, deep))
        if base == 0:  # w, mask M - 1, last in both, is attached to no root
            nonroot, own = nonroot[:-1], own[:-1]
        for r in _attachment_targets(layout, i):
            root, vs = ids[(r - 1) * M], own if r == i else nonroot
            yield (root, vs) if r <= i else (vs, root)


def _run_edges(run: Run) -> Iterator[Edge]:
    lo, hi = run
    if isinstance(lo, int):
        return zip(repeat(lo), hi)
    return zip(lo, repeat(hi)) if isinstance(hi, int) else zip(lo, hi)


def _case1_edges(layout: CaseOneLayout) -> Iterator[Edge]:
    """Every full-size edge once, as a (low, high) pair of full ids, made as
    it is read: the runs, flattened."""
    return chain.from_iterable(map(_run_edges, _case1_runs(layout)))


def _built_edges(layout: CaseOneLayout, gone: bytearray) -> Iterator[Edge]:
    """The edges of the graph built, as (low, high) full ids, made as they
    are read: the full-size edges between vertices not marked in ``gone``,
    then the replacement edges."""
    edges = _case1_edges(layout)
    if not layout.params.d:
        return edges
    # a replacement joins two roots that differ in two coordinate bits, so
    # it is no cube edge and never coincides with an edge of the full graph
    added = [tuple(sorted(layout.full_of_coord(c) for c in pair))
             for pair in layout.replacement_coords]
    return chain((e for e in edges if not (gone[e[0]] or gone[e[1]])), added)


def _assemble(layout: CaseOneLayout, gone: bytearray) -> Graph:
    """Graph on the full ids not marked in ``gone``; dense ids are their
    ranks, and the edges stream from _built_edges into the graph.

    Records the graph's numbering on the layout, for the schedules."""
    params = layout.params
    h, k, w, low = layout.h, layout.k, layout.w, layout.tree_size - 1
    cube = [bits(layout.coord_of_tree[i], k) for i in range(1, params.num_trees + 1)]
    pos = [bits(m, h) for m in range(layout.tree_size)]  # shared by the trees
    rank = [-1] * len(gone)
    labels = []
    for v, mark in enumerate(gone):
        if mark:
            continue
        rank[v] = len(labels)
        tree, mask = v >> h, v & low  # zero-based tree index
        if mask == 0:
            labels.append(VertexLabel(tree + 1, "", cube[tree]))
        elif v == w:
            labels.append(VertexLabel(1, pos[mask], bits(0, k)))
        else:
            labels.append(VertexLabel(tree + 1, pos[mask]))
    edges = _built_edges(layout, gone)
    if params.d:  # else every rank is the full id
        edges = ((rank[a], rank[b]) for a, b in edges)
    g = Graph.from_sorted(labels, edges, t=params.t, k=k)
    layout.labels, layout.dense = g.labels, array("i", rank)
    layout.coord_ids = [rank[layout.full_of_coord(c)] for c in range(1 << k)]
    return g


# ---------------------------------------------------------------------------
# deletion order


def _prune_tree_sequence(layout: CaseOneLayout) -> list[int]:
    """Trees eligible for vertex pruning, in consumption order."""
    params = layout.params
    half = layout.half
    if params.x > 0:
        lo = 1 << params.p
        q2 = sorted(
            range(lo, half),
            key=lambda c: (layout.subcube_of_coord(c), layout.tree_of_coord[c]),
            reverse=True,
        )
    else:
        q2 = []
    q1_v2 = sorted(
        (c for c in range(half, 1 << params.k) if layout.tree_of_coord[c] != params.k),
        key=lambda c: layout.tree_of_coord[c],
        reverse=True,
    )
    seq = q2 + q1_v2 + [layout.coord_of_tree[params.k]]
    return [layout.tree_of_coord[c] for c in seq]


def _leaves_first(M: int) -> list[int]:
    """Deep (non-root-child) masks of one tree in deletion order: by
    decreasing depth, ties by position code descending."""
    return sorted(
        (m for m in range(1, M) if m & (m - 1)),
        key=lambda m: (bin(m).count("1"), m),
        reverse=True,
    )


def _prune(layout: CaseOneLayout, need: int) -> dict[int, set[int]]:
    deep = _leaves_first(layout.tree_size)
    taken: dict[int, set[int]] = {}
    for tree in _prune_tree_sequence(layout):
        if need == 0:
            break
        taken[tree] = set(deep[:need])
        need -= len(taken[tree])
    if need:
        raise AssertionError("pruning capacity exhausted")
    assert 1 not in taken, "tree 1 pruned"
    return taken


# deletion marks, indexed by full id
_PRUNED, _ROOT, _BODY = 1, 2, 3  # pruned vertex; root / non-root of a deleted tree


def _deletion_marks(layout: CaseOneLayout) -> bytearray:
    M = layout.tree_size
    gone = bytearray(layout.params.num_trees * M)
    for tree in layout.deleted_trees:
        base = (tree - 1) * M
        gone[base:base + M] = bytes([_ROOT]) + bytes([_BODY]) * (M - 1)
    for tree, masks in layout.pruned_masks.items():
        for m in masks:
            gone[(tree - 1) * M + m] = _PRUNED
    return gone


# ---------------------------------------------------------------------------
# accounting


@dataclass(frozen=True)
class ItemCheck:
    """A closed-form value next to the count measured on the built graph."""

    formula: int
    measured: int

    @property
    def delta(self) -> int:
        return self.measured - self.formula

    def to_json(self) -> dict:
        return {"formula": self.formula, "measured": self.measured, "delta": self.delta}


@dataclass
class EdgeAccounting:
    """Per-class edge counts for one built graph.

    The first six items are the full-size edge classes; the removed_* block
    is present only for graphs built by deletion.  Every closed form is
    evaluated verbatim and compared against the measured class, and the two
    closing deltas report the distance between the built graph and the
    closed-form totals.
    """

    tree_edges: ItemCheck
    cube_edges: ItemCheck
    root_links: ItemCheck
    rk_links: ItemCheck
    v1_first_half_links: ItemCheck
    v1_second_half_links: ItemCheck
    total_edges: ItemCheck
    removed_tree_vertex_edges: ItemCheck | None = None
    removed_cube_net: ItemCheck | None = None
    removed_v1_links: ItemCheck | None = None
    removed_pruned_edges: ItemCheck | None = None
    removed_total: ItemCheck | None = None
    remaining_edges: ItemCheck | None = None
    replacements_added: int = 0

    @property
    def delta_remaining(self) -> int | None:
        return self.remaining_edges.delta if self.remaining_edges else None

    def to_json_obj(self) -> dict:
        return {f.name: v.to_json() if isinstance(v, ItemCheck) else v
                for f in fields(self) if (v := getattr(self, f.name)) is not None}


def _case1_formulas(params: ConstructionParams) -> dict[str, int]:
    t, k = params.t, params.k
    M, K = params.tree_size, 1 << k
    return {
        "tree": (K - 1) * (M - 1),
        "cube": k * (K // 2),
        "root": (K - 1) * (M - 1 - (t + 1 - k)) - 1,
        "rk": (K // 2 - 1) * (M - 1) - 1,
        "v1q1": (k - 1) * (K // 2) * (M - 1),
        "v1q2": (k - 2) * (K // 2 - 1) * (M - 2),
        "total": closed_form_5a(t, k),
    }


def _edge_classes(layout: CaseOneLayout, edges: Iterable[Edge]) -> Iterator[str]:
    """Class of each full-size edge, given as (low, high) full ids, as it is
    read: "cube" (both ends on the cube; replacement edges too), "tree",
    "root_attach" (to the own root, not along a tree edge), "rk_attach",
    "v1_q1" or "v1_q2"."""
    h, k, half = layout.h, layout.k, layout.half
    low = layout.tree_size - 1  # mask bits, and the full id of w
    coord = [layout.coord_of_tree[i] for i in range(1, layout.params.num_trees + 1)]
    for a, b in edges:
        ma, mb = a & low, b & low
        if (ma == 0 or a == low) and (mb == 0 or b == low):
            yield "cube"
            continue
        ta, tb = a >> h, b >> h  # zero-based tree index
        if ta == tb:
            if mb & (mb - 1) == ma:
                yield "tree"
                continue
            assert ma == 0, f"non-adjacent tree pair {a}-{b}"
            yield "root_attach"
            continue
        root, v = (ta, tb) if ma == 0 else (tb, ta)
        if root == k - 1 and coord[v] < half:
            yield "rk_attach"
        elif root < k - 1:
            yield "v1_q1" if coord[v] >= half else "v1_q2"
        else:
            raise AssertionError(f"unclassifiable edge {a}-{b}")


def _run_marks(run: Run, gone: bytearray) -> Counter[tuple[int, int]]:
    """The run's edges counted by the deletion marks of their (low, high)
    ends, at C level: the marks of a list end are read as bytes."""
    lo, hi = run
    if isinstance(lo, int):
        m = gone[lo]
        return Counter({(m, b): c for b, c in Counter(bytes(map(gone.__getitem__, hi))).items()})
    if isinstance(hi, int):
        m = gone[hi]
        return Counter({(a, m): c for a, c in Counter(bytes(map(gone.__getitem__, lo))).items()})
    return Counter(zip(bytes(map(gone.__getitem__, lo)), bytes(map(gone.__getitem__, hi))))


def _run_tally(layout: CaseOneLayout, gone: bytearray) -> Counter[tuple[str, tuple[int, int]]]:
    """Every full-size edge counted by its class and the deletion marks of
    its ends, (0, 0) for an edge the graph keeps: per run, only its first
    edge is classified; with nothing deleted a run counts its length."""
    tally: Counter[tuple[str, tuple[int, int]]] = Counter()
    runs, firsts = tee(_case1_runs(layout))
    classes = _edge_classes(layout, map(next, map(_run_edges, firsts)))
    for run, cls in zip(runs, classes):
        if not layout.params.d:
            lo, hi = run
            tally[cls, (0, 0)] += len(hi if isinstance(lo, int) else lo)
            continue
        for marks, c in _run_marks(run, gone).items():
            tally[cls, marks] += c
    return tally


def _accounting(layout: CaseOneLayout, m: Counter[str], replacements: int) -> EdgeAccounting:
    """The closed forms against ``m``, the built graph's edges counted by
    class, its replacement edges among the "cube" ones."""
    f = _case1_formulas(layout.params)
    return EdgeAccounting(
        tree_edges=ItemCheck(f["tree"], m["tree"]),
        cube_edges=ItemCheck(f["cube"], m["cube"] - replacements),
        root_links=ItemCheck(f["root"], m["root_attach"]),
        rk_links=ItemCheck(f["rk"], m["rk_attach"]),
        v1_first_half_links=ItemCheck(f["v1q1"], m["v1_q1"]),
        v1_second_half_links=ItemCheck(f["v1q2"], m["v1_q2"]),
        total_edges=ItemCheck(f["total"], m.total()),
        replacements_added=replacements,
    )


def _deletion_ledger(layout: CaseOneLayout, acc: EdgeAccounting,
                     tally: Counter[tuple[str, tuple[int, int]]]) -> None:
    """Sort the full-size edges that deletion removed, counted in ``tally``
    (_run_tally) by class and marks, and fill the removed_* block of ``acc``
    (measured on the graph it describes)."""
    params = layout.params
    M, k, p, x = params.tree_size, params.k, params.p, params.x
    d13 = d14g = d15 = d16 = 0
    for (cls, marks), c in tally.items():
        if marks == (0, 0):
            continue
        if cls == "cube":
            d14g += c
        elif _BODY in marks:
            d13 += c
        elif marks in ((_ROOT, 0), (0, _ROOT)):
            d15 += c
        else:
            d16 += c
    added = acc.replacements_added
    f13 = (k + 1) * (M - 1) * ((1 << p) - 1)
    f14 = (k - 1) * ((1 << p) - 1)
    f15 = p * (params.n - (1 << k) + (1 << p))
    f16 = (k + 1) * (M * (x - ((1 << p) - 1)) + params.y) if x > 0 else (k + 1) * params.y
    acc.removed_tree_vertex_edges = ItemCheck(f13, d13)
    acc.removed_cube_net = ItemCheck(f14, d14g - added)
    acc.removed_v1_links = ItemCheck(f15, d15)
    acc.removed_pruned_edges = ItemCheck(f16, d16)
    acc.removed_total = ItemCheck(removed_closed_form(params), d13 + d14g + d15 + d16 - added)
    acc.remaining_edges = ItemCheck(closed_form_5b(params.t, k, params.n, p),
                                    acc.total_edges.measured)


def removed_closed_form(params: ConstructionParams) -> int:
    n, k, d, p = params.n, params.k, params.d, params.p
    return n * p + (k + 1) * d - p * (1 << k) + (p - 2) * (1 << p) + 2


# ---------------------------------------------------------------------------
# public builders


def build(params: ConstructionParams) -> tuple[Graph, CaseOneLayout, EdgeAccounting]:
    """The graph on n vertices: the full-size graph less d = N - n vertices,
    with itemized accounting and, when d > 0, the deletion ledger.

    For x > 0 the trees on coordinates 1..2^p - 1 go, with replacement edges
    for the cube partners they leave unmatched; pruned vertices make up the
    rest of d.  The edges stream from their runs into the graph; the
    accounting counts the runs, each edge by its run, and no list of edges
    is kept."""
    layout = _make_layout(params)
    M, k, p, x = params.tree_size, params.k, params.p, params.x
    need = params.y
    if x > 0:
        layout.deleted_trees = frozenset(layout.tree_of_coord[c] for c in range(1, 1 << p))
        need += M * (x - ((1 << p) - 1))
        receivers = list(range(1 << (k - 2), 1 << (k - 1)))
        layout.replacement_coords = tuple(
            (b, receivers[i % len(receivers)])
            for i, b in enumerate(range(layout.half, layout.half + (1 << p))))
    layout.pruned_masks = {t: frozenset(s) for t, s in _prune(layout, need).items()}
    gone = _deletion_marks(layout)
    assert len(gone) - gone.count(0) == params.d
    g = _assemble(layout, gone)
    tally = _run_tally(layout, gone)
    kept = Counter({cls: c for (cls, marks), c in tally.items() if marks == (0, 0)})
    kept["cube"] += len(layout.replacement_coords)
    acc = _accounting(layout, kept, len(layout.replacement_coords))
    assert acc.total_edges.measured == g.num_edges  # the runs count the graph built
    if params.d:
        _deletion_ledger(layout, acc, tally)
    return g, layout, acc


def audit_edges(g: Graph, layout: CaseOneLayout,
                params: ConstructionParams) -> EdgeAccounting:
    """Re-measure the kept edge classes on a built graph against the closed
    forms: its edges are read off the CSR as (low, high) full ids.  The
    removed_* block, for d > 0, comes from the same run tally as the
    build's."""
    full = [layout.full_id(label) for label in g.labels]
    off, nbrs = g.offsets, g.targets
    edges = chain.from_iterable(
        zip(repeat(full[a]),
            map(full.__getitem__, nbrs[bisect_right(nbrs, a, off[a], off[a + 1]):off[a + 1]]))
        for a in range(g.n))
    acc = _accounting(layout, Counter(_edge_classes(layout, edges)),
                      len(layout.replacement_coords))
    if params.d:
        _deletion_ledger(layout, acc, _run_tally(layout, _deletion_marks(layout)))
    return acc
