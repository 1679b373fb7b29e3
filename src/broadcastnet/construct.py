"""Construction of the broadcast graphs and itemized edge accounting.

The full-size graph places 2^k - 1 binomial trees of order t+1-k, wires the
roots plus the deepest leaf w of the first tree into a k-cube, and attaches
every remaining tree vertex to a fixed set of roots.  Smaller graphs are
obtained by deleting vertices: whole trees whose roots fill the low cube
blocks, then single vertices pruned leaves-first.

Pruning never removes a root child: a root child's attachment to its own
root coincides with its tree edge, so deleting it would remove one edge
fewer than deleting any other vertex and break the uniform per-vertex edge
loss (and the flat accounting deltas across each (x, p) regime).  Nor does
it touch a low-half tree when x = 0.  The deep (non-root-child) vertices of
the pruning trees always suffice: pruning takes M(x - 2^p + 1) + y <= 2^p M - 1
vertices (p = 0 when x = 0), and the 2^k - 2^p pruning trees (the 2^(k-1)
first-half trees when x = 0) each hold M - 1 - h deep vertices, where
M = 2^h and h = t + 1 - k >= 5.  _prune asserts this capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binomial import binomial_rounds_masks
from .errors import ParamOutOfRange
from .graph import Graph
from .hypercube import Hypercube, build_hypercube
from .labels import VertexLabel, pos_string
from .params import ConstructionParams
from .schedule import Call

Key = tuple[int, int]  # (tree index, position mask)


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
    deletion_items: dict | None = None
    _plain_rounds: dict[int, list[list[Call]]] = field(default_factory=dict, repr=False)

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def h(self) -> int:
        return self.params.tree_order

    @property
    def tree_size(self) -> int:
        return self.params.tree_size

    @property
    def half(self) -> int:
        return 1 << (self.k - 1)

    @property
    def w_key(self) -> Key:
        return (1, self.tree_size - 1)

    @property
    def w_alive(self) -> bool:
        return 1 not in self.deleted_trees

    @property
    def live_coords(self) -> list[int]:
        lo = 1 << self.params.p if self.params.x > 0 else 0
        return list(range(lo, 1 << self.k)) if self.params.x > 0 else list(range(1 << self.k))

    def subcube_of_coord(self, c: int) -> int:
        """Index i of the block Q^i containing coordinate c (c in the low half, c > 0)."""
        return c.bit_length() - 1

    def coord_string(self, c: int) -> str:
        return format(c, f"0{self.k}b")

    def key_of_coord(self, c: int) -> Key:
        if c == 0:
            return self.w_key
        return (self.tree_of_coord[c], 0)

    def label_of_key(self, key: Key) -> VertexLabel:
        tree, mask = key
        if mask == 0:
            return VertexLabel(tree=tree, pos="", cube=self.coord_string(self.coord_of_tree[tree]))
        if key == self.w_key:
            return VertexLabel(tree=1, pos=pos_string(mask, self.h), cube=self.coord_string(0))
        return VertexLabel(tree=tree, pos=pos_string(mask, self.h))

    def key_of_label(self, label: VertexLabel) -> Key:
        tree = label.tree
        mask = int(label.pos, 2) if label.pos else 0
        return (tree, mask)

    def alive_masks(self, tree: int) -> set[int]:
        gone = self.pruned_masks.get(tree, frozenset())
        return {m for m in range(self.tree_size) if m not in gone}

    def tree_rounds(self, index: int,
                    informed_masks: set[int] | None = None) -> list[list[Call]]:
        """Broadcast rounds of one surviving tree, as graph labels.

        The root-only case is cached per tree; extra pre-informed vertices
        force a fresh simulation."""
        if not informed_masks and index in self._plain_rounds:
            return self._plain_rounds[index]
        alive = self.alive_masks(index) if index in self.pruned_masks else None
        rounds = binomial_rounds_masks(self.h, informed_masks, alive, index)
        labeled = [
            [(self.label_of_key((index, a)), self.label_of_key((index, b)))
             for a, b in calls]
            for calls in rounds
        ]
        if not informed_masks:
            self._plain_rounds[index] = labeled
        return labeled

    def cube(self) -> Hypercube:
        return build_hypercube(self.k)


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
# edge generation


def _attachment_targets(layout: CaseOneLayout, tree: int) -> list[Key]:
    """Roots every non-root vertex of the given tree is wired to."""
    k = layout.k
    c = layout.coord_of_tree[tree]
    if c >= layout.half:
        return [(j, 0) for j in range(1, k)] + [(tree, 0)]
    iq = layout.subcube_of_coord(c)
    return [(tree, 0)] + [(j, 0) for j in range(1, k) if j != iq + 1] + [(k, 0)]


def _case1_edges(layout: CaseOneLayout) -> set[frozenset[Key]]:
    params = layout.params
    M = layout.tree_size
    edges: set[frozenset[Key]] = set()
    for i in range(1, params.num_trees + 1):
        for mask in range(1, M):
            edges.add(frozenset(((i, mask), (i, mask & (mask - 1)))))
    for c in range(1 << params.k):
        for b in range(params.k):
            c2 = c ^ (1 << b)
            if c < c2:
                edges.add(frozenset((layout.key_of_coord(c), layout.key_of_coord(c2))))
    w = layout.w_key
    for i in range(1, params.num_trees + 1):
        targets = _attachment_targets(layout, i)
        for mask in range(1, M):
            v = (i, mask)
            if v == w:
                continue
            for tgt in targets:
                edges.add(frozenset((v, tgt)))
    return edges


def _graph_from_keys(layout: CaseOneLayout, keys: set[Key],
                     edges: set[frozenset[Key]]) -> Graph:
    ordered = sorted(keys)  # (tree, mask) order == canonical label order
    index = {key: i for i, key in enumerate(ordered)}
    labels = [layout.label_of_key(key) for key in ordered]
    id_edges = []
    for e in edges:
        a, b = tuple(e)
        ia, ib = index[a], index[b]
        id_edges.append((ia, ib) if ia < ib else (ib, ia))
    return Graph.from_sorted(labels, id_edges, t=layout.params.t, k=layout.params.k)


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
    return taken


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
    def delta_removed(self) -> int | None:
        return self.removed_total.delta if self.removed_total else None

    @property
    def delta_remaining(self) -> int | None:
        return self.remaining_edges.delta if self.remaining_edges else None

    def to_json_obj(self) -> dict:
        obj = {}
        for name in (
            "tree_edges", "cube_edges", "root_links", "rk_links",
            "v1_first_half_links", "v1_second_half_links", "total_edges",
            "removed_tree_vertex_edges", "removed_cube_net",
            "removed_v1_links", "removed_pruned_edges",
            "removed_total", "remaining_edges",
        ):
            item = getattr(self, name)
            if item is not None:
                obj[name] = item.to_json()
        obj["replacements_added"] = self.replacements_added
        return obj


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
        "total": (k + 1) * params.N - (t + 2) * K + k * (K // 2) + t + 2 - k,
    }


def _classify_case1_edge(layout: CaseOneLayout, a: Key, b: Key) -> str:
    on_cube_a = a[1] == 0 or a == layout.w_key
    on_cube_b = b[1] == 0 or b == layout.w_key
    if on_cube_a and on_cube_b:
        return "cube"
    if a[0] == b[0]:
        ma, mb = a[1], b[1]
        if ma & (ma - 1) == mb or mb & (mb - 1) == ma:
            return "tree"
        assert ma == 0 or mb == 0, f"non-adjacent tree pair {a}-{b}"
        return "root_attach"  # to the root, not along a tree edge
    root, v = (a, b) if a[1] == 0 else (b, a)
    rc = layout.coord_of_tree[root[0]]
    vc = layout.coord_of_tree[v[0]]
    if root[0] == layout.params.k and rc >= layout.half > vc:
        return "rk_attach"
    if root[0] < layout.params.k:
        return "v1_q1" if vc >= layout.half else "v1_q2"
    raise AssertionError(f"unclassifiable edge {a}-{b}")


def _measure_case1(layout: CaseOneLayout, edges: set[frozenset[Key]],
                   replacement: set[frozenset[Key]]) -> dict[str, int]:
    counts = {"tree": 0, "cube": 0, "root_attach": 0, "rk_attach": 0,
              "v1_q1": 0, "v1_q2": 0, "replacement": 0}
    for e in edges:
        if e in replacement:
            counts["replacement"] += 1
            continue
        a, b = tuple(e)
        counts[_classify_case1_edge(layout, a, b)] += 1
    return counts


def _accounting_case1(layout: CaseOneLayout, edges: set[frozenset[Key]],
                      replacement: set[frozenset[Key]] | None = None) -> EdgeAccounting:
    f = _case1_formulas(layout.params)
    m = _measure_case1(layout, edges, replacement or set())
    total = len(edges)
    return EdgeAccounting(
        tree_edges=ItemCheck(f["tree"], m["tree"]),
        cube_edges=ItemCheck(f["cube"], m["cube"]),
        root_links=ItemCheck(f["root"], m["root_attach"]),
        rk_links=ItemCheck(f["rk"], m["rk_attach"]),
        v1_first_half_links=ItemCheck(f["v1q1"], m["v1_q1"]),
        v1_second_half_links=ItemCheck(f["v1q2"], m["v1_q2"]),
        total_edges=ItemCheck(f["total"], total),
        replacements_added=m["replacement"],
    )


def removed_closed_form(params: ConstructionParams) -> int:
    n, k, d, p = params.n, params.k, params.d, params.p
    return n * p + (k + 1) * d - p * (1 << k) + (p - 2) * (1 << p) + 2


def remaining_closed_form(params: ConstructionParams) -> int:
    t, k, n, p = params.t, params.k, params.n, params.p
    return ((k + 1 - p) * n - (t + p + 2) * (1 << k) + k * (1 << (k - 1))
            + t - k - (p - 2) * (1 << p))


# ---------------------------------------------------------------------------
# public builders


def build_case1(params: ConstructionParams) -> tuple[Graph, CaseOneLayout, EdgeAccounting]:
    """Full-size graph on N vertices with exactly the closed-form edge count."""
    if params.n != params.N:
        raise ParamOutOfRange(f"n={params.n}: full-size build requires n = N = {params.N}")
    layout = _make_layout(params)
    edges = _case1_edges(layout)
    keys = {(i, m) for i in range(1, params.num_trees + 1) for m in range(params.tree_size)}
    g = _graph_from_keys(layout, keys, edges)
    return g, layout, _accounting_case1(layout, edges)


def build_case2(params: ConstructionParams) -> tuple[Graph, CaseOneLayout, EdgeAccounting]:
    """Deletion build for 2^t < n < N, with the full deletion ledger."""
    if not params.n < params.N:
        raise ParamOutOfRange(f"n={params.n}: deletion build requires n < N = {params.N}")
    layout = _make_layout(params)
    edges = _case1_edges(layout)
    M, k, p, x = params.tree_size, params.k, params.p, params.x

    a_nonroot: set[Key] = set()
    a_root: set[Key] = set()
    if x > 0:
        for c in range(1, 1 << p):
            tree = layout.tree_of_coord[c]
            layout.deleted_trees |= {tree}
            a_root.add((tree, 0))
            a_nonroot.update((tree, m) for m in range(1, M))
        need = M * (x - ((1 << p) - 1)) + params.y
    else:
        need = params.y
    pruned = _prune(layout, need)
    layout.pruned_masks = {t: frozenset(s) for t, s in pruned.items()}
    b_set: set[Key] = {(t, m) for t, s in pruned.items() for m in s}
    deleted = a_nonroot | a_root | b_set
    assert len(deleted) == params.d

    added: set[frozenset[Key]] = set()
    if x > 0:
        receivers = list(range(1 << (k - 2), 1 << (k - 1)))
        repl = []
        for i, bcoord in enumerate(range(layout.half, layout.half + (1 << p))):
            r = receivers[i % len(receivers)]
            repl.append((bcoord, r))
            added.add(frozenset((layout.key_of_coord(bcoord), layout.key_of_coord(r))))
        layout.replacement_coords = tuple(repl)
        assert not added & edges

    # classify every deleted edge before dropping it
    d13 = d14g = d15 = d16 = 0
    kept: set[frozenset[Key]] = set()
    for e in edges:
        hit = e & deleted
        if not hit:
            kept.add(e)
            continue
        a, b = tuple(e)
        cube_edge = (a[1] == 0 or a == layout.w_key) and (b[1] == 0 or b == layout.w_key)
        if cube_edge:
            d14g += 1
        elif a in a_nonroot or b in a_nonroot:
            d13 += 1
        elif (a in a_root) != (b in a_root) and not (e - a_root) & deleted:
            d15 += 1
        else:
            d16 += 1
    final_edges = kept | added
    keys = {(i, m) for i in range(1, params.num_trees + 1)
            for m in range(M)} - deleted
    g = _graph_from_keys(layout, keys, final_edges)

    acc = _accounting_case1(layout, final_edges, replacement=added)
    f13 = (k + 1) * (M - 1) * ((1 << p) - 1)
    f14 = (k - 1) * ((1 << p) - 1)
    f15 = p * (params.n - (1 << k) + (1 << p))
    f16 = (k + 1) * (M * (x - ((1 << p) - 1)) + params.y) if x > 0 else (k + 1) * params.y
    deleted_total = d13 + d14g + d15 + d16
    acc.removed_tree_vertex_edges = ItemCheck(f13, d13)
    acc.removed_cube_net = ItemCheck(f14, d14g - len(added))
    acc.removed_v1_links = ItemCheck(f15, d15)
    acc.removed_pruned_edges = ItemCheck(f16, d16)
    acc.removed_total = ItemCheck(removed_closed_form(params), deleted_total - len(added))
    acc.remaining_edges = ItemCheck(remaining_closed_form(params), len(final_edges))
    acc.replacements_added = len(added)
    layout.deletion_items = acc.to_json_obj()
    return g, layout, acc


def build(params: ConstructionParams) -> tuple[Graph, CaseOneLayout, EdgeAccounting]:
    if params.n == params.N:
        return build_case1(params)
    return build_case2(params)


def audit_edges(g: Graph, layout: CaseOneLayout,
                params: ConstructionParams) -> EdgeAccounting:
    """Re-measure every edge class on a built graph against the closed forms."""
    repl = {
        frozenset((layout.key_of_coord(a), layout.key_of_coord(b)))
        for a, b in layout.replacement_coords
    }
    edges = set()
    for ia, ib in g.edge_ids():
        edges.add(frozenset((layout.key_of_label(g.labels[ia]),
                             layout.key_of_label(g.labels[ib]))))
    acc = _accounting_case1(layout, edges, replacement=repl)
    if layout.deletion_items:
        stored = layout.deletion_items
        for name in ("removed_tree_vertex_edges", "removed_cube_net",
                     "removed_v1_links", "removed_pruned_edges",
                     "removed_total", "remaining_edges"):
            item = stored.get(name)
            if item:
                setattr(acc, name, ItemCheck(item["formula"], item["measured"]))
        acc.replacements_added = stored["replacements_added"]
    return acc
