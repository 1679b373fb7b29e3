from collections import Counter

import pytest
from conftest import neighbours, vertex

from broadcastnet import audit_edges, bound_5a, build, make_params
from broadcastnet.binomial import binomial_rounds_masks
from broadcastnet.bounds import closed_form_5b
from broadcastnet.construct import (
    _BODY,
    _ROOT,
    _attachment_targets,
    _built_edges,
    _case1_edges,
    _case1_runs,
    _deletion_marks,
    _edge_classes,
    _make_layout,
    _prune,
    _run_edges,
    _run_tally,
)
from broadcastnet.schedule import ShiftedFragment
from broadcastnet.params import max_k


@pytest.mark.parametrize("t,k,n", [(8, 3, 448), (9, 4, 703)])
def test_one_vertex_numbering(t, k, n):
    # full size, and a p=2 build in which tree 1, and with it w, is deleted
    params = make_params(t, k, n)
    g, layout, _ = build(params)
    assert (n == params.N) != (1 in layout.deleted_trees)
    for i, label in enumerate(g.labels):
        assert layout.dense[layout.full_id(label)] == g.vertex_id(label) == i
    live = set(layout.live_coords)
    for c in range(1 << k):
        i = layout.dense[layout.full_of_coord(c)]
        if c in live:
            assert g.labels[i].cube == format(c, f"0{k}b") and i == layout.coord_ids[c]
        else:
            assert i == -1


def test_case1_t7k2_totals(g72):
    params, g, layout, acc = g72
    assert g.n == 192
    assert g.num_edges == 551
    assert acc.total_edges.formula == 551
    assert acc.total_edges.delta == 0
    assert g.is_connected()


def test_case1_t8k3_totals(g83):
    params, g, layout, acc = g83
    assert (g.n, g.num_edges) == (448, 1731)
    assert acc.total_edges.delta == 0


def test_case1_tree_edge_item(g72):
    # three order-6 trees contribute 3 * 63 edges, counted directly
    _, _, _, acc = g72
    assert acc.tree_edges.measured == 3 * 63
    assert acc.tree_edges.delta == 0


def test_case1_rk_item_t7k2(g72):
    _, _, _, acc = g72
    assert acc.rk_links.measured == 62
    assert acc.rk_links.formula == 62


def test_case1_v1q2_item_closed_form_undercount(g83):
    # the closed form for this class falls short of the class actually
    # wired by the attachment rule; both are reported
    _, _, _, acc = g83
    assert acc.v1_second_half_links.measured == 188
    assert acc.v1_second_half_links.formula == 186
    assert acc.v1_second_half_links.delta == 2  # (k-2) * (2^(k-1) - 2)


def test_case1_item_sum_equals_total(g72, g83):
    for _, g, _, acc in (g72, g83):
        total = sum(item.measured for item in (
            acc.tree_edges, acc.cube_edges, acc.root_links,
            acc.rk_links, acc.v1_first_half_links, acc.v1_second_half_links))
        assert total == g.num_edges


def test_case1_degree_law(g72, g83):
    # subtree order j: degree k+j+1, or k+j when the parent is the root
    for params, g, layout, _ in (g72, g83):
        k, h = params.k, params.tree_order
        for label in g.labels:
            f = layout.full_id(label)
            mask = f % layout.tree_size
            if mask == 0 or f == layout.w:
                continue
            j = h if mask == 0 else (mask & -mask).bit_length() - 1
            expect = k + j + (0 if mask & (mask - 1) == 0 else 1)
            assert len(neighbours(g, label)) == expect, (label, j)


def test_case1_w_degree(g72):
    params, g, layout, _ = g72
    w = vertex(g, layout, 1, layout.tree_size - 1)
    assert len(neighbours(g, w)) == params.k + 1  # k cube edges plus the tree parent


def test_case1_log_target():
    for t, k in [(7, 2), (8, 3), (9, 3), (10, 4)]:
        params = make_params(t, k, ((1 << k) - 1) << (t + 1 - k))
        g, _, acc = build(params)
        assert g.n == params.N
        assert (g.n - 1).bit_length() == t + 1
        assert g.num_edges == bound_5a(t, k)


def test_case2_single_leaf_removed():
    params = make_params(7, 2, 191)
    g, layout, acc = build(params)
    assert (params.x, params.y) == (0, 1)
    assert g.n == 191
    assert g.num_edges == 551 - 3  # a deep leaf has k+1 edges
    assert acc.delta_remaining == 0


def test_case2_x0_matches_closed_form_even_at_extreme():
    for n in (191, 160, 136, 130, 129):
        params = make_params(7, 2, n)
        g, _, acc = build(params)
        assert g.num_edges == closed_form_5b(7, 2, n, params.p), n
        assert acc.delta_remaining == 0


def test_case2_vertex_count_and_connectivity():
    for (t, k, n) in [(7, 2, 129), (7, 3, 191), (7, 3, 129), (8, 3, 320), (8, 3, 257)]:
        params = make_params(t, k, n)
        g, layout, _ = build(params)
        assert g.n == n
        assert g.is_connected()
        assert (g.n - 1).bit_length() == t + 1


def test_case2_whole_tree_deletion_record(g73_shrunk):
    params, g, layout, acc = g73_shrunk
    assert params.x == 1 and params.p == 1
    assert layout.deleted_trees == frozenset({1})  # the tree carrying w
    assert not layout.w_alive
    assert len(layout.replacement_coords) == 2  # every unmatched one, incl. w's partner
    assert acc.replacements_added == 2


def test_case2_cross_neighbor_property(g73_shrunk):
    params, g, layout, _ = g73_shrunk
    half = layout.half
    for c in range(half, 1 << params.k):
        lab = g.labels[layout.coord_ids[c]]
        partners = [
            nb for nb in neighbours(g, lab)
            if nb.is_root and layout.coord_of_tree[nb.tree] < half
        ]
        assert partners, f"coordinate {c} lost its cross neighbor"


def test_case2_delta_remaining_constant_within_regime():
    seen = {}
    for n in (191, 189, 161, 159, 131, 129):
        params = make_params(7, 3, n)
        _, _, acc = build(params)
        seen.setdefault((params.x > 0, params.p), set()).add(acc.delta_remaining)
    assert all(len(v) == 1 for v in seen.values()), seen


def test_case2_monotone_edges_within_regime():
    prev = None
    for n in (191, 189, 187, 161):  # all x=1, p=1 at t=7,k=3
        params = make_params(7, 3, n)
        assert params.x == 1
        g, _, _ = build(params)
        if prev is not None:
            assert g.num_edges <= prev
        prev = g.num_edges


def test_case2_roots_never_pruned():
    for (t, k, n) in [(7, 2, 129), (8, 3, 257), (9, 4, 513)]:
        params = make_params(t, k, n)
        _, layout, _ = build(params)
        for tree, masks in layout.pruned_masks.items():
            assert 0 not in masks
            assert tree not in layout.deleted_trees


def test_pruning_capacity_at_worst_case_y():
    """At y = M - 1, the largest pruning need for each x, the deep vertices
    of the pruning trees suffice: no root child is taken, and an x = 0
    build leaves every low-half tree whole."""
    for t in range(7, 13):
        for k in range(2, max_k(t, n_odd=True) + 1):
            M = 1 << (t + 1 - k)
            N = ((1 << k) - 1) * M
            for x in range((1 << (k - 1)) - 1):
                params = make_params(t, k, N - x * M - (M - 1))
                assert (params.x, params.y) == (x, M - 1)
                layout = _make_layout(params)
                need = params.d - ((1 << params.p) - 1) * M
                pruned = _prune(layout, need)
                assert sum(len(masks) for masks in pruned.values()) == need
                assert all(m & (m - 1) for masks in pruned.values() for m in masks)
                if x == 0:
                    assert all(layout.coord_of_tree[tree] >= layout.half for tree in pruned)


def _admissible(t, stride=1):
    for k in range(2, max_k(t, n_odd=True) + 1):
        N = ((1 << k) - 1) << (t + 1 - k)
        for n in range((1 << t) + 1, N + 1, stride):
            if k <= max_k(t, n_odd=bool(n % 2)):
                yield t, k, n


def test_tree_one_is_never_pruned():
    """Tree 1 holds w: it is deleted whole (x > 0) or left whole (x = 0),
    never pruned, so the fragment of tree 1 from {root, w} is always the
    shift of a whole binomial tree.  _prune asserts it; this runs it on
    every admissible (t, k, n) with t <= 10 and every 37th n up to t = 13."""
    triples = 0
    for t in range(7, 14):
        for t, k, n in _admissible(t, 1 if t <= 10 else 37):
            params = make_params(t, k, n)
            layout = _make_layout(params)
            M = params.tree_size
            pruned = _prune(layout, params.d - ((1 << params.p) - 1) * M)
            assert 1 not in pruned, (t, k, n)
            triples += 1
    assert triples == 4746


@pytest.mark.parametrize("t,k,n", [(8, 2, 384), (9, 3, 860), (9, 3, 700), (8, 3, 300)])
def test_shift_lemma_matches_simulation(t, k, n):
    """With u (w in tree 1 included) informed next to the root, a tree's
    rounds are the shift of its root-only fragment: equal to the simulation
    from {root, u}, call for call, on whole and on pruned trees."""
    params = make_params(t, k, n)
    _, layout, _ = build(params)
    M = layout.tree_size
    live = [i for i in range(1, params.num_trees + 1) if i not in layout.deleted_trees]
    whole = [i for i in live if i not in layout.pruned_masks]
    assert whole
    for tree in sorted(set(layout.pruned_masks) | {whole[0]} | ({1} & set(live))):
        gone = layout.pruned_masks.get(tree, frozenset())
        ids = layout.dense[(tree - 1) * M:tree * M]
        for u in range(1, M):
            if u in gone:
                continue
            frag = layout.tree_rounds(tree, u)
            assert isinstance(frag, ShiftedFragment) and frag.base is layout.tree_rounds(tree)
            want = binomial_rounds_masks(layout.h, {u}, gone)
            assert tuple(frag) == tuple(tuple((ids[a], ids[b]) for a, b in calls)
                                        for calls in want), (tree, u)
    if 1 in live:
        assert tuple(layout.tree_rounds(1, layout.w)) == tuple(
            tuple(call for call in calls if call[1] != layout.dense[layout.w])
            for calls in layout.tree_rounds(1))


@pytest.mark.parametrize("t,k,n", [(8, 3, 448), (9, 4, 703), (8, 3, 300)])
def test_plain_table_is_made_once_from_every_surviving_tree(t, k, n):
    # full size, tree 1 deleted (p=2), and pruned: one pair per surviving
    # tree in order, holding tree_rounds' cached root-only fragment
    params = make_params(t, k, n)
    _, layout, _ = build(params)
    table = layout.plain_table
    live = [i for i in range(1, params.num_trees + 1) if i not in layout.deleted_trees]
    assert [tree for tree, _ in table] == live
    assert all(frag is layout.tree_rounds(tree) for tree, frag in table)
    assert layout.plain_table is table


def test_case2_descendants_deleted_before_ancestors():
    params = make_params(8, 3, 257)
    _, layout, _ = build(params)
    for tree, masks in layout.pruned_masks.items():
        for m in masks:
            descendants = [
                q for q in range(1, params.tree_size) if q & m == m and q != m
            ]
            assert all(q in masks for q in descendants)


def _reference_edges(layout):
    """Every full-size edge as a (low, high) pair of full ids, written per
    vertex from the construction: each non-root vertex's tree edge and its
    attachments (none for w, none to its own root for a root child), and
    the cube edges of every coordinate."""
    params, M = layout.params, layout.tree_size
    edges = set()
    for c in range(1 << params.k):
        for b in range(params.k):
            a, z = layout.full_of_coord(c), layout.full_of_coord(c ^ (1 << b))
            edges.add((min(a, z), max(a, z)))
    for i in range(1, params.num_trees + 1):
        base = (i - 1) * M
        for m in range(1, M):
            v = base + m
            edges.add((base + (m & (m - 1)), v))
            if v == layout.w:
                continue
            for r in _attachment_targets(layout, i):
                if r != i or m & (m - 1):
                    root = (r - 1) * M
                    edges.add((min(root, v), max(root, v)))
    return edges


@pytest.mark.parametrize("t", [7, 8, 9, 10])
def test_runs_hold_one_class_and_every_edge_once(t):
    """Every run's edges have one class, the runs together are the full-size
    edges with none repeated, and the per-run tally of classes and deletion
    marks is the per-edge one, at full size and shrunk (x = 0 and x > 0)."""
    for k in range(2, max_k(t, n_odd=True) + 1):
        M = 1 << (t + 1 - k)
        N = ((1 << k) - 1) * M
        sizes = [n for n in (N - 1, N - 3 * M // 2 - 1, (1 << t) + 1, N)
                 if n > 1 << t and k <= max_k(t, n_odd=bool(n % 2))]
        layout = _make_layout(make_params(t, k, sizes[0]))
        edges = []
        for run in _case1_runs(layout):
            run_edges = list(_run_edges(run))
            assert len(set(_edge_classes(layout, run_edges))) == 1, (t, k, run_edges[0])
            edges += run_edges
        assert len(edges) == len(set(edges))
        assert set(edges) == _reference_edges(layout)
        classes = list(_edge_classes(layout, edges))
        for n in sizes:
            params = make_params(t, k, n)
            _, layout, _ = build(params)
            gone = _deletion_marks(layout)
            want = Counter((cls, (gone[a], gone[b])) for (a, b), cls in zip(edges, classes))
            assert _run_tally(layout, gone) == want, (t, k, n)


def _per_edge_ledger(layout, gone):
    """The removed_* counts (tree-vertex, cube, v1, pruned) edge by edge:
    every full-size edge with a deleted end, classified on its own."""
    hit = [(a, b) for a, b in _case1_edges(layout) if gone[a] or gone[b]]
    d13 = d14g = d15 = d16 = 0
    for (a, b), cls in zip(hit, _edge_classes(layout, hit)):
        marks = (gone[a], gone[b])
        if cls == "cube":
            d14g += 1
        elif _BODY in marks:
            d13 += 1
        elif marks in ((_ROOT, 0), (0, _ROOT)):
            d15 += 1
        else:
            d16 += 1
    return d13, d14g, d15, d16


@pytest.mark.parametrize("t,k,n", [
    (7, 2, 192), (7, 3, 191), (8, 3, 400), (9, 4, 703),  # full; x=1 p=1; x=0; x=4 p=2
    (12, 5, 7936), (12, 5, 6000),  # full; x=7 p=3
])
def test_audit_matches_build_accounting(t, k, n):
    """The build counts its classes per run; audit_edges re-reads every edge
    off the graph, and a per-edge count of the built edges and of the
    removed ones gives the same figures."""
    params = make_params(t, k, n)
    g, layout, acc = build(params)
    assert audit_edges(g, layout, params).to_json_obj() == acc.to_json_obj()
    gone = _deletion_marks(layout)
    m = Counter(_edge_classes(layout, _built_edges(layout, gone)))
    added = acc.replacements_added
    assert [acc.tree_edges.measured, acc.cube_edges.measured, acc.root_links.measured,
            acc.rk_links.measured, acc.v1_first_half_links.measured,
            acc.v1_second_half_links.measured, acc.total_edges.measured] == [
        m["tree"], m["cube"] - added, m["root_attach"], m["rk_attach"], m["v1_q1"],
        m["v1_q2"], m.total()]
    if not params.d:
        assert acc.removed_total is None
        return
    d13, d14g, d15, d16 = _per_edge_ledger(layout, gone)
    assert [acc.removed_tree_vertex_edges.measured, acc.removed_cube_net.measured,
            acc.removed_v1_links.measured, acc.removed_pruned_edges.measured,
            acc.removed_total.measured] == [
        d13, d14g - added, d15, d16, d13 + d14g + d15 + d16 - added]


def test_accounting_json_shape(g73_shrunk):
    _, _, _, acc = g73_shrunk
    obj = acc.to_json_obj()
    for name in ("tree_edges", "total_edges", "removed_tree_vertex_edges",
                 "removed_total", "remaining_edges"):
        assert set(obj[name]) == {"formula", "measured", "delta"}
