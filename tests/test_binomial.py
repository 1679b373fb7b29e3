import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import label_rounds, neighbours

from broadcastnet import (
    RootNotInformed,
    build_binomial,
    binomial_schedule,
    check_schedule,
    exact_broadcast_time,
)
from broadcastnet.binomial import binomial_rounds_masks, parent_mask, subtree_order
from broadcastnet.labels import pos_mask


def _orders(t, labels):
    return [subtree_order(pos_mask(v.pos), t.m) for v in labels]


def _component(g, start, removed):
    """Vertices reachable from start in g without passing through removed."""
    seen, stack = {start}, [start]
    while stack:
        for v in neighbours(g, stack.pop()):
            if v != removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def test_trivial_tree():
    t = build_binomial(0)
    g = t.to_graph()
    assert g.n == 1 and g.num_edges == 0
    assert g.labels == (t.root,)


def test_b3_shape():
    t = build_binomial(3)
    g = t.to_graph()
    assert g.n == 8 and g.num_edges == 7
    assert sorted(_orders(t, neighbours(g, t.root)), reverse=True) == [2, 1, 0]


def test_b4_size_and_height():
    t = build_binomial(4)
    g = t.to_graph()
    assert t.size == g.n == 16
    # height: the root's eccentricity in the tree
    depth, frontier, seen = 0, [t.root], {t.root}
    while frontier:
        frontier = [v for u in frontier for v in neighbours(g, u) if v not in seen]
        seen.update(frontier)
        depth += bool(frontier)
    assert depth == 4


def test_recursive_structure():
    # root's child of order j is the root of a copy of the order-j tree
    t = build_binomial(4)
    g = t.to_graph()
    for child in neighbours(g, t.root):
        j = subtree_order(pos_mask(child.pos), t.m)
        below = _component(g, child, t.root)
        assert len(below) == 1 << j
        assert sorted(_orders(t, neighbours(g, child)), reverse=True)[1:] == list(
            range(j - 1, -1, -1))


def test_vertex_child_count_equals_subtree_order():
    t = build_binomial(5)
    g = t.to_graph()
    for mask in range(t.size):
        children = len(neighbours(g, t.label(mask))) - (mask != 0)
        assert children == subtree_order(mask, t.m)


@st.composite
def _pruned_broadcasts(draw):
    """(m, pruned, informed): pruned is closed under descendants and never
    holds the root; informed is a set of survivors."""
    m = draw(st.integers(0, 8))
    cuts = draw(st.sets(st.integers(1, (1 << m) - 1), max_size=6)) if m else set()

    def cut(v):
        while v and v not in cuts:
            v = parent_mask(v)
        return v != 0

    pruned = {v for v in range(1 << m) if cut(v)}
    survivors = sorted(set(range(1 << m)) - pruned)
    informed = draw(st.sets(st.sampled_from(survivors), max_size=8))
    return m, pruned, informed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_pruned_broadcasts())
def test_rounds_masks_broadcast_the_surviving_tree(case):
    m, pruned, informed = case
    rounds = binomial_rounds_masks(m, informed, pruned)
    known = {0} | informed
    for calls in rounds:
        callers = [a for a, _ in calls]
        assert len(callers) == len(set(callers))
        for a, b in calls:
            assert parent_mask(b) == a
            assert a in known and b not in known and b not in pruned
        callees = {b for _, b in calls}
        assert len(callees) == len(calls)
        known |= callees
    assert known == set(range(1 << m)) - pruned
    assert len(rounds) <= m


def test_schedule_from_root_completes_in_m_rounds():
    for m in range(7):
        t = build_binomial(m)
        s = binomial_schedule(t)
        assert len(s.rounds) == m
        assert sum(map(len, s.rounds)) == t.size - 1
        res = check_schedule(t.to_graph(), s)
        assert res.ok and (res.completion_round or 0) == m


def test_schedule_ids_are_masks_of_the_graph_numbering():
    # the schedule's label tuple is the one to_graph() numbers the vertices in
    for m in range(6):
        t = build_binomial(m)
        pre = {t.root, t.label((1 << m) - 1)}
        s = binomial_schedule(t, informed=pre)
        assert s.labels == t.to_graph().labels
        assert s.origin == 0
        assert s.rounds == tuple(map(tuple, binomial_rounds_masks(m, {0, (1 << m) - 1})))


def test_schedule_and_graph_share_one_label_tuple():
    # labels is made once per tree, so the check compares the tuples by identity
    t = build_binomial(4)
    assert binomial_schedule(t).labels is t.to_graph().labels


def test_schedule_with_preinformed_deep_child():
    # hand enumeration: pre-informing the order-1 child lets both sides call
    # in parallel, finishing the 4-vertex tree in a single round
    t = build_binomial(2)
    deep = t.label(2)  # child of subtree order 1
    s = binomial_schedule(t, informed={t.root, deep})
    assert s.completes_at == 1
    assert set(label_rounds(s)[0]) == {(t.root, t.label(1)), (deep, t.label(3))}
    # pre-informing the order-0 child saves no round: 2 rounds by hand
    s2 = binomial_schedule(t, informed={t.root, t.label(1)})
    assert s2.completes_at == 2
    assert s2.completes_at <= 2


def test_schedule_skips_informed_callees():
    t = build_binomial(3)
    pre = {t.root, t.label(4)}
    s = binomial_schedule(t, informed=pre)
    callees = [b for calls in label_rounds(s) for _, b in calls]
    assert t.label(4) not in callees
    assert len(callees) == t.size - 2


def test_empty_schedule_for_order_zero():
    s = binomial_schedule(build_binomial(0))
    assert s.rounds == ()


def test_root_must_be_informed():
    t = build_binomial(2)
    with pytest.raises(RootNotInformed):
        binomial_schedule(t, informed={t.label(1)})


def test_root_schedule_matches_exact_oracle_small():
    for m in range(5):
        t = build_binomial(m)
        g = t.to_graph()
        assert exact_broadcast_time(g, t.root) == m
        assert binomial_schedule(t).completes_at == m


def test_doubling_bound():
    t = build_binomial(6)
    res = check_schedule(t.to_graph(), binomial_schedule(t))
    assert res.ok
    for i, size in enumerate(res.informed_per_round):
        assert size <= 1 << i
