import pytest
from conftest import neighbours, row

from broadcastnet import (
    UnknownVertex,
    VertexLabel,
    build,
    build_hypercube,
    check_schedule,
    exact_broadcast_time,
    hypercube_schedule,
    make_params,
)
from broadcastnet.hypercube import sweep_rounds


def test_sizes():
    assert build_hypercube(0).to_graph().n == 1
    g2 = build_hypercube(2).to_graph()
    assert (g2.n, g2.num_edges) == (4, 4)
    g4 = build_hypercube(4).to_graph()
    assert (g4.n, g4.num_edges) == (16, 32)


def test_regularity():
    for m in range(1, 6):
        g = build_hypercube(m).to_graph()
        assert all(len(row(g, v)) == m for v in range(g.n))
        assert g.num_edges == m * (1 << (m - 1))


def _covered(rounds, seed):
    return [seed] + [b for calls in rounds for _, b in calls]


def test_sweep_rounds_stays_inside_its_block():
    # the scheme sweeps the low half, the first half and the blocks
    # Q^j = [2^j, 2^(j+1)), each over its own dimensions; from any seed of
    # such a block the sweep calls only inside it, calls no coordinate twice
    # and informs the whole block within its dimension count of rounds
    for m in range(7):
        for block in (range(1 << m), range(1 << m, 2 << m)):
            for seed in block:
                rounds = sweep_rounds(seed, m)
                assert len(rounds) == m
                informed = [seed]
                for calls in rounds:
                    assert all(a in informed and b in block for a, b in calls)
                    informed += [b for _, b in calls]
                assert len(informed) == len(set(informed))
                assert sorted(informed) == list(block)


@pytest.fixture(scope="module")
def g104():
    """Full-size build at t=10, k=4: the cube has blocks Q^0..Q^3 and the corner."""
    params = make_params(10, 4, 1920)
    g, layout, _ = build(params)
    return params, g, layout


def test_scheme_blocks_partition_the_cube(g104):
    # the first half is Q^{k-1}; the low half is the corner plus Q^0..Q^{k-2}
    _, _, layout = g104
    k, half = layout.k, layout.half
    first = _covered(sweep_rounds(half, k - 1), half)
    assert sorted(first) == list(range(half, 1 << k))
    blocks = [0]
    for j in range(k - 1):
        block = _covered(sweep_rounds(1 << j, j), 1 << j)
        assert sorted(block) == list(range(1 << j, 1 << (j + 1)))
        assert all(layout.subcube_of_coord(c) == j for c in block)
        blocks.extend(block)
    assert sorted(blocks) == sorted(_covered(sweep_rounds(0, k - 1), 0))
    assert sorted(blocks) == list(range(half))


def test_low_blocks_with_corner_form_a_cube():
    # corner + Q^0..Q^{j-1} always spans the j-dimensional prefix cube
    q = build_hypercube(5)
    g = q.to_graph()
    coords = [0]
    for j in range(q.m):
        coords.extend(_covered(sweep_rounds(1 << j, j), 1 << j))
        assert sorted(coords) == list(range(1 << (j + 1)))
        inside = set(coords)
        for c in coords:
            assert sum(q.coord_of(v) in inside for v in neighbours(g, q.label(c))) == j + 1


@pytest.mark.parametrize("fixture", ["g83", "g104", "g73_shrunk"])
def test_roots_reach_their_partner_across_the_halves(request, fixture):
    # every first-half coordinate c is joined to c ^ half, or to its
    # replacement partner when c ^ half lies in a deleted low block
    g, layout = request.getfixturevalue(fixture)[1:3]
    half = layout.half
    replaced = dict(layout.replacement_coords)
    dead = (1 << layout.params.p) if layout.params.x > 0 else 0
    partners = []
    ids = layout.coord_ids
    for c in range(half, 1 << layout.k):
        partner = c ^ half if c ^ half >= dead else replaced[c]
        assert ids[partner] in row(g, ids[c]), (c, partner)
        partners.append(partner)
    if not dead:
        assert sorted(partners) == list(range(half))


def test_schedule_unknown_originator():
    q = build_hypercube(2)
    with pytest.raises(UnknownVertex):
        hypercube_schedule(q, VertexLabel(tree=None, cube="101"))


def test_schedule_zero_rounds_for_point():
    s = hypercube_schedule(build_hypercube(0), build_hypercube(0).label(0))
    assert s.rounds == ()


def test_schedule_ids_are_coordinates_of_the_graph_numbering():
    # the schedule's label tuple is the one to_graph() numbers the vertices in
    for m in range(5):
        q = build_hypercube(m)
        s = hypercube_schedule(q, q.label(m))
        assert s.labels == q.to_graph().labels
        assert s.origin == m and s.rounds == tuple(map(tuple, sweep_rounds(m, m)))


def test_schedule_and_graph_share_one_label_tuple():
    # labels is made once per cube, so the check compares the tuples by identity
    q = build_hypercube(4)
    assert hypercube_schedule(q, q.label(5)).labels is q.to_graph().labels


def test_schedule_two_rounds_three_calls():
    q = build_hypercube(2)
    for c in range(4):
        s = hypercube_schedule(q, q.label(c))
        assert len(s.rounds) == 2 and sum(map(len, s.rounds)) == 3
        res = check_schedule(q.to_graph(), s)
        assert res.ok and res.completion_round == 2


def test_schedule_doubles_every_round():
    q = build_hypercube(4)
    s = hypercube_schedule(q, q.label(0))
    assert [len(calls) for calls in s.rounds] == [1, 2, 4, 8]
    assert sum(map(len, s.rounds)) == 15
    res = check_schedule(q.to_graph(), s)
    assert res.ok and res.completion_round == 4


def test_all_originators_complete_in_m_rounds():
    for m in range(7):
        q = build_hypercube(m)
        g = q.to_graph()
        for c in range(q.size):
            res = check_schedule(g, hypercube_schedule(q, q.label(c)))
            assert res.ok and (res.completion_round or 0) == m


def test_schedule_matches_exact_oracle_small():
    for m in range(4):
        q = build_hypercube(m)
        g = q.to_graph()
        for c in range(q.size):
            assert exact_broadcast_time(g, q.label(c)) == m
