import hashlib
import random

import pytest
from conftest import label_rounds, vertex

from broadcastnet import (
    UnknownVertex,
    VertexLabel,
    build,
    certify_graph,
    check_schedule,
    classify,
    make_params,
    make_schedule,
)
from broadcastnet.labels import bits, pos_mask
from broadcastnet.schedule import ShiftedFragment
from broadcastnet.scheme import families


def _label_of_coord(g, layout, c):
    return g.labels[layout.coord_ids[c]]


def test_classify_case1(g72):
    params, g, layout, _ = g72
    rk = _label_of_coord(g, layout, layout.half)
    assert classify(g, layout, rk).tag == "C11"
    w = vertex(g, layout, 1, layout.tree_size - 1)
    assert classify(g, layout, w).tag == "C11"
    # a tree vertex whose root sits in the first half
    v_q1 = vertex(g, layout, 3, 5)
    assert classify(g, layout, v_q1).tag == "C12"
    # tree 1 is rooted on the low corner block
    v_q2 = vertex(g, layout, 1, 5)
    assert classify(g, layout, v_q2).tag == "C13"


def test_classify_case2(g73_shrunk):
    params, g, layout, _ = g73_shrunk
    assert classify(g, layout, _label_of_coord(g, layout, layout.half)).tag == "C21"
    assert classify(g, layout, vertex(g, layout, 2, 1)).tag == "C23"
    q1_tree = layout.tree_of_coord[layout.half]
    assert classify(g, layout, vertex(g, layout, q1_tree, 1)).tag == "C22"


def test_classify_total_over_graph(g72, g73_shrunk):
    for params, g, layout, _ in (g72, g73_shrunk):
        tags = {classify(g, layout, v).tag for v in g.labels}
        shrunk = params.n < params.N
        want = {"C21", "C22", "C23"} if shrunk else {"C11", "C12", "C13"}
        assert tags == want


def test_classify_unknown_vertex(g72):
    _, g, layout, _ = g72
    from broadcastnet import VertexLabel
    with pytest.raises(UnknownVertex):
        classify(g, layout, VertexLabel(tree=99, pos="000001"))


def test_certification_makes_no_label_index():
    # make_schedule finds u's full id from its label in O(1), with no
    # label -> id index, on the per-originator path a full certification
    # takes for the originators on the cube
    params = make_params(7, 3, 191)
    g, layout, _ = build(params)
    assert certify_graph(g, layout, params).passed
    assert g._index is None


def test_make_schedule_refuses_a_label_the_graph_lacks(g72, g73_shrunk):
    params, g, layout, _ = g73_shrunk
    M, h = layout.tree_size, layout.h
    f = next(f for f, v in enumerate(layout.dense) if v < 0 and f % M and f != layout.w)
    pruned = VertexLabel(f // M + 1, bits(f % M, h))
    leaf = vertex(g, layout, 1, 3)
    root = vertex(g, layout, 2, 0)
    other_cube = bits(pos_mask(root.cube) ^ 1, layout.k)
    stranger = g72[1].labels[-1]
    labels = set(g.labels)
    cases = [
        pruned,
        VertexLabel(0, bits(M - 1, h)),  # full id -1
        VertexLabel(None, leaf.pos),
        VertexLabel(1, "2"),
        VertexLabel(1, "1" + leaf.pos),  # one bit too long: the same mask in tree 2
        VertexLabel(2, "", other_cube),
        stranger,
    ]
    for u in cases:
        assert u not in labels
        with pytest.raises(UnknownVertex) as exc:
            make_schedule(g, layout, params, u)
        assert str(exc.value) == f"{u} not in graph"


@pytest.mark.parametrize("u", [5, None, "r1"])
def test_a_value_that_is_no_label_is_an_unknown_vertex(g72, u):
    # a vertex id, None or a label's text has no tree or position to spell
    # a full id from
    params, g, layout, _ = g72
    calls = [lambda: certify_graph(g, layout, params, originators=[u]),
             lambda: classify(g, layout, u),
             lambda: make_schedule(g, layout, params, u)]
    for call in calls:
        with pytest.raises(UnknownVertex) as exc:
            call()
        assert str(exc.value) == f"{u} not in graph"


def test_families_of_a_range_match_those_of_any_order(g73_shrunk):
    # a range is taken as it comes, ascending and distinct; any other input
    # is sorted and made distinct first
    params, g, layout, _ = g73_shrunk
    ids = [*range(g.n), *range(0, g.n, 7)]
    random.Random(3).shuffle(ids)
    fams, rest = families(layout, params, range(g.n))
    shuffled, again = families(layout, params, ids)
    assert fams and fams == shuffled
    assert rest == sorted(set(again))


def test_case1_schedule_from_root(g72):
    params, g, layout, _ = g72
    u = _label_of_coord(g, layout, 1)  # the first root
    s = make_schedule(g, layout, params, u)
    res = check_schedule(g, s)
    assert res.ok
    assert res.completion_round <= params.t + 1


def test_case1_schedule_from_w(g72):
    params, g, layout, _ = g72
    w = vertex(g, layout, 1, layout.tree_size - 1)
    s = make_schedule(g, layout, params, w)
    res = check_schedule(g, s)
    assert res.ok and res.completion_round <= 8
    # phase 1 covers the whole cube by round k
    cube_callees = {b for calls in s.rounds[:params.k] for _, b in calls}
    assert len(cube_callees) == (1 << params.k) - 1


def test_case2_schedule_from_rk_with_whole_tree_deleted(g73_shrunk):
    params, g, layout, _ = g73_shrunk
    rk = _label_of_coord(g, layout, layout.half)
    s = make_schedule(g, layout, params, rk)
    res = check_schedule(g, s)
    assert res.ok and res.completion_round <= params.t + 1


def test_w_is_reached_exactly_at_the_last_round_from_tree_vertices(g72):
    params, g, layout, _ = g72
    w = vertex(g, layout, 1, layout.tree_size - 1)
    u = vertex(g, layout, 2, 3)
    s = make_schedule(g, layout, params, u)
    informed_at = None
    for rnd, calls in enumerate(label_rounds(s), start=1):
        for _, b in calls:
            if b == w:
                informed_at = rnd
    assert informed_at == params.t + 1


def test_no_vertex_called_twice(g72, g73_shrunk):
    for params, g, layout, _ in (g72, g73_shrunk):
        for u in (g.labels[0], g.labels[17], g.labels[-1]):
            s = make_schedule(g, layout, params, u)
            callees = [b for calls in label_rounds(s) for _, b in calls]
            assert len(callees) == len(set(callees))
            assert len(callees) == g.n - 1
            assert u not in callees


def test_schedule_json_round_shape(g72):
    params, g, layout, _ = g72
    import json
    s = make_schedule(g, layout, params, g.labels[5])
    obj = json.loads(s.to_json(g))
    assert obj["originator"] == 5
    assert obj["completes_at"] <= 8
    assert len(obj["rounds"]) == 8


def test_schedules_complete_for_every_originator_in_shrunk_graph(g73_shrunk):
    params, g, layout, _ = g73_shrunk
    worst = 0
    for u in g.labels:
        res = check_schedule(g, make_schedule(g, layout, params, u))
        assert res.ok, (u, res.violation)
        worst = max(worst, res.completion_round)
    assert worst == params.t + 1


def test_p2_regime_schedules():
    params = make_params(9, 4, 703)
    assert params.p == 2
    g, layout, _ = build(params)
    for vid in range(0, g.n, 29):
        u = g.labels[vid]
        res = check_schedule(g, make_schedule(g, layout, params, u))
        assert res.ok and res.completion_round <= 10


def test_doubling_bound_on_generated_schedules(g72, g73_shrunk):
    for params, g, layout, _ in (g72, g73_shrunk):
        for u in (g.labels[0], g.labels[g.n // 2], g.labels[-1]):
            res = check_schedule(g, make_schedule(g, layout, params, u))
            assert res.ok
            for i, size in enumerate(res.informed_per_round):
                assert size <= 1 << i


def test_cube_phase_shortfall_is_reported_not_scheduled(monkeypatch):
    import broadcastnet.scheme as scheme
    from broadcastnet import SchemePhaseOverrun, certify_graph
    # a build of its own: a layout that has scheduled an originator of the
    # tree already keeps the tree's cube template, made before the patch
    params = make_params(7, 2, 192)
    g, layout, _ = build(params)
    sweep = scheme.sweep_rounds
    monkeypatch.setattr(scheme, "sweep_rounds", lambda seed, m:  # no first-half sweep
                        [] if seed >= layout.half and m == layout.k - 1 else sweep(seed, m))
    u = vertex(g, layout, 3, 5)  # C12: the first half is swept from its root
    message = "cube vertices missed by round 2: [2]"
    with pytest.raises(SchemePhaseOverrun) as exc:
        make_schedule(g, layout, params, u)
    assert str(exc.value) == message
    report = certify_graph(g, layout, params, originators=[u])
    assert not report.passed and report.max_round is None
    assert report.failures == [{"id": g.vertex_id(u),
                                "error": f"SchemePhaseOverrun: {message}"}]


def test_cube_phase_informing_u_and_w_of_tree_one_is_reported(g72, monkeypatch):
    # tree 1 starts from its root and one more vertex at most: a cube phase
    # that also reached w (coordinate 0) for a u inside tree 1 is refused;
    # so is one that reached w for an off-cube u of another tree, which
    # would start two trees from two vertices each
    import broadcastnet.scheme as scheme
    from broadcastnet import SchemePhaseOverrun
    params, g, layout, _ = g72
    sweep = scheme.sweep_rounds
    # the patched phase runs on a build of its own: the layout that has
    # scheduled u keeps tree 1's cube template, made before the patch
    _, fresh, _ = build(params)

    def sweep_and_reach_w(seed, m):
        rounds = sweep(seed, m)
        if seed >= layout.half and m == layout.k - 1:
            rounds[-1] = rounds[-1] + [(seed, 0)]
        return rounds

    u = vertex(g, layout, 1, 5)  # C13: u lies in tree 1 and is not w
    make_schedule(g, layout, params, u)
    monkeypatch.setattr(scheme, "sweep_rounds", sweep_and_reach_w)
    with pytest.raises(SchemePhaseOverrun, match="informed w as well as u, off the cube"):
        make_schedule(g, fresh, params, u)
    other = vertex(g, layout, 2, 5)  # C12: u lies in tree 2 and is off the cube
    assert classify(g, layout, other).tag == "C12"
    with pytest.raises(SchemePhaseOverrun, match="informed w as well as u, off the cube"):
        make_schedule(g, fresh, params, other)
    assert fresh.cube_templates == {}


@pytest.mark.parametrize("t", range(7, 12))
def test_no_off_cube_cube_phase_informs_w(t):
    # the off-cube cube phase sweeps [2^(k-1), 2^k) and then blocks
    # [2^j, 2^(j+1)) with j >= p: it never reaches coordinate 0, so no
    # off-cube template informs w; the overrun of the test above is reached
    # only through a patched sweep.  Each originator's one override is
    # exact: its own tree from u off the cube, tree 1 from w on the cube
    # when w survives, none otherwise.  Every k; full, full-1 and two
    # seeded n each; every originator
    from broadcastnet.params import full_size, max_k
    rng = random.Random(t)
    for k in range(2, max_k(t, n_odd=True) + 1):
        N = full_size(t, k)
        for n in (N, N - 1, rng.randrange((1 << t) + 1, N), rng.randrange((1 << t) + 1, N)):
            if k > max_k(t, n_odd=bool(n % 2)):
                continue
            params = make_params(t, k, n)
            g, layout, _ = build(params)
            w = layout.dense[layout.w]
            for uid, label in enumerate(g.labels):
                _, overrides, _ = make_schedule(g, layout, params, label).pieces
                if label.cube is None:
                    want = [(label.tree, uid)]
                else:
                    want = [(1, w)] if layout.w_alive else []
                assert [(tree, frag.u) for tree, frag in overrides] == want, (t, k, n, label)
            off_cube = [template for (_, c), template in layout.cube_templates.items()
                        if c is None]
            assert off_cube, (t, k, n)
            for template in off_cube:
                called = {b for calls in template.rounds for _, b in calls}
                assert w not in called, (t, k, n)


def test_originators_need_no_tree_simulation(monkeypatch):
    # each tree is simulated once, from its root; after one originator per
    # class, 30 more at t=12 k=2 schedule and certify their own trees by the
    # shift lemma alone, with no call to the simulation
    from broadcastnet import certify_graph, construct

    params = make_params(12, 2, 6144)
    g, layout, _ = build(params)
    classes = {}
    for label in g.labels:
        classes.setdefault(classify(g, layout, label).tag, label)
    assert sorted(classes) == ["C11", "C12", "C13"]
    assert certify_graph(g, layout, params, originators=list(classes.values())).passed
    calls = []
    simulate = construct.binomial_rounds_masks
    monkeypatch.setattr(construct, "binomial_rounds_masks",
                        lambda *args: calls.append(args) or simulate(*args))
    picked = [g.labels[i] for i in random.Random(12).sample(range(g.n), 30)]
    report = certify_graph(g, layout, params, originators=picked)
    assert report.passed and report.max_round == 13
    assert calls == []


@pytest.mark.parametrize("t,k,n", [(7, 2, 192), (8, 3, 448), (7, 2, 191), (8, 3, 440),
                                   (7, 3, 191)])
def test_tree_one_starts_from_its_root_and_one_vertex_at_most(t, k, n):
    # full, shrunk with x = 0 and with x > 0 (tree 1 deleted whole): for
    # every originator the cube phase informs at most one vertex of tree 1
    # besides its root, u or w, and tree 1's fragment starts from exactly it:
    # an override of the table's fragment, or with no override the table's
    params = make_params(t, k, n)
    g, layout, _ = build(params)
    tree1 = set(layout.dense[:layout.tree_size]) - {-1}
    root1, plain = layout.dense[0], (layout.tree_rounds(1) if layout.w_alive else None)
    for label in g.labels:
        s = make_schedule(g, layout, params, label)
        cube, overrides, table = s.pieces
        assert table is layout.plain_table
        informed = ({s.origin} | {b for calls in cube.rounds for _, b in calls}) & tree1
        frags = [frag for tree, frag in overrides if tree == 1]
        if not layout.w_alive:
            assert frags == [] and informed == set() and 1 not in dict(table)
            continue
        assert dict(table)[1] is plain
        extra = informed - {root1}
        assert root1 in informed and len(extra) <= 1, (label, extra)
        if extra:
            (frag,) = frags
            assert isinstance(frag, ShiftedFragment) and frag.base is plain
            assert {frag.u} == extra, label
        else:
            assert frags == [], label


# SHA-256 of every originator's schedule, in id order: its to_json output,
# and the repr of its rounds (the call order within a round too).  Pinned
# from schedules whose cube phase was made per originator, so that making
# it once per tree, as a template, is seen to change no output.  t=9 k=4
# n=885 (x=1, p=1), pinned from templates that held the originator's calls
# apart, is the one whose on-cube cube phases reach every branch of
# scheme._region_rounds (recurse, top and high); the others reach top or none
SCHEDULE_DIGESTS = {
    (7, 2, 192): ("bd1e9505e10417f357e6ac39e8b5a8283f7f23ef7e6e457ba9069e132a31d896",
                  "f0b48db5391cb5ef7dbc2b18f1580b187f45666755085e0301b2f05743e3dfa7"),
    (8, 3, 448): ("4d3d0507c3fe2e52c5fc413f71c667de95bb0f213828bf2ae64fb58f4c6ef09b",
                  "834964c2fef179abf8112c24a09ec074ac3351dcba8a65cb2f8edd9c52dec8da"),
    (7, 2, 191): ("69a817c30c4b8cff81cd013ea1cbc2d6f6f0dfe20cf5e0d93bbc6c1e53208ca6",
                  "3f3f37ce41e06231511fbca457596911d964bd94375eef1541bc3d952a545cbc"),
    (8, 3, 440): ("c033a30f9f9176b3cc3965728164c02b23500ac84c1ebadaf51239d943db6ff8",
                  "6b19a3a87718ef1c6d9427b9aec08ce87ee787d4a588dcc5563ee75354ce5645"),
    (7, 3, 191): ("a5c9fed9c3b890fc3920a6344860f0dc91f27262276958d25de78eba7665e9d7",
                  "3452556ebcfdc22cfcc2814ee189b0e6197fe96f09d78cc65704f3a2b2b23cce"),
    (9, 4, 885): ("9cf5583d798d9b4deee4d0439caf5401ae66236d97f8ad481021431d310c0692",
                  "ac46b8af9c8d135f25b02672bd5dd7ffa8a992970ae18111536f5b0791c3130a"),
}


@pytest.mark.parametrize("t,k,n", sorted(SCHEDULE_DIGESTS))
def test_schedules_are_byte_identical_to_the_pinned_digests(t, k, n):
    params = make_params(t, k, n)
    g, layout, _ = build(params)
    text, order = hashlib.sha256(), hashlib.sha256()
    for u in g.labels:
        s = make_schedule(g, layout, params, u)
        text.update(s.to_json(g).encode())
        order.update(repr(s.rounds).encode())
    assert (text.hexdigest(), order.hexdigest()) == SCHEDULE_DIGESTS[t, k, n]
