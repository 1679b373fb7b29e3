import io
import os
import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest
from conftest import (cube_rounds, label_schedule, like_first, neighbours, reference_report,
                      row, smallest_first, vertex)

from broadcastnet import (
    BroadcastNetError,
    CertificationReport,
    DisconnectedGraph,
    Graph,
    Schedule,
    TooLarge,
    UnknownVertex,
    VertexLabel,
    build,
    build_hypercube,
    certify_graph,
    check_schedule,
    exact_broadcast_time,
    hypercube_schedule,
    make_params,
    make_schedule,
    verify,
)
from broadcastnet.labels import bits
from broadcastnet.params import full_size
from broadcastnet.schedule import CubeTemplate, ShiftedFragment


def _path3():
    labs = [VertexLabel(tree=i) for i in (1, 2, 3)]
    g = Graph.from_sorted(labs, [(0, 1), (1, 2)])
    return g, labs


def test_check_dimension_sweep_on_q2():
    q = build_hypercube(2)
    res = check_schedule(q.to_graph(), hypercube_schedule(q, q.label(0)))
    assert res.ok and res.completion_round == 2


def test_check_rejects_busy_caller():
    g, labs = _path3()
    center = labs[1]
    s = label_schedule(center, [[(center, labs[0]), (center, labs[2])]])
    res = check_schedule(g, s)
    assert not res.ok
    assert res.violation.reason == "busy-caller"
    assert res.violation.round == 1


def test_check_rejects_uninformed_caller():
    g, labs = _path3()
    s = label_schedule(labs[0], [[(labs[1], labs[2])]])
    res = check_schedule(g, s)
    assert not res.ok and res.violation.reason == "caller-uninformed"


def test_check_rejects_non_edge_call():
    g, labs = _path3()
    s = label_schedule(labs[0], [[(labs[0], labs[2])]])
    res = check_schedule(g, s)
    assert not res.ok and res.violation.reason == "no-edge"


def test_check_rejects_non_edge_call_of_the_last_vertex():
    # the edge test has no exempt caller in a whole replay, the last id included
    g, labs = _path3()
    s = label_schedule(labs[2], [[(labs[2], labs[0])]])
    res = check_schedule(g, s)
    assert not res.ok and res.violation.reason == "no-edge"


def test_check_rejects_informed_callee():
    g, labs = _path3()
    s = label_schedule(labs[0], [[(labs[0], labs[1])], [(labs[1], labs[0])]])
    res = check_schedule(g, s)
    assert not res.ok and res.violation.reason == "callee-informed"
    assert res.violation.round == 2


def test_check_reports_incomplete():
    g, labs = _path3()
    s = label_schedule(labs[0], [[(labs[0], labs[1])]])
    res = check_schedule(g, s)
    assert not res.ok
    assert res.violation.kind == "incomplete"
    assert res.violation.uninformed == 1


def test_check_replay_counts_every_informed_vertex():
    g, labs = _path3()
    s = label_schedule(labs[0], [[(labs[0], labs[1])], [(labs[1], labs[2])]])
    res = check_schedule(g, s)
    assert res.ok and res.completion_round == 2
    assert list(res.informed_per_round) == [1, 2, 3]


def test_exact_path3():
    g, labs = _path3()
    assert exact_broadcast_time(g, labs[0]) == 2
    assert exact_broadcast_time(g, labs[1]) == 2


def test_exact_lower_bound_sanity():
    for m in range(1, 4):
        q = build_hypercube(m)
        g = q.to_graph()
        for lab in g.labels:
            assert exact_broadcast_time(g, lab) >= (g.n - 1).bit_length()


def test_exact_too_large():
    q = build_hypercube(5)
    g = q.to_graph()
    with pytest.raises(TooLarge):
        exact_broadcast_time(g, g.labels[0])


def test_exact_disconnected_graph_is_its_own_error():
    labs = [VertexLabel(tree=i) for i in range(1, 4)]
    g = Graph.from_sorted(labs, [(0, 1)])
    with pytest.raises(DisconnectedGraph) as exc:
        exact_broadcast_time(g, labs[0])
    assert not isinstance(exc.value, UnknownVertex)
    assert isinstance(exc.value, BroadcastNetError)


def test_exact_on_star_graph():
    labs = [VertexLabel(tree=i) for i in range(1, 6)]
    g = Graph.from_sorted(labs, [(0, i) for i in range(1, 5)])
    # the hub must call leaves one at a time
    assert exact_broadcast_time(g, labs[0]) == 4
    assert exact_broadcast_time(g, labs[1]) == 4


def test_certify_case1_t7k2(g72):
    params, g, layout, _ = g72
    report = certify_graph(g, layout, params)
    assert report.passed
    assert report.max_round == 8 and report.target == 8
    assert len(report.per_originator) == 192
    assert report.per_originator == sorted(report.per_originator)


def test_certify_case2(g73_shrunk):
    params, g, layout, _ = g73_shrunk
    report = certify_graph(g, layout, params)
    assert report.passed and report.max_round == 8


def test_certify_case2_t8k3_n300():
    params = make_params(8, 3, 300)
    g, layout, _ = build(params)
    report = certify_graph(g, layout, params)
    assert report.passed and report.max_round == 9


def test_certify_subset_and_jobs_deterministic(g72):
    params, g, layout, _ = g72
    a = certify_graph(g, layout, params, jobs=1)
    b = certify_graph(g, layout, params, jobs=2)
    assert a.to_json() == b.to_json()
    assert certify_graph(g, layout, params, jobs=5000).to_json() == a.to_json()


@pytest.mark.parametrize("jobs", [1, 2])
def test_certify_keeps_the_callers_order_for_every_jobs(g73_shrunk, jobs):
    # originators on the cube and off it, one of them twice: one entry per
    # originator given, in the order given, whatever the worker count
    params, g, layout, _ = g73_shrunk
    picked = [40, 3, 40, 100, 32]
    assert g.labels[32].is_root and g.labels[40].cube is None
    report = certify_graph(g, layout, params, jobs=jobs,
                           originators=[g.labels[i] for i in picked])
    assert report.passed
    assert report.per_originator == [(40, 8), (3, 8), (40, 8), (100, 8), (32, 8)]


@pytest.mark.parametrize("originators", [None, [0, 3, 17]], ids=["all", "some"])
@pytest.mark.parametrize("jobs", [1, 2, 5000])
def test_certify_starts_no_process_for_any_jobs(monkeypatch, jobs, originators):
    # both paths run in the caller, whatever jobs is and whichever
    # originators are asked for; a fresh build, so that the per-graph
    # record is made under the patch too
    def refuse():
        raise AssertionError("certify_graph started a process")

    params = make_params(7, 3, 191)
    g, layout, _ = build(params)
    labels = None if originators is None else [g.labels[i] for i in originators]
    want = certify_graph(g, layout, params, jobs=1, originators=labels).to_json()
    monkeypatch.setattr(os, "fork", refuse)
    g, layout, _ = build(params)
    report = certify_graph(g, layout, params, jobs=jobs, originators=labels)
    assert report.to_json() == want


@pytest.mark.parametrize("path", ["_certify_family", "_certify_one"])
def test_certify_raises_what_certification_raised(g72, monkeypatch, path):
    # an exception of the family path or of the per-originator path reaches
    # the caller as it was raised
    params, g, layout, _ = g72
    err = ValueError("refused")

    def refuse(*args):
        raise err

    monkeypatch.setattr(verify, path, refuse)
    with pytest.raises(ValueError) as exc:
        certify_graph(g, layout, params, jobs=2)
    assert exc.value is err


def test_certify_leaves_multiprocessing_unimported():
    # a fresh interpreter, so that no other test's import counts
    src = os.path.dirname(os.path.dirname(verify.__file__))
    code = ("import sys\n"
            "from broadcastnet import build, certify_graph, make_params\n"
            "params = make_params(7, 3, 191)\n"
            "g, layout, _ = build(params)\n"
            "assert certify_graph(g, layout, params, jobs=2).passed\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_certify_finds_originators_without_the_label_index():
    # a given originator is found by the full id its label spells, so no
    # label -> id index is made; a label the graph lacks is refused
    params = make_params(8, 3, 300)
    g, layout, _ = build(params)
    picked = [g.labels[17], g.labels[layout.coord_ids[5]], g.labels[17]]
    report = certify_graph(g, layout, params, originators=picked)
    assert report.passed and [vid for vid, _ in report.per_originator] == [
        17, layout.coord_ids[5], 17]
    tree, masks = next(iter(layout.pruned_masks.items()))
    pruned = VertexLabel(tree, bits(min(masks), params.tree_order))
    for u in (pruned, VertexLabel(tree=99)):
        with pytest.raises(UnknownVertex):
            certify_graph(g, layout, params, originators=[g.labels[0], u])
    assert g._index is None


def test_certify_mutated_graph_reported_honestly(g72):
    # drop one attachment edge from a low root to a first-half tree vertex
    # and rerun: the generator still schedules the missing edge, so the
    # checker must flag it; the report stays internally consistent
    params, g, layout, _ = g72
    r1 = vertex(g, layout, 1, 0)
    victim = next(v for v in neighbours(g, r1)
                  if v.tree is not None and v.tree != 1 and not v.is_root)
    vid, rid = g.vertex_id(victim), g.vertex_id(r1)
    edges = [e for e in g.edge_ids() if e != (min(vid, rid), max(vid, rid))]
    mutated = Graph.from_sorted(g.labels, edges, t=g.t, k=g.k)
    assert mutated.num_edges == g.num_edges - 1
    report = certify_graph(mutated, layout, params)
    assert not report.passed
    assert report.failures
    assert any("violation" in f or f.get("reason") == "late-completion"
               for f in report.failures)


@pytest.mark.parametrize("bad", [-1, -192, 192, 10**6])
def test_check_rejects_out_of_range_ids(g72, bad):
    # a negative id must not wrap onto the last vertex: every id outside
    # [0, n) in an id-backed schedule is an unknown vertex of its round
    params, g, layout, _ = g72
    s = make_schedule(g, layout, params, g.labels[5])
    origin, id_rounds = s.ids_in(g)
    rounds = [list(calls) for calls in id_rounds]
    a, _ = rounds[3][-1]
    rounds[3][-1] = (a, bad)
    res = check_schedule(g, Schedule(g.labels, origin, rounds))
    assert not res.ok
    assert res.violation.to_json_obj() == {"kind": "illegal-call", "round": 4,
                                           "reason": "unknown-vertex"}
    res = check_schedule(g, Schedule(g.labels, origin, [[(bad, origin)]] + rounds))
    assert not res.ok and res.violation.round == 1
    assert res.violation.reason == "unknown-vertex"
    res = check_schedule(g, Schedule(g.labels, bad, id_rounds))
    assert not res.ok and res.violation.reason == "unknown-originator"


@pytest.mark.parametrize("bad", [None, 1.0, "1", 1.5])
def test_ids_that_are_no_ints_are_unknown(bad):
    # on Q2, on its own label tuple and on an equal copy: a call that names
    # an id that is no int (None is the originator only as a template's
    # caller) voids its round as an unknown vertex, and such an originator
    # is an unknown originator; to_json raises UnknownVertex for either,
    # and nothing raises a TypeError
    q = build_hypercube(2)
    g = q.to_graph()
    origin, rounds = hypercube_schedule(q, q.label(0)).ids_in(g)
    for labels in (g.labels, tuple(list(g.labels))):
        assert check_schedule(g, Schedule(labels, origin, rounds)).ok
        for call in ((1, bad), (bad, 1), (bad, bad)):
            s = Schedule(labels, origin, [rounds[0], [*rounds[1], call]])
            assert check_schedule(g, s).violation.to_json_obj() == {
                "kind": "illegal-call", "round": 2, "reason": "unknown-vertex"}
            with pytest.raises(UnknownVertex):
                s.to_json(g)
        s = Schedule(labels, bad, rounds)
        assert check_schedule(g, s).violation.to_json_obj() == {
            "kind": "illegal-call", "round": 0, "reason": "unknown-originator"}
        with pytest.raises(UnknownVertex):
            s.to_json(g)


def test_label_schedule_naming_foreign_labels():
    # ids_in turns a label the graph lacks into -1: an unknown originator,
    # or an unknown vertex voiding the round of the call that names it
    g, labs = _path3()
    stranger = VertexLabel(tree=9)
    s = label_schedule(stranger, [[(labs[0], labs[1])]])
    res = check_schedule(g, s)
    assert not res.ok and res.violation.to_json_obj() == {
        "kind": "illegal-call", "round": 0, "reason": "unknown-originator"}
    with pytest.raises(UnknownVertex):
        s.to_json(g)
    s = label_schedule(labs[0], [[(labs[0], labs[1])], [(labs[1], stranger), (labs[1], labs[2])]])
    res = check_schedule(g, s)
    assert not res.ok and res.violation.to_json_obj() == {
        "kind": "illegal-call", "round": 2, "reason": "unknown-vertex"}
    with pytest.raises(UnknownVertex):
        s.to_json(g)


def test_ids_outside_a_foreign_label_tuple_are_unknown():
    # on another label tuple an id outside that tuple is an unknown vertex,
    # never wrapped or looked up
    g, labs = _path3()
    other = tuple(reversed(labs))  # labs[0] is id 2 here
    res = check_schedule(g, Schedule(other, 2, [[(2, 1)], [(1, -1)]]))
    assert not res.ok and res.violation.to_json_obj() == {
        "kind": "illegal-call", "round": 2, "reason": "unknown-vertex"}
    res = check_schedule(g, Schedule(other, 3, [[(2, 1)]]))
    assert not res.ok and res.violation.reason == "unknown-originator"
    assert check_schedule(g, Schedule(other, 2, [[(2, 1)], [(1, 0)]])).ok


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_converts_ids_on_a_permuted_label_tuple(g73_shrunk, seed):
    # the same calls, moved onto a shuffled copy of g's label tuple, give the
    # same result, witness ids included: the checker maps them through the
    # schedule's own tuple instead of reading them as g's ids
    params, g, layout, _ = g73_shrunk
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)  # g's id i sits at perm[i] of the other tuple
    labels = [None] * g.n
    for i, j in enumerate(perm):
        labels[j] = g.labels[i]
    labels = tuple(labels)
    assert labels != g.labels
    s = make_schedule(g, layout, params, g.labels[rng.randrange(g.n)])
    swapped = [list(calls) for calls in s.rounds]
    a, b = swapped[1][0]
    swapped[1][0] = (b, a)
    for rounds in (s.rounds, swapped):
        own = check_schedule(g, Schedule(g.labels, s.origin, rounds))
        moved = Schedule(labels, perm[s.origin],
                         [[(perm[a], perm[b]) for a, b in calls] for calls in rounds])
        assert check_schedule(g, moved) == own
        assert moved.to_json(g) == Schedule(g.labels, s.origin, rounds).to_json(g)
    assert own.violation.to_json_obj() == {"kind": "illegal-call", "round": 2, "caller": b,
                                           "callee": a, "reason": "caller-uninformed"}


@pytest.mark.parametrize("tkn", [(7, 3, 161), (9, 4, 703)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_certify_equal_graph_on_other_label_tuple(tkn, jobs):
    # an equal graph read back from its export holds another label tuple,
    # equal to the one the schedules are on
    params = make_params(*tkn)
    g, layout, _ = build(params)
    loaded = Graph.from_json(g.export("json"))
    assert loaded == g and loaded.labels is not g.labels
    want = certify_graph(g, layout, params, jobs=jobs).to_json()
    assert certify_graph(loaded, layout, params, jobs=jobs).to_json() == want


def test_ids_on_an_unequal_label_tuple_are_converted():
    # the same ids on an equal copy of g's tuple, then on one with two labels
    # swapped: only the first reads them as g's ids
    g, labs = _path3()
    rounds = [[(0, 1)], [(1, 2)]]
    assert check_schedule(g, Schedule(tuple(list(g.labels)), 0, rounds)).ok
    res = check_schedule(g, Schedule((labs[1], labs[0], labs[2]), 0, rounds))
    assert not res.ok
    assert res.violation == verify.Violation("illegal-call", round=2, caller=0, callee=2,
                                             reason="no-edge")


def test_certify_report_json_round_trip(g72):
    import json
    params, g, layout, _ = g72
    report = certify_graph(g, layout, params, originators=[g.labels[0], g.labels[3]])
    obj = json.loads(report.to_json())
    assert obj["pass"] is True
    assert obj["n"] == 192
    assert len(obj["per_originator"]) == 2


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_report_is_written_in_blocks_as_one_dumps_writes_it(monkeypatch, g72, block):
    # the reference writes one list of lists and one string; the pairs that
    # are not two ints (a bool, a triple) go through json.dumps in blocks
    params, g, layout, _ = g72
    monkeypatch.setattr(verify, "_BLOCK", block)
    failures = [{"id": 9, "error": "UnknownVertex: no vertex has id 9"}]
    reports = [certify_graph(g, layout, params),
               certify_graph(g, layout, params, originators=g.labels[:5]),
               CertificationReport("t=7,k=2,n=192", 192, 8, None, False, [], failures)]
    for pairs in ([(0, 3)], [(5, 7), (1, 2), (9, 4), (0, 8)], [(1, True), (2, 3)],
                  [(1, 2), (3, 4, 5)], [[6, 1], (7, 2)]):
        reports.append(CertificationReport("x", 10, 8, 8, True, pairs, failures))
    for report in reports:
        want = reference_report(report)
        fh = io.StringIO()
        report.write(fh)
        assert report.to_json() == want
        assert fh.getvalue() == want


def _drop_edge(g, a, b):
    """A copy of g without edge a-b, on the same label tuple."""
    edges = [e for e in g.edge_ids() if e != (min(a, b), max(a, b))]
    return Graph.from_sorted(g.labels, edges, t=g.t, k=g.k)


def _plain_certify(monkeypatch, g, layout, params):
    """certify_graph with every originator given a schedule, as no family
    comes from the scheme, and every schedule checked by the whole replay
    alone."""
    with monkeypatch.context() as mp:
        mp.setattr(verify, "families", lambda layout, params, ids: ([], list(ids)))
        mp.setattr(verify, "_check_pieces", lambda g, s: None)
        return certify_graph(g, layout, params)


def _mutations(g, layout):
    """Copies of g on its label tuple without one edge: an attachment edge
    (as in test_certify_mutated_graph_reported_honestly), and a tree edge
    that the root-only fragment of tree 2 uses."""
    r1 = g.vertex_id(vertex(g, layout, 1, 0))
    victim = next(v for v in sorted(row(g, r1))
                  if g.labels[v].tree != 1 and not g.labels[v].is_root)
    caller, callee = layout.tree_rounds(2)[-1][0]
    return [_drop_edge(g, r1, victim), _drop_edge(g, caller, callee)]


def test_verdicts_do_not_carry_to_another_graph(monkeypatch):
    params = make_params(7, 2, 192)
    g, layout, _ = build(params)
    assert certify_graph(g, layout, params).passed
    for mutated in _mutations(g, layout):
        report = certify_graph(mutated, layout, params)
        assert not report.passed
        assert report.to_json() == _plain_certify(monkeypatch, mutated, layout, params).to_json()


def test_verdicts_on_a_mutated_graph_leave_the_graph_alone(monkeypatch):
    params = make_params(7, 2, 192)
    g, layout, _ = build(params)
    want = _plain_certify(monkeypatch, g, layout, params).to_json()
    for mutated in _mutations(g, layout):
        assert not certify_graph(mutated, layout, params).passed
    report = certify_graph(g, layout, params)
    assert report.passed and report.to_json() == want


def test_the_whole_replay_keeps_nothing_on_the_graph():
    # every replay tests its edges by bisecting g's CSR, so a whole replay
    # leaves nothing behind: neighbour sets kept on g for the next replay
    # (10.25 MB here) fail
    params = make_params(12, 5, full_size(12, 5))
    g, layout, _ = build(params)
    s = make_schedule(g, layout, params, g.labels[0])
    plain = Schedule(g.labels, s.origin, s.rounds)  # no pieces: replayed whole
    assert plain.rounds  # the copy's own rounds, made before the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = check_schedule(g, plain)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.ok and res.completion_round == params.t + 1
    assert res.informed_per_round == check_schedule(g, s).informed_per_round
    assert kept < 64 * 1024, kept


def test_certify_on_a_loaded_graph_runs_piecewise(g73_shrunk):
    # the reloaded graph holds an equal label tuple of its own
    params, g, layout, _ = g73_shrunk
    loaded = Graph.from_json(g.to_json())
    assert loaded.labels == layout.labels and loaded.labels is not layout.labels
    report = certify_graph(loaded, layout, params)
    assert report.passed
    assert report.to_json() == certify_graph(g, layout, params).to_json()
    assert verify._record(loaded).accepted.table is layout.plain_table, "no table was accepted"


def test_tree_fragments_are_immutable(g72):
    params, g, layout, _ = g72
    plain, shifted = layout.tree_rounds(2), layout.tree_rounds(1, 3)
    assert isinstance(plain, tuple) and isinstance(shifted, ShiftedFragment)
    assert ShiftedFragment.__slots__ == ("base", "u", "_rounds")
    for name, value in (("base", plain), ("u", 0), ("_rounds", ())):
        with pytest.raises(AttributeError):
            setattr(shifted, name, value)
    # pickled as its two fields: the copy makes its rounds when first read
    made = tuple(shifted)
    again = pickle.loads(pickle.dumps(shifted))
    assert again._rounds is None
    assert (again.base, again.u, tuple(again)) == (shifted.base, shifted.u, made)
    for frag in (plain, shifted):
        assert all(isinstance(calls, tuple) for calls in frag)
        with pytest.raises(TypeError):
            frag[0] = ()
        with pytest.raises(AttributeError):
            frag[0].append((0, 1))
    s = make_schedule(g, layout, params, g.labels[5])
    with pytest.raises(AttributeError):
        s.rounds[0].append((0, 1))
    with pytest.raises(AttributeError):
        s.rounds = ()
    # an off-cube originator's first rounds: its tree's template; an
    # on-cube one's: the template of its cube coordinate; each schedule
    # fills its template with its own originator, the caller None
    first = s.pieces[0]
    assert isinstance(first, CubeTemplate) and first is layout.cube_templates[1, None]
    on_cube = make_schedule(g, layout, params, vertex(g, layout, 2, 0))
    root = on_cube.pieces[0]
    assert root is layout.cube_templates[2, layout.coord_of_tree[2]]
    assert CubeTemplate.__slots__ == ("tree", "rounds")
    for obj in (first, root):
        for name in ("tree", "rounds", "u"):
            with pytest.raises(AttributeError):
                setattr(obj, name, ())
        with pytest.raises(AttributeError):
            obj.rounds[0].append((0, 1))
    for sched in (s, on_cube):
        template = sched.pieces[0]
        assert sched.origin not in {x for calls in template.rounds for call in calls for x in call}
        assert None in {a for calls in template.rounds for a, _ in calls}
        assert cube_rounds(sched) == tuple(
            tuple((sched.origin if a is None else a, b) for a, b in calls)
            for calls in template.rounds)
    # the layout pickles with the templates it holds, and a schedule with
    # its template, as its two fields
    again = pickle.loads(pickle.dumps((layout, first, root, s, on_cube)))
    for template, orig in ((again[0].cube_templates[1, None], first),
                           (again[0].cube_templates[2, layout.coord_of_tree[2]], root)):
        assert (template.tree, template.rounds) == (orig.tree, orig.rounds)
    for copy, orig in zip(again[1:3], (first, root)):
        assert (type(copy), copy.tree, copy.rounds) == (CubeTemplate, orig.tree, orig.rounds)
    for copy, orig in zip(again[3:], (s, on_cube)):
        assert copy.origin == orig.origin and copy.rounds == orig.rounds


def test_check_from_pieces_equals_whole_replay(g72, monkeypatch):
    # every generated schedule is accepted from its pieces, with the result
    # the whole replay of its calls gives, informed counts per round included
    params, g, layout, _ = g72
    schedules = [make_schedule(g, layout, params, u) for u in g.labels]
    assert all(verify._check_pieces(g, s) is not None for s in schedules)
    pieces = [check_schedule(g, s) for s in schedules]
    monkeypatch.setattr(verify, "_check_pieces", lambda g, s: None)
    assert pieces == [check_schedule(g, s) for s in schedules]


def test_recorded_verdict_is_tied_to_its_start_vertex(g72, monkeypatch):
    # tree 3's root-only fragment is recorded from its root; when the cube
    # phase informs another vertex of tree 3 instead, the template is
    # refused and the whole replay decides, from that vertex
    params, g, layout, _ = g72
    r1, r3 = vertex(g, layout, 1, 0), vertex(g, layout, 3, 0)
    s = make_schedule(g, layout, params, r1)
    assert certify_graph(g, layout, params, originators=[r1]).passed
    _, overrides, table = s.pieces
    cube = cube_rounds(s)
    assert (3, layout.tree_rounds(3)) in table and 3 not in dict(overrides)
    a, b = g.vertex_id(r1), g.vertex_id(r3)
    x = max(v for v in row(g, a) if g.labels[v].tree == 3)
    assert (a, b) in cube[-1] and b not in {c for calls in cube for c, _ in calls}
    cube = [[(a, x) if call == (a, b) else call for call in calls] for calls in cube]
    bad = Schedule(g.labels, a, like_first(s, cube), overrides, table)
    assert verify._check_pieces(g, bad) is None
    monkeypatch.setattr(verify, "make_schedule", lambda *args: bad)
    report = certify_graph(g, layout, params, originators=[r1])
    violation = check_schedule(g, bad).violation
    assert violation.reason == "caller-uninformed"
    assert report.failures == [{"id": a, "violation": violation.to_json_obj()}]


def _stop_mid_round(rounds, informed):
    """A copy of ``rounds`` whose last call in the first round of two or more
    calls goes to ``informed`` instead: the replay stops after the calls
    before it in that round have written their state."""
    rounds = [list(calls) for calls in rounds]
    calls = next(calls for calls in rounds if len(calls) > 1)
    calls[-1] = (calls[-1][0], informed)
    return tuple(map(tuple, rounds))


def test_piecewise_verdicts_do_not_depend_on_check_order(g73_shrunk):
    # the piecewise check keeps accepted tables and templates on the graph's
    # record, and each acceptance replays on a state of its own; legal and
    # violating schedules, interleaved and checked on one graph forward and
    # then in reverse, each get the result a fresh graph gives
    params, g, layout, _ = g73_shrunk
    fresh = lambda: Graph.from_sorted(g.labels, g.edge_ids(), t=g.t, k=g.k)
    off_cube = [u for u in g.labels if u.cube is None]
    legal = [make_schedule(g, layout, params, u) for u in off_cube[::37]]

    def own_fragment(s):
        """The schedule's own-tree override, and a copy of s with it replaced
        (or dropped, for None)."""
        cube, overrides, table = s.pieces
        i = next(i for i, (_, f) in enumerate(overrides) if isinstance(f, ShiftedFragment))
        tree, frag = overrides[i]

        def replaced(new):
            rest = overrides[:i] + ((tree, new),) * (new is not None) + overrides[i + 1:]
            return Schedule(g.labels, s.origin, cube, rest, table)

        return tree, frag, replaced

    cases = []
    for s in legal:
        tree, frag, replaced = own_fragment(s)
        root = g.vertex_id(vertex(g, layout, tree, 0))
        other = next(t for t, _ in s.pieces[2] if t != tree)
        cases += [
            s,
            Schedule(g.labels, s.origin, _stop_mid_round(cube_rounds(s), s.origin),
                     *s.pieces[1:]),
            # the same rounds as a new cube template, accepted from a
            # placeholder past g's ids
            Schedule(g.labels, s.origin,
                     like_first(s, _stop_mid_round(cube_rounds(s), s.origin)),
                     *s.pieces[1:]),
            s,
            replaced(_stop_mid_round(frag, root)),
            replaced(ShiftedFragment(_stop_mid_round(frag.base, root), frag.u)),
            replaced(None),
            replaced((((frag[0][0][0], -1),),)),
            # a table whose fragment of another tree stops mid-round, refused
            # after its replay has written that tree's state
            Schedule(g.labels, s.origin, s.pieces[0], s.pieces[1], tuple(
                (t, _stop_mid_round(f, s.origin) if t == other else f)
                for t, f in s.pieces[2])),
        ]
    outcomes = []
    for s in cases + cases[::-1]:
        res = check_schedule(g, s)
        assert res == check_schedule(fresh(), s)
        outcomes.append(res.ok)
    assert len(legal) == 5
    forward = [True, False, False, True, False, False, False, False, False] * len(legal)
    assert outcomes == forward + forward[::-1]
    # an id that is no int: met by the whole replay it voids its round as
    # an unknown vertex; after a violation the whole replay decides; either
    # way later verdicts are a fresh graph's
    s = legal[0]
    _, overrides, table = s.pieces
    rounds = [list(calls) for calls in cube_rounds(s)]
    rounds[-1][-1] = (rounds[-1][-1][0], "x")
    named = Schedule(g.labels, s.origin, rounds, overrides, table)
    res = check_schedule(g, named)
    assert res.violation.to_json_obj() == {"kind": "illegal-call", "round": len(rounds),
                                           "reason": "unknown-vertex"}
    assert res == check_schedule(fresh(), named)
    _, frag, replaced = own_fragment(s)
    rounds = [list(calls) for calls in _stop_mid_round(frag, s.origin)]
    rounds[-1][-1] = (rounds[-1][-1][0], 0.5)
    late = replaced(tuple(map(tuple, rounds)))
    res = check_schedule(g, late)
    assert not res.ok and res == check_schedule(fresh(), late)
    res = check_schedule(g, s)
    assert res.ok and res == check_schedule(fresh(), s)
    assert all(verify._check_pieces(g, s) is not None for s in legal)


def test_table_fragment_ending_in_an_empty_round_goes_to_the_whole_replay(g72):
    # a trailing empty round adds a round to the whole replay's counts that
    # the table's summed counts would not show, so such a table is not
    # accepted, and the schedule gets the whole replay's result
    params, g, layout, _ = g72
    s = make_schedule(g, layout, params, vertex(g, layout, 2, 5))
    cube, overrides, table = s.pieces
    padded = Schedule(g.labels, s.origin, cube, overrides,
                      tuple((tree, frag + ((),) if tree == 3 else frag) for tree, frag in table))
    assert verify._check_pieces(g, padded) is None
    res = check_schedule(g, padded)
    plain = check_schedule(g, s)
    assert res.ok and len(res.informed_per_round) == len(plain.informed_per_round) + 1


def test_shift_lemma_counts_only_a_base_in_preorder(g72, monkeypatch):
    # a legal root-only fragment of tree 2 in which every vertex calls its
    # children smallest subtree first: its subtrees are still id ranges, but
    # the children a vertex calls after v lie above v, not in (p, v), so the
    # lemma's counts do not fit it.  With it as tree 2's table fragment, the
    # table is accepted, the lemma refuses the override shifted from it, and
    # the whole replay decides the schedule: legal but late
    params, g, layout, _ = g72
    M = layout.tree_size
    base = smallest_first(layout, 2)
    lo = layout.dense[M]
    assert verify._tree_shape(base, lo, lo + M) is None
    u = vertex(g, layout, 2, 5)
    s = make_schedule(g, layout, params, u)
    cube, overrides, table = s.pieces
    assert [tree for tree, _ in overrides] == [2]
    shifted = Schedule(g.labels, s.origin, cube,
                       [(2, ShiftedFragment(base, overrides[0][1].u))],
                       tuple((tree, base if tree == 2 else frag) for tree, frag in table))
    accepted, vouched = verify._accepted, []
    monkeypatch.setattr(verify, "_accepted",
                        lambda *args: vouched.append(accepted(*args)) or vouched[-1])
    assert verify._check_pieces(g, shifted) is None
    assert vouched == [None]
    entry = verify._record(g).accepted.trees[2]
    assert entry.fragment is base and entry.shape is None
    res = check_schedule(g, shifted)
    assert res.ok and res.completion_round > params.t + 1


def test_last_rounds_are_where_the_shift_lemma_counts_end(g83, g73_shrunk):
    # L(u), the family path's last round of the ShiftedFragment of a table
    # fragment and u, is where _accepted's counts per round end: for every
    # vertex of every tree of two builds; of a tree on 0..4 in which 0 calls
    # 3 then 1, and 1's subtree is the deeper, so that for u = 3 the deepest
    # round in (p, u) = (0, 3) decides; of a tree on 0..4 in which 0 calls
    # 4, 3, then 1, and 1 calls 2, so that for u = 4 the deepest round in
    # (0, 4) lies below 1, not 3, u's nearest later-called sibling; and of a
    # path 0-1-2-3, where u's caller itself (u = 3) or u's subtree (u = 2)
    # decides
    small = (((0, 3),), ((0, 1), (3, 4)), ((1, 2),))
    fan = (((0, 4),), ((0, 3),), ((0, 1),), ((1, 2),))
    cases = [(small, 0, 5), (fan, 0, 5), ((((0, 1),), ((1, 2),), ((2, 3),)), 0, 4)]
    for _, g, layout, _ in (g83, g73_shrunk):
        spans = verify._record(g).spans
        cases += [(frag, *spans[tree]) for tree, frag in layout.plain_table]
    for frag, lo, hi in cases:
        shape = verify._tree_shape(frag, lo, hi)
        entry = verify._Tree(frag, [], shape)
        assert len(shape.last) == hi - lo
        assert shape.last[1:] == [
            len(verify._accepted(entry, ShiftedFragment(frag, u), u, (lo, hi)))
            for u in range(lo + 1, hi)]
    assert verify._tree_shape(small, 0, 5).last[3] == 2
    assert verify._tree_shape(fan, 0, 5).last[4] == 3


@pytest.mark.parametrize("n, trees, shapes", [(1792, 7, 1), (1500, 6, 2)])
def test_trees_equal_in_local_ids_share_one_shape(n, trees, shapes):
    # the full-size trees of t=10 k=3 have one fragment in local ids, so
    # they share one _Shape; at n=1500 the pruned tree has one of its own
    params = make_params(10, 3, n)
    g, layout, _ = build(params)
    assert certify_graph(g, layout, params).passed
    accepted = verify._record(g).accepted.trees.values()
    assert len(accepted) == trees
    assert len({id(entry.shape) for entry in accepted}) == shapes
    assert all(entry.shape is not None for entry in accepted)


def test_template_vouches_for_no_originator_it_names(g72):
    # a legal template of tree 2 that informs tree 2's root by a call: from
    # a placeholder the root is one more vertex informed, so the template is
    # accepted, the placeholder standing for another vertex of tree 2;
    # filled with that root, and tree 2's override shifted to it as well,
    # it would inform the root twice, and the shift lemma refuses the root
    # as the vertex informed besides it
    params, g, layout, _ = g72
    r1, r2, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 2, 3))
    template = CubeTemplate(2, [[(None, r3)], [(r3, r1)], [(r3, r2)]])
    table = layout.plain_table
    s = Schedule(g.labels, r2, template,
                 [(2, ShiftedFragment(layout.tree_rounds(2), r2))], table)
    assert verify._check_pieces(g, s) is None
    rec = verify._record(g)
    entry = rec.templates[template]
    assert entry is not None and entry.overrides == {2: None} and entry.root is None
    assert verify._accepted(rec.accepted.trees[2], s.pieces[1][0][1], r2, rec.spans[2]) is None
    res = check_schedule(g, s)
    assert not res.ok and res.violation.to_json_obj() == {
        "kind": "illegal-call", "round": 3, "caller": r3, "callee": r2,
        "reason": "callee-informed"}


def test_template_vouches_only_for_an_originator_of_its_tree(g72):
    # the template of u, off the cube in tree 1, has u call tree 2's root
    # and tree 1's.  Filled with v, a vertex of tree 2 that neighbours both,
    # and started from it, with tree 1's override shifted to v as well, it
    # passes every check but "u lies in the template's tree"; a template of
    # a tree the table lacks is refused as it is accepted
    params, g, layout, _ = g72
    r1, r2 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 2))
    s = make_schedule(g, layout, params, vertex(g, layout, 1, 5))
    first, [(tree, frag)], table = s.pieces
    assert tree == 1 and [c for calls in first.rounds for a, c in calls if a is None] == [r2, r1]
    assert verify._check_pieces(g, s) is not None
    v = next(v for v, label in enumerate(g.labels)
             if label.tree == 2 and not label.is_root and {r1, r2} <= set(row(g, v)))
    bad = Schedule(g.labels, v, first,
                   [(1, ShiftedFragment(frag.base, v))], table)
    assert verify._check_pieces(g, bad) is None and not check_schedule(g, bad).ok
    nowhere = CubeTemplate(0, first.rounds)
    moved = Schedule(g.labels, s.origin, nowhere, [(tree, frag)], table)
    assert verify._check_pieces(g, moved) is None and verify._record(g).templates[nowhere] is None
    assert check_schedule(g, moved) == check_schedule(g, s)


def test_template_standing_for_a_root_vouches_for_that_root_alone(g72):
    # a template of tree 3 that leaves tree 3's root uninformed, so its
    # placeholder stands for that root, which neighbours the callee of the
    # caller None.  Given to u, another vertex of tree 3 that neighbours
    # that callee, it passes every check but "u is the root", and the whole
    # replay finds the root never informed
    params, g, layout, _ = g72
    r1, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 3))
    u = g.vertex_id(vertex(g, layout, 3, 5))
    template = CubeTemplate(3, [[(None, r1)], []])
    bad = Schedule(g.labels, u, template, (), layout.plain_table)
    assert verify._check_pieces(g, bad) is None
    entry = verify._record(g).templates[template]
    assert entry.root == r3 and entry.overrides == {}
    assert r1 in row(g, u) and r1 in row(g, r3)
    assert check_schedule(g, bad).violation.reason == "caller-uninformed"


def test_root_template_is_refused_once_when_its_root_misses_a_callee(g72, monkeypatch):
    # a template of tree 1 that leaves tree 1's root uninformed, so its
    # placeholder stands for that root, whose edges to the callees of the
    # caller None are tested as the template is accepted: r1 does not
    # neighbour r2, so the template is refused, once, and the whole replay
    # finds the missing edge
    params, g, layout, _ = g72
    r1, r2, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 2, 3))
    assert r2 not in row(g, r1) and r3 in row(g, r2)
    template = CubeTemplate(1, [[(None, r2)], [(r2, r3)]])
    s = Schedule(g.labels, r1, template, (), layout.plain_table)
    accept, made = verify._accept_template, []
    monkeypatch.setattr(verify, "_accept_template",
                        lambda *args: made.append(args[2]) or accept(*args))
    assert verify._check_pieces(g, s) is None and verify._check_pieces(g, s) is None
    assert made == [template] and verify._record(g).templates[template] is None
    assert check_schedule(g, s).violation.to_json_obj() == {
        "kind": "illegal-call", "round": 1, "caller": r1, "callee": r2, "reason": "no-edge"}


def test_template_informs_one_vertex_per_tree_besides_its_root(g72):
    # the template of u, off the cube in tree 1, has u call tree 2's root,
    # which sweeps to tree 3's, and then tree 1's.  With w called in place
    # of tree 3's root, tree 1 would start from its root, u and w, and tree
    # 3 from no vertex: the informed counts still sum to n, and only the
    # one-vertex-per-tree rule refuses the template
    params, g, layout, _ = g72
    r1, r2, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 2, 3))
    w = g.vertex_id(vertex(g, layout, 1, layout.w))
    s = make_schedule(g, layout, params, vertex(g, layout, 1, 5))
    first, overrides, table = s.pieces
    assert first.rounds == (((None, r2),), ((r2, r3), (None, r1)))
    template = CubeTemplate(1, [[(None, r2)], [(r2, w), (None, r1)]])
    bad = Schedule(g.labels, s.origin, template,
                   [*overrides, (1, layout.tree_rounds(1, layout.w))], table)
    assert verify._check_pieces(g, bad) is None and verify._record(g).templates[template] is None
    assert not check_schedule(g, bad).ok


def _whole(g, s, monkeypatch):
    """check_schedule's result for s by the whole replay alone."""
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_check_pieces", lambda g, s: None)
        return check_schedule(g, s)


def test_the_originator_may_call_a_neighbour_off_the_cube(g73_shrunk, monkeypatch):
    # u, off the cube in tree 3, makes no call in the cube phase's last
    # round.  With an edge to v, a vertex off the cube of tree 4, a template
    # whose extra call of the caller None has u call v in that round is
    # legal: it informs v there, and tree 4 is overridden from v.  Every
    # piecewise edge is tested on the CSR, so the check accepts it from its
    # pieces, with the whole replay's counts
    params, g, layout, _ = g73_shrunk
    u, v = (g.vertex_id(vertex(g, layout, tree, 5)) for tree in (3, 4))
    s = make_schedule(g, layout, params, g.labels[u])
    first, overrides, table = s.pieces
    k = len(first.rounds)
    assert {r for r, calls in enumerate(first.rounds, 1) for a, _ in calls if a is None} == set(
        range(1, k))
    near = Graph.from_sorted(g.labels, sorted([*g.edge_ids(), (u, v)]), t=g.t, k=g.k)
    assert g.labels[v].cube is None and v not in row(g, u) and v in row(near, u)
    template = CubeTemplate(first.tree, [*first.rounds[:-1], ((None, v), *first.rounds[-1])])
    mine = Schedule(g.labels, u, template,
                    [*overrides, (4, ShiftedFragment(dict(table)[4], v))], table)
    sizes = verify._check_pieces(near, mine)
    entry = verify._record(near).templates[template]
    assert entry.overrides == {3: None, 4: v}
    whole = _whole(near, mine, monkeypatch)
    assert whole.ok and sizes == whole.informed_per_round
    # on g, without the edge, the same schedule is refused, as the whole
    # replay refuses it
    assert verify._check_pieces(g, mine) is None
    assert _whole(g, mine, monkeypatch).violation.reason == "no-edge"


@pytest.mark.parametrize("t, k, n", [(8, 3, 448), (7, 3, 161)])
def test_an_informed_vertex_overrides_the_tree_whose_span_holds_it(t, k, n, monkeypatch):
    # at both ends of the spans, on a full build and on one with trees
    # deleted (uneven spans; tree 1, and w with it, gone): the template of
    # the first tree's root informs every other root, which adds no
    # override, and w, in the first span, which overrides tree 1; one more
    # round in which the last tree's root calls its first child overrides
    # the last tree from that child; and in the last root's template, a
    # round in which the first tree's root calls its first child overrides
    # the first tree, unless w overrides it already.  With a table that
    # lacks the last tree, a template that informs its root, or its root's
    # child too, is refused: the schedule leaves the tree uninformed, or is
    # legal only with its override of a tree the table lacks
    params = make_params(t, k, n)
    g, layout, _ = build(params)
    table = layout.plain_table
    (first, base_first), (last, base_last) = table[0], table[-1]
    spans = verify._record(g).spans
    r_first, r_last = spans[first][0], spans[last][0]
    w = {1: layout.dense[layout.w]} if layout.w_alive else {}
    assert (first in w) == (n == 448) and spans[last][1] == n

    def checked(root, extra, override, table=table):
        """The verdict on root's template with one more round ``extra``, and
        the piecewise and the whole check of root's schedule with that
        template, ``override`` too and ``table``."""
        s = make_schedule(g, layout, params, g.labels[root])
        template = s.pieces[0]
        if extra:
            template = CubeTemplate(template.tree, [*template.rounds, extra])
        mine = Schedule(g.labels, root, template,
                        [*s.pieces[1], *override], table)
        sizes = verify._check_pieces(g, mine)
        return verify._record(g).templates[template], sizes, _whole(g, mine, monkeypatch)

    (a, c_last), (b, c_first) = base_last[0][0], base_first[0][0]
    assert (a, b) == (r_last, r_first) and not g.labels[c_last].is_root
    last_child = [(r_last, c_last)], [(last, ShiftedFragment(base_last, c_last))]
    entry, sizes, whole = checked(r_first, None, [])
    assert entry.root == r_first and entry.overrides == w
    assert whole.ok and sizes == whole.informed_per_round
    entry, sizes, whole = checked(r_first, *last_child)
    assert entry.overrides == {**w, last: c_last}
    assert whole.ok and sizes == whole.informed_per_round
    entry, sizes, whole = checked(r_last, [(r_first, c_first)],
                                  [(first, ShiftedFragment(base_first, c_first))])
    if w:  # tree 1 would start from its root, w and c_first
        assert entry is None and sizes is None and not whole.ok
    else:
        assert entry.root == r_last and entry.overrides == {first: c_first}
        assert whole.ok and sizes == whole.informed_per_round
    entry, sizes, whole = checked(r_first, None, [], table[:-1])
    assert entry is None and sizes is None and not whole.ok
    entry, sizes, whole = checked(r_first, *last_child, table[:-1])
    assert entry is None and sizes is None and whole.ok
