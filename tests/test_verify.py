import io
import multiprocessing
import os
import pickle
import random

import pytest
from conftest import label_schedule, like_first, neighbours, reference_report, row, vertex

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
from broadcastnet.schedule import CubeTemplate, FilledTemplate, ShiftedFragment


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
    for name, value in (("base", plain), ("u", 0), ("_rounds", ())):
        with pytest.raises(AttributeError):
            setattr(shifted, name, value)
    again = pickle.loads(pickle.dumps(shifted))
    assert (again.base, again.u, tuple(again)) == (shifted.base, shifted.u, tuple(shifted))
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
    # an off-cube originator's first rounds: its tree's template, filled;
    # an on-cube one's: the template of its cube coordinate
    filled = s.pieces[0]
    assert isinstance(filled, FilledTemplate) and filled.template is layout.cube_templates[1, None]
    root = make_schedule(g, layout, params, vertex(g, layout, 2, 0)).pieces[0]
    assert root.template is layout.cube_templates[2, layout.coord_of_tree[2]]
    for obj, name in ((filled, "u"), (filled, "template"), (filled, "_rounds"),
                      (filled.template, "slots")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())
    # the layout goes to pool workers with the templates it holds
    again = pickle.loads(pickle.dumps((layout, filled, root)))
    for template, first in ((again[0].cube_templates[1, None], filled),
                            (again[0].cube_templates[2, layout.coord_of_tree[2]], root)):
        assert (template.tree, template.rounds, template.slots) == (
            first.template.tree, first.template.rounds, first.template.slots)
    for copy, first in zip(again[1:], (filled, root)):
        assert tuple(copy) == tuple(first) and copy.u == first.u


def test_check_from_pieces_equals_whole_replay(g72, monkeypatch):
    # every generated schedule is accepted from its pieces, with the result
    # the whole replay of its calls gives, informed counts per round included
    params, g, layout, _ = g72
    schedules = [make_schedule(g, layout, params, u) for u in g.labels]
    assert all(verify._check_pieces(g, s) is not None for s in schedules)
    pieces = [check_schedule(g, s) for s in schedules]
    monkeypatch.setattr(verify, "_check_pieces", lambda g, s: None)
    assert pieces == [check_schedule(g, s) for s in schedules]


class _InlineProcess:
    """Stands in for multiprocessing.Process: counts the processes started
    and runs each target in-process as it starts."""

    started = 0

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        _InlineProcess.started += 1
        self.target(*self.args)

    def is_alive(self):
        return False

    def join(self):
        pass


class _InlineEnd:
    """Stands in for both ends of a one-way multiprocessing.Pipe: keeps what
    is sent until it is read."""

    def __init__(self):
        self.sent = []

    def send(self, obj):
        self.sent.append(obj)

    def recv(self):
        return self.sent.pop(0)

    def close(self):
        pass


def _inline_pipe(duplex=True):
    end = _InlineEnd()
    return end, end


@pytest.mark.parametrize("cpus, originators, want", [
    (64, None, 64), (2, None, 2), (None, None, None), (1, None, None),
    (64, [0, 3, 17], 3), (64, [5], None),
])
def test_certify_starts_no_more_workers_than_originators_or_cpus(
        g72, monkeypatch, cpus, originators, want):
    # the caller is one of the ``want`` workers, so it starts want - 1
    # processes
    params, g, layout, _ = g72
    labels = None if originators is None else [g.labels[i] for i in originators]
    serial = certify_graph(g, layout, params, originators=labels).to_json()
    monkeypatch.setattr(verify, "Process", _InlineProcess)
    monkeypatch.setattr(verify, "Pipe", _inline_pipe)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    _InlineProcess.started = 0
    report = certify_graph(g, layout, params, jobs=5000, originators=labels)
    assert _InlineProcess.started == (0 if want is None else want - 1)
    assert report.to_json() == serial


# a patch of the parent reaches a worker only when the worker is forked
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="the start method is not fork")


@needs_fork
@pytest.mark.parametrize("first", [96, 0], ids=["worker", "caller"])
def test_certify_raises_what_a_chunk_raised(g72, monkeypatch, first):
    # g72's 192 ids split into [0, 96), the caller's, and [96, 192); the
    # chunk that raises is the worker's or the caller's, and either way no
    # worker outlives the call
    params, g, layout, _ = g72
    certify = verify._certify_ids

    def refuse(g, layout, params, ids):
        if ids[0] == first:
            raise ValueError(f"chunk from {ids[0]} refused")
        return certify(g, layout, params, ids)

    monkeypatch.setattr(verify, "_certify_ids", refuse)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError) as exc:
        certify_graph(g, layout, params, jobs=2)
    assert type(exc.value) is ValueError and str(exc.value) == f"chunk from {first} refused"
    assert multiprocessing.active_children() == []


@needs_fork
def test_certify_names_a_worker_that_sent_nothing(g72, monkeypatch):
    # the worker of chunk [96, 192) exits before it sends a result
    params, g, layout, _ = g72
    certify = verify._certify_ids

    def vanish(g, layout, params, ids):
        if ids[0]:
            os._exit(3)
        return certify(g, layout, params, ids)

    monkeypatch.setattr(verify, "_certify_ids", vanish)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        certify_graph(g, layout, params, jobs=2)
    assert multiprocessing.active_children() == []


def test_recorded_verdict_is_tied_to_its_start_vertex(g72, monkeypatch):
    # tree 3's root-only fragment is recorded from its root; when the cube
    # phase informs another vertex of tree 3 instead, the template is
    # refused and the whole replay decides, from that vertex
    params, g, layout, _ = g72
    r1, r3 = vertex(g, layout, 1, 0), vertex(g, layout, 3, 0)
    s = make_schedule(g, layout, params, r1)
    assert certify_graph(g, layout, params, originators=[r1]).passed
    cube, overrides, table = s.pieces
    assert (3, layout.tree_rounds(3)) in table and 3 not in dict(overrides)
    a, b = g.vertex_id(r1), g.vertex_id(r3)
    x = max(v for v in row(g, a) if g.labels[v].tree == 3)
    assert (a, b) in cube[-1] and b not in {c for calls in cube for c, _ in calls}
    cube = [[(a, x) if call == (a, b) else call for call in calls] for calls in cube]
    bad = Schedule(g.labels, a, like_first(s.pieces[0], cube), overrides, table)
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
            Schedule(g.labels, s.origin, _stop_mid_round(s.pieces[0], s.origin), *s.pieces[1:]),
            # the same rounds as a new cube template, accepted from a
            # placeholder past g's ids
            Schedule(g.labels, s.origin,
                     like_first(s.pieces[0], _stop_mid_round(s.pieces[0], s.origin)),
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
    # an id that is no index: met by the whole replay it raises, as it
    # always has; after a violation the whole replay decides; either way
    # later verdicts are a fresh graph's
    s = legal[0]
    cube, overrides, table = s.pieces
    rounds = [list(calls) for calls in cube]
    rounds[-1][-1] = (rounds[-1][-1][0], "x")
    with pytest.raises(TypeError):
        check_schedule(g, Schedule(g.labels, s.origin, rounds, overrides, table))
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
    M, h = layout.tree_size, layout.h
    ids = layout.dense[M:2 * M]
    left = {0: list(range(h))}  # per informed mask, the bits of its children to call
    rounds = []
    while any(left.values()):
        calls = [(v, v | 1 << bits.pop(0)) for v, bits in sorted(left.items()) if bits]
        for _, c in calls:
            left[c] = list(range((c & -c).bit_length() - 1))
        rounds.append(tuple((ids[a], ids[b]) for a, b in calls))
    base = tuple(rounds)
    lo = ids[0]
    assert verify._tree_shape(base, lo, lo + M) == ()
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
    assert entry.fragment is base and entry.shape == ()
    res = check_schedule(g, shifted)
    assert res.ok and res.completion_round > params.t + 1


def test_last_rounds_are_where_the_shift_lemma_counts_end(g83, g73_shrunk):
    # L(u), the family path's last round of the ShiftedFragment of a table
    # fragment and u, is where _accepted's counts per round end: for every
    # vertex of every tree of two builds; of a tree on 0..4 in which 0 calls
    # 3 then 1, and 1's subtree is the deeper, so that for u = 3 the deepest
    # round in (p, u) = (0, 3) decides; and of a path 0-1-2-3, where u's
    # caller itself (u = 3) or u's subtree (u = 2) decides
    small = (((0, 3),), ((0, 1), (3, 4)), ((1, 2),))
    cases = [(small, 0, 5), ((((0, 1),), ((1, 2),), ((2, 3),)), 0, 4)]
    for _, g, layout, _ in (g83, g73_shrunk):
        spans = verify._record(g).spans
        cases += [(frag, *spans[tree]) for tree, frag in layout.plain_table]
    for frag, lo, hi in cases:
        last, entry = verify._last_rounds(frag, lo, hi), verify._Tree(frag, [])
        assert len(last) == hi - lo
        assert last[1:] == [len(verify._accepted(entry, ShiftedFragment(frag, u), u, (lo, hi)))
                            for u in range(lo + 1, hi)]
    assert verify._last_rounds(small, 0, 5)[3] == 2


def test_template_vouches_for_no_originator_it_names(g72):
    # a legal template of tree 2 that informs tree 2's root by a call: from
    # a placeholder the root is one more vertex informed, so the template is
    # accepted, the placeholder standing for another vertex of tree 2;
    # filled with that root, and tree 2's override shifted to it as well,
    # it would inform the root twice, and the shift lemma refuses the root
    # as the vertex informed besides it
    params, g, layout, _ = g72
    r1, r2, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 2, 3))
    template = CubeTemplate(2, [[], [(r3, r1)], [(r3, r2)]], [(1, r3, 0)])
    table = layout.plain_table
    s = Schedule(g.labels, r2, FilledTemplate(template, r2),
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
    assert tree == 1 and [c for _, c, _ in first.template.slots] == [r2, r1]
    assert verify._check_pieces(g, s) is not None
    v = next(v for v, label in enumerate(g.labels)
             if label.tree == 2 and not label.is_root and {r1, r2} <= set(row(g, v)))
    bad = Schedule(g.labels, v, FilledTemplate(first.template, v),
                   [(1, ShiftedFragment(frag.base, v))], table)
    assert verify._check_pieces(g, bad) is None and not check_schedule(g, bad).ok
    nowhere = CubeTemplate(0, first.template.rounds, first.template.slots)
    moved = Schedule(g.labels, s.origin, FilledTemplate(nowhere, s.origin), [(tree, frag)], table)
    assert verify._check_pieces(g, moved) is None and verify._record(g).templates[nowhere] is None
    assert check_schedule(g, moved) == check_schedule(g, s)


def test_template_standing_for_a_root_vouches_for_that_root_alone(g72):
    # a template of tree 3 that leaves tree 3's root uninformed, so its
    # placeholder stands for that root, which neighbours the slot callee.
    # Filled with u, another vertex of tree 3 that neighbours the slot
    # callee, it passes every check but "u is the root", and the whole
    # replay finds the root never informed
    params, g, layout, _ = g72
    r1, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 3))
    u = g.vertex_id(vertex(g, layout, 3, 5))
    template = CubeTemplate(3, [[], []], [(1, r1, 0)])
    bad = Schedule(g.labels, u, FilledTemplate(template, u), (), layout.plain_table)
    assert verify._check_pieces(g, bad) is None
    entry = verify._record(g).templates[template]
    assert entry.root == r3 and entry.overrides == {}
    assert r1 in row(g, u) and r1 in row(g, r3)
    assert check_schedule(g, bad).violation.reason == "caller-uninformed"


def test_root_template_is_refused_once_when_its_root_misses_a_slot_callee(g72, monkeypatch):
    # a template of tree 1 that leaves tree 1's root uninformed, so its
    # placeholder stands for that root, whose edges to the slot callees are
    # tested as the template is accepted: r1 does not neighbour r2, so the
    # template is refused, once, and the whole replay finds the missing edge
    params, g, layout, _ = g72
    r1, r2, r3 = (g.vertex_id(vertex(g, layout, tree, 0)) for tree in (1, 2, 3))
    assert r2 not in row(g, r1) and r3 in row(g, r2)
    template = CubeTemplate(1, [[], [(r2, r3)]], [(1, r2, 0)])
    s = Schedule(g.labels, r1, FilledTemplate(template, r1), (), layout.plain_table)
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
    assert first.template.rounds == ((), ((r2, r3),))
    assert [c for _, c, _ in first.template.slots] == [r2, r1]
    template = CubeTemplate(1, [[], [(r2, w)]], first.template.slots)
    bad = Schedule(g.labels, s.origin, FilledTemplate(template, s.origin),
                   [*overrides, (1, layout.tree_rounds(1, layout.w))], table)
    assert verify._check_pieces(g, bad) is None and verify._record(g).templates[template] is None
    assert not check_schedule(g, bad).ok


def _whole(g, s, monkeypatch):
    """check_schedule's result for s by the whole replay alone."""
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_check_pieces", lambda g, s: None)
        return check_schedule(g, s)


def test_a_slot_may_call_a_neighbour_off_the_cube(g73_shrunk, monkeypatch):
    # u, off the cube in tree 3, makes no call in the cube phase's last
    # round.  With an edge to v, a vertex off the cube of tree 4, a template
    # whose extra slot has u call v in that round is legal: it informs v
    # there, and tree 4 is overridden from v.  Every piecewise edge is tested
    # on the CSR, so the check accepts it from its pieces, with the whole
    # replay's counts
    params, g, layout, _ = g73_shrunk
    u, v = (g.vertex_id(vertex(g, layout, tree, 5)) for tree in (3, 4))
    s = make_schedule(g, layout, params, g.labels[u])
    first, overrides, table = s.pieces
    k = len(first)
    assert {r for r, _, _ in first.template.slots} == set(range(1, k))
    near = Graph.from_sorted(g.labels, sorted([*g.edge_ids(), (u, v)]), t=g.t, k=g.k)
    assert g.labels[v].cube is None and v not in row(g, u) and v in row(near, u)
    template = CubeTemplate(first.template.tree, first.template.rounds,
                            [*first.template.slots, (k, v, 0)])
    mine = Schedule(g.labels, u, FilledTemplate(template, u),
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
        template = s.pieces[0].template
        if extra:
            template = CubeTemplate(template.tree, [*template.rounds, extra], template.slots)
        mine = Schedule(g.labels, root, FilledTemplate(template, root),
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
