"""Differential and mutation fuzzing of check_schedule and certify_graph.

The oracle is a plain set replay of label calls, written here and sharing
nothing with the checker.  Each example builds an admissible instance with
t <= 9, generates the schedule of a random originator, applies one mutation
to its id calls, and asks the checker and the oracle for the verdict and the
completion round, on the id schedule over the graph's label tuple and on a
copy of its label calls over a label tuple of their own.  The
factored certifier is asked too, with the mutation placed in one piece of
the schedule: a cube-phase call, the originator's own tree fragment (an
override), or a copy of a plain (root-only) fragment in a new table.  Two
mutations act on pieces only: "leave" sends a call across a piece
boundary, and "twin" lists a plain fragment twice in a table, in place of
another tree's.  The originator's own override, a ShiftedFragment, is
mutated as a descriptor too (its u, its base, its tree): the shift lemma
must vouch for no illegal mutant, and an equal base not met before
(another build's, or a copy) goes to the whole replay.  The table is mutated
as a whole (another build's, a tree missing or twice, a tree moved to the
overrides), and so is what the cube phase informs of it (a non-root vertex
of a table tree, a table root left out).  Every originator's cube phase,
on the cube or off it, is a cube template filled with the originator: its
mutated rounds are placed in a new template, and the template is mutated
as such too (a slot callee that is not u's neighbour, two slots in a round,
a call before its caller is informed, a slot placed outside its round) or
filled with another vertex (of u's tree, of another tree, on the cube, of a
root's tree), and so are the overrides it asks for (w's dropped, one listed
twice in place of another).  Every verdict must be the set replay's.
The originators off the cube are certified by tree, as families, and a
family is mutated too (a member of another tree, a member that is no
vertex, one the template names, one listed twice, one that does not
neighbour a slot callee, another tree's template, another build's
fragment): every member the family path cannot vouch for is refused and
certified one by one, and the report is the one the whole replay gives.
Trees whose fragments are equal in local ids share one shape record, so
one such tree's fragment is mutated in a new table (an empty first round,
its children called smallest subtree first, a call moved onto a non-edge):
the tree gets a shape of its own or none, each family round accepted is
the whole replay's, and a table with a non-edge is refused.
"""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import (instances, label_rounds, label_schedule, like_first, neighbours, row,
                      smallest_first, vertex)

from broadcastnet import (
    Schedule,
    build,
    certify_graph,
    check_schedule,
    make_params,
    make_schedule,
    verify,
)
from broadcastnet.graph import Graph
from broadcastnet.scheme import families
from broadcastnet.schedule import CubeTemplate, FilledTemplate, ShiftedFragment


def oracle(g, originator, rounds):
    """(ok, completion round) of a label schedule, by set replay."""
    informed = {originator} if originator in g else set()
    completion = 0 if g.n == 1 else None
    for rnd, calls in enumerate(rounds, start=1):
        ends = [v for call in calls for v in call]
        if not informed or len(set(ends)) != len(ends):
            return False, None
        for a, b in calls:
            if a not in informed or b in informed or b not in g or b not in neighbours(g, a):
                return False, None
        informed.update(b for _, b in calls)
        if completion is None and len(informed) == g.n:
            completion = rnd
    return (True, completion) if informed and len(informed) == g.n else (False, None)


@lru_cache(maxsize=8)
def _instance(t, k, n):
    params = make_params(t, k, n)
    g, layout, _ = build(params)
    return params, g, layout


def _mutate(kind, rounds, g, rng):
    """Apply one mutation of the given kind to a copy of the id rounds.

    Where it can, a mutation breaks one rule only, so that no other check
    covers for the one it aims at."""
    rounds = [list(calls) for calls in rounds]
    spots = [(r, i) for r, calls in enumerate(rounds) for i in range(len(calls))]
    r, i = rng.choice(spots)
    a, b = rounds[r][i]
    if kind == "drop":
        del rounds[r][i]
    elif kind == "duplicate-callee":
        # another call now calls b too: by a neighbour of b, best one whose
        # own callee, now never called, would make no call either
        callers = {x for calls in rounds for x, _ in calls}
        others = [s for s in spots if s != (r, i)]
        near = [s for s in others if b in row(g, rounds[s[0]][s[1]][0])]
        quiet = [s for s in near if rounds[s[0]][s[1]][1] not in callers]
        r2, i2 = rng.choice(quiet or near or others)
        rounds[r2][i2] = (rounds[r2][i2][0], b)
    elif kind == "move":
        del rounds[r][i]
        r2 = r + rng.choice([-1, 1]) if r > 0 else r + 1
        if r2 == len(rounds):
            rounds.append([])
        rounds[r2].append((a, b))
    elif kind == "swap":
        rounds[r][i] = (b, a)
    elif kind == "retarget":
        # trade callees with a call of the same round whose callee a does not neighbour
        far = [j for j in range(len(rounds[r])) if rounds[r][j][1] not in row(g, a)]
        if far:
            j = rng.choice(far)
            x, c = rounds[r][j]
            rounds[r][i], rounds[r][j] = (a, c), (x, b)
        else:
            strangers = [c for c in range(g.n) if c != a and c not in row(g, a)]
            rounds[r][i] = (a, rng.choice(strangers))
    elif kind == "two-calls":
        # a also makes, in this round, a call of this or a later round to
        # one of its neighbours
        near = [s for s in spots if s[0] >= r and s != (r, i)
                and rounds[s[0]][s[1]][1] in row(g, a)]
        if near:
            r2, i2 = rng.choice(near)
            c = rounds[r2].pop(i2)[1]
        else:
            c = rng.choice(sorted(set(row(g, a)) - {b}) or [b])
        rounds[r].append((a, c))
    return rounds


MUTATIONS = ("none", "drop", "duplicate-callee", "move", "swap", "retarget", "two-calls")


def _one_by_one(layout, params, ids):
    """scheme.families with no family: every originator is certified from
    the schedule make_schedule gives it."""
    return [], list(ids)


def _verdict(res):
    return res.ok, res.completion_round if res.ok else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 1 << 30), st.sampled_from(MUTATIONS),
       st.randoms(use_true_random=False))
def test_checker_agrees_with_set_replay(tkn, pick, kind, rng):
    params, g, layout = _instance(*tkn)
    u = g.labels[pick % g.n]
    generated = make_schedule(g, layout, params, u)
    origin, id_rounds = generated.ids_in(g)
    rounds = id_rounds if kind == "none" else _mutate(kind, id_rounds, g, rng)
    id_backed = Schedule(g.labels, origin, rounds)
    calls = label_rounds(id_backed)
    label_copy = label_schedule(u, calls)
    want = oracle(g, u, calls)
    assert _verdict(check_schedule(g, id_backed)) == want
    assert _verdict(check_schedule(g, label_copy)) == want
    if kind == "none":
        assert want == (True, params.t + 1)


PLACES = ("cube", "own", "plain", "twin")
PIECE_MUTATIONS = MUTATIONS + ("leave",)


def _leave(rounds, later, g, rng, same_tree):
    """A call whose callee calls no one in this piece now goes to a neighbour
    of its caller that another piece calls in the same round or later, so
    the piece stays legal on its own but no longer fits the others.  ``later``
    maps each vertex another piece calls to its round, counted in this
    piece's rounds.  The new callee lies, where it can, in the old callee's
    tree (same_tree) or in another tree (not same_tree)."""
    rounds = [list(calls) for calls in rounds]
    callers = {a for calls in rounds for a, _ in calls}
    spots = [(r, i, c) for r, calls in enumerate(rounds) for i, (a, b) in enumerate(calls)
             if b not in callers for c in sorted(row(g, a)) if later.get(c, -1) >= r]
    aimed = [(r, i, c) for r, i, c in spots
             if (g.labels[c].tree == g.labels[rounds[r][i][1]].tree) == same_tree]
    if spots:
        r, i, c = rng.choice(aimed or spots)
        rounds[r][i] = (rounds[r][i][0], c)
    return rounds


def _pieces_with(place, kind, generated, u, g, layout, rng):
    """The generated schedule's pieces with one mutation: in the cube rounds
    (placed in a new cube template), in u's own
    fragment (as an override of u's tree) or in a copy of a plain
    (root-only) fragment in a new table, or, for "twin", a new table in
    which a plain fragment is listed a second time in place of another
    tree's fragment of as many vertices."""
    cube, overrides, table = generated.pieces
    overrides, named = list(overrides), dict(overrides)
    plain = [i for i, (tree, _) in enumerate(table) if tree != u.tree and tree not in named]
    if place == "twin":
        i = rng.choice(plain)
        size = Counter(v.tree for v in g.labels)
        others = [j for j in range(len(table)) if j != i]
        same = [j for j in others if size[table[j][0]] == size[table[i][0]]]
        table = list(table)
        table[rng.choice(same or others)] = table[i]
        return cube, overrides, tuple(table)
    if place == "cube":
        piece = cube
    elif place == "own":
        tree = u.tree
        piece = named[tree] if tree in named else dict(table)[tree]
    else:
        i = rng.choice(plain)
        tree, piece = table[i]
    # every piece of the schedule with the round before its first
    pieces = ([(0, cube)] + [(len(cube), frag) for _, frag in overrides]
              + [(len(cube), frag) for t, frag in table if t not in named])
    at = next(j for j, (_, rounds) in enumerate(pieces) if rounds is piece)
    start = pieces[at][0]
    piece = tuple(tuple(calls) for calls in piece)  # a new object, never verified before
    if kind == "leave":
        later = {b: start0 + r - start for j, (start0, rounds) in enumerate(pieces) if j != at
                 for r, calls in enumerate(rounds) for _, b in calls}
        # in the cube, another vertex of a root's tree takes the root's call;
        # in a fragment, a vertex of another tree takes a call
        piece = tuple(map(tuple, _leave(piece, later, g, rng, same_tree=at == 0)))
    elif kind != "none":
        piece = tuple(map(tuple, _mutate(kind, piece, g, rng)))
    if place == "cube":
        return like_first(cube, piece), overrides, table
    if place == "own":
        overrides = [(t, frag) for t, frag in overrides if t != tree] + [(tree, piece)]
        return cube, overrides, table
    table = list(table)
    table[i] = (tree, piece)
    return cube, overrides, tuple(table)


@pytest.mark.parametrize("place, kind", [(place, kind) for place in PLACES[:3]
                                         for kind in PIECE_MUTATIONS] + [("twin", None)])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 1 << 30), st.randoms(use_true_random=False))
def test_factored_certifier_agrees_with_set_replay(place, kind, tkn, pick, rng):
    params, g, layout = _instance(*tkn)
    u = g.labels[pick % g.n]
    generated = make_schedule(g, layout, params, u)
    s = Schedule(g.labels, generated.origin, *_pieces_with(place, kind, generated, u, g,
                                                          layout, rng))
    want = oracle(g, u, label_rounds(s))
    # the unmutated schedule first, so the mutated one meets recorded verdicts
    assert certify_graph(g, layout, params, originators=[u]).passed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "make_schedule", lambda *args: s)
        mp.setattr(verify, "families", _one_by_one)
        report = certify_graph(g, layout, params, originators=[u])
    [(_, rnd)] = report.per_originator or [(None, None)]
    assert (bool(report.per_originator), rnd) == want
    if kind == "none":
        # an own fragment copied into a tuple is no ShiftedFragment, which
        # the shift lemma alone vouches for: the whole replay decides it
        assert (verify._check_pieces(g, s) is not None) == (place != "own")
    if not want[0]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_check_pieces", lambda g, s: None)
            whole = check_schedule(g, s)
        assert report.failures == [{"id": g.vertex_id(u),
                                    "violation": whole.violation.to_json_obj()}]


DESCRIPTOR_MUTATIONS = ("none", "wrong-u", "root-u", "foreign-u", "other-tree-base",
                        "other-graph-base", "unaccepted-base", "w-elsewhere", "twice")


def _descriptor_with(kind, overrides, own, table, g, layout, rng):
    """The overrides with the ShiftedFragment at index ``own`` (the
    originator's tree) mutated: its u replaced by another vertex of its tree,
    by the tree's root or by a vertex of another tree; its base replaced by
    another tree's fragment, by an equal fragment of another build of the
    graph or by an equal copy not met before; the descriptor of w placed on
    another tree; or the descriptor listed a second time, so that its tree
    is overridden twice."""
    overrides = list(overrides)
    tree, frag = overrides[own]
    others = [t for t, _ in table if t != tree]
    members = [i for i, label in enumerate(g.labels) if label.tree == tree]
    strangers = [i for i, label in enumerate(g.labels)
                 if label.tree != tree and not label.is_root]
    if kind == "wrong-u":
        frag = ShiftedFragment(frag.base, rng.choice([i for i in members[1:] if i != frag.u]))
    elif kind == "root-u":
        frag = ShiftedFragment(frag.base, members[0])
    elif kind == "foreign-u":
        frag = ShiftedFragment(frag.base, rng.choice(strangers))
    elif kind == "other-tree-base":
        frag = ShiftedFragment(layout.tree_rounds(rng.choice(others)), frag.u)
    elif kind == "other-graph-base":
        _, again, _ = build(make_params(g.t, g.k, g.n))
        frag = ShiftedFragment(again.tree_rounds(tree), frag.u)
        assert frag.base == layout.tree_rounds(tree) and frag.base is not layout.tree_rounds(tree)
    elif kind == "unaccepted-base":
        frag = ShiftedFragment(tuple(map(tuple, frag.base)), frag.u)
    elif kind == "w-elsewhere":
        other = rng.choice(others) if tree == 1 else tree
        overrides[own] = (other, layout.tree_rounds(other, layout.w))
        return overrides
    elif kind == "twice":
        return overrides + [overrides[own]]
    overrides[own] = (tree, frag)
    return overrides


@pytest.mark.parametrize("kind", DESCRIPTOR_MUTATIONS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 1 << 30), st.randoms(use_true_random=False))
def test_shift_lemma_vouches_only_for_its_own_descriptor(kind, tkn, pick, rng):
    params, g, layout = _instance(*tkn)
    assume(kind != "w-elsewhere" or layout.w_alive)
    off_cube = [u for u in g.labels if u.cube is None]
    u = off_cube[pick % len(off_cube)]
    generated = make_schedule(g, layout, params, u)
    cube, overrides, table = generated.pieces
    [own] = [i for i, (_, frag) in enumerate(overrides) if isinstance(frag, ShiftedFragment)]
    s = Schedule(g.labels, generated.origin, cube,
                 _descriptor_with(kind, overrides, own, table, g, layout, rng), table)
    want = oracle(g, u, label_rounds(s))
    assert certify_graph(g, layout, params, originators=[u]).passed
    accepted, vouched = verify._accepted, []

    def recording(entry, frag, v, span):
        added = accepted(entry, frag, v, span)
        if added is not None and isinstance(frag, ShiftedFragment):
            vouched.append(frag)
        return added

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "make_schedule", lambda *args: s)
        mp.setattr(verify, "families", _one_by_one)
        mp.setattr(verify, "_accepted", recording)
        report = certify_graph(g, layout, params, originators=[u])
    [(_, rnd)] = report.per_originator or [(None, None)]
    assert (bool(report.per_originator), rnd) == want
    mutated = [frag for _, frag in s.pieces[1] if isinstance(frag, ShiftedFragment)]
    if kind in ("none", "other-graph-base", "unaccepted-base"):
        # legal; a descriptor on the table's own fragment is vouched for, and
        # one on an equal base not met before goes to the whole replay
        assert want == (True, params.t + 1)
        assert (verify._check_pieces(g, s) is not None) == (kind == "none")
        assert vouched == (mutated if kind == "none" else [])
        tree = s.pieces[1][own][0]
        assert verify._record(g).accepted.trees[tree].fragment is layout.tree_rounds(tree)
    else:
        # the lemma vouches for no illegal descriptor, and the schedule goes
        # to the whole replay
        assert not want[0] and verify._check_pieces(g, s) is None
        assert vouched == []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_check_pieces", lambda g, s: None)
            whole = check_schedule(g, s)
        assert report.failures == [{"id": g.vertex_id(u),
                                    "violation": whole.violation.to_json_obj()}]


TABLE_MUTATIONS = ("none", "other-build", "missing", "twice", "foreign-override", "non-root",
                   "uninformed-root")


def _table_with(kind, generated, g, layout, rng):
    """The generated schedule's pieces with its table, or what the cube
    phase informs of it, mutated: the equal table of another build; a table
    with a tree left out that no override names; a table listing a tree a
    second time; a tree moved from the table to the overrides (its own
    fragment, or its override alone); an override dropped, so that the cube
    phase informs a non-root vertex (u, or w) of a tree left to the table,
    or, with no override, a cube call to a table root sent to a non-root
    neighbour of its caller in a table tree; or a cube call to a table root
    that calls no one later in the cube dropped, which leaves that root
    uninformed.  Mutated cube rounds are placed in a new cube template."""
    cube, overrides, table = generated.pieces
    named = dict(overrides)
    free = [i for i, (tree, _) in enumerate(table) if tree not in named]
    if kind == "none":
        return cube, overrides, table
    if kind == "other-build":
        _, again, _ = build(make_params(g.t, g.k, g.n))
        assert again.plain_table == table and again.plain_table is not table
        return cube, overrides, again.plain_table
    if kind in ("missing", "twice", "foreign-override"):
        table = list(table)
        if kind == "missing":
            del table[rng.choice(free)]
        elif kind == "twice":
            table.insert(rng.randrange(len(table) + 1), rng.choice(table))
        else:
            tree, frag = table.pop(rng.randrange(len(table)))
            overrides += ((tree, frag),) * (tree not in named)
        return cube, overrides, tuple(table)
    if kind == "non-root" and overrides:
        overrides = list(overrides)
        del overrides[rng.randrange(len(overrides))]
        return cube, overrides, table
    roots = {g.vertex_id(vertex(g, layout, table[i][0], 0)) for i in free}
    rounds = [list(calls) for calls in cube]
    spots = [(r, i) for r, calls in enumerate(rounds) for i, (_, b) in enumerate(calls)
             if b in roots]
    if kind == "non-root":
        members = {v for v, label in enumerate(g.labels) if not label.is_root
                   and label.tree in {table[i][0] for i in free}}
        aimed = [(r, i, c) for r, i in spots for c in row(g, rounds[r][i][0]) if c in members]
        r, i, c = rng.choice(aimed)
        rounds[r][i] = (rounds[r][i][0], c)
    else:
        callers = {a for calls in rounds for a, _ in calls}
        quiet = [(r, i) for r, i in spots if rounds[r][i][1] not in callers]
        r, i = rng.choice(quiet or spots)
        del rounds[r][i]
    return like_first(cube, tuple(map(tuple, rounds))), overrides, table


@pytest.mark.parametrize("kind", TABLE_MUTATIONS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 1 << 30), st.randoms(use_true_random=False))
def test_table_is_used_only_where_each_tree_starts_from_its_root(kind, tkn, pick, rng):
    params, g, layout = _instance(*tkn)
    u = g.labels[pick % g.n]
    generated = make_schedule(g, layout, params, u)
    s = Schedule(g.labels, generated.origin, *_table_with(kind, generated, g, layout, rng))
    want = oracle(g, u, label_rounds(s))
    assert certify_graph(g, layout, params, originators=[u]).passed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "make_schedule", lambda *args: s)
        mp.setattr(verify, "families", _one_by_one)
        report = certify_graph(g, layout, params, originators=[u])
    [(_, rnd)] = report.per_originator or [(None, None)]
    assert (bool(report.per_originator), rnd) == want
    if kind in ("none", "other-build"):
        # an equal table object not met before is accepted in its turn; the
        # overrides are shifted from the layout's own fragments, so the lemma
        # vouches for them on the layout's table alone, and with another
        # build's the whole replay decides
        assert want == (True, params.t + 1)
        pieces = verify._check_pieces(g, s)
        assert verify._record(g).accepted.table is s.pieces[2]
        assert (pieces is not None) == (kind == "none" or not s.pieces[1])
    elif kind == "foreign-override":
        # the same calls: legal, but only the whole replay may say so
        assert want == (True, params.t + 1) and verify._check_pieces(g, s) is None
    else:
        assert not want[0] and verify._check_pieces(g, s) is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_check_pieces", lambda g, s: None)
            whole = check_schedule(g, s)
        assert report.failures == [{"id": g.vertex_id(u),
                                    "violation": whole.violation.to_json_obj()}]


TEMPLATE_MUTATIONS = ("none", "slot-stranger", "two-slots", "other-filling", "other-tree",
                      "cube-u", "caller-uninformed", "root-filling", "w-dropped",
                      "override-twice", "slot-place")


def _originators(kind, g, layout, params):
    """The originators a template mutation applies to: the roots (their
    templates stand for the root), the roots whose schedule overrides tree 1
    from w, the off-cube originators of a tree but tree 1 when w survives
    (their templates leave w to its tree), or every vertex."""
    if kind == "root-filling":
        return [u for u in g.labels if u.is_root]
    if kind == "w-dropped":
        return [u for u in g.labels if u.is_root and make_schedule(g, layout, params, u).pieces[1]]
    if kind == "override-twice":
        return [u for u in g.labels if u.cube is None and u.tree != 1] if layout.w_alive else []
    return list(g.labels)


def _fit(rounds, slots):
    """``slots`` with each place moved into its round of ``rounds`` (the
    calls but the originator's, and the slots before it in that round)."""
    taken = Counter()
    fitted = []
    for r, c, i in slots:
        fitted.append((r, c, min(i, len(rounds[r - 1]) + taken[r])))
        taken[r] += 1
    return fitted


def _template_with(kind, generated, g, layout, rng):
    """The first rounds, originator and overrides of the generated schedule
    with its cube template, its filling or its overrides mutated:
    - slot-stranger: a slot callee traded with the callee of another call of
      its round that u does not neighbour (the template stays legal from a
      placeholder, but u has no such edge: when the placeholder stands for
      u, a root, the template is refused as it is accepted), or, with no
      such call, sent to a root u does not neighbour, which the template
      calls already;
    - two-slots: a slot moved into the round of an earlier slot, so u calls
      twice in it;
    - other-filling: the template filled with another vertex of u's tree,
      the schedule still started from u;
    - other-tree: the template filled with, and the schedule started from,
      a vertex of another tree whose own template differs;
    - cube-u: the same with another cube vertex, a root or w;
    - caller-uninformed: a call of the template moved into the round its
      caller is informed in;
    - root-filling: a root's template filled with, and the schedule started
      from, another vertex of the root's tree;
    - w-dropped: a root's override of tree 1 from w dropped;
    - override-twice: a call to w added, in a round of its own, to the
      template of an originator of another tree, which then overrides two
      trees, and one of its two overrides listed twice in place of the
      other;
    - slot-place: a slot's place moved outside its round.
    Returns (first rounds, originator, overrides, whether the template
    should be accepted from its placeholder)."""
    first, overrides = generated.pieces[0], generated.pieces[1]
    template, u = first.template, first.u
    rounds = [list(calls) for calls in template.rounds]
    slots = list(template.slots)
    if kind == "none":
        return like_first(first, first.rounds), u, overrides, True
    if kind == "slot-stranger":
        near = set(row(g, u))
        trades = [(j, r, i) for j, (r, c, _) in enumerate(slots)
                  for i, (a, b) in enumerate(rounds[r - 1])
                  if b not in near and c in row(g, a)]
        if trades:
            j, r, i = rng.choice(trades)
            a, b = rounds[r - 1][i]
            rounds[r - 1][i], slots[j] = (a, slots[j][1]), (r, b, slots[j][2])
        else:  # a root the cube phase calls already
            j = rng.randrange(len(slots))
            r, _, i = slots[j]
            roots = [v for v, label in enumerate(g.labels)
                     if v not in near and v != u and label.is_root]
            assume(roots)
            slots[j] = (r, rng.choice(roots), i)
        return (FilledTemplate(CubeTemplate(template.tree, rounds, slots), u), u, overrides,
                bool(trades) and not g.labels[u].is_root)
    if kind == "two-slots":  # u calls in two rounds or more, as n > 2^t
        j = rng.randrange(1, len(slots))
        slots[j] = (slots[rng.randrange(j)][0], slots[j][1], 0)
        return FilledTemplate(CubeTemplate(template.tree, rounds, slots), u), u, overrides, False
    if kind == "other-filling":
        v = rng.choice([v for v, label in enumerate(g.labels) if v != u and label.cube is None
                        and label.tree == template.tree])
        return FilledTemplate(template, v), u, overrides, True
    if kind == "other-tree":
        params = make_params(g.t, g.k, g.n)
        first_of = {}  # per tree, its first off-cube vertex
        for v, label in enumerate(g.labels):
            if label.cube is None:
                first_of.setdefault(label.tree, v)
        differ = set()
        for tree, v in first_of.items():
            theirs = make_schedule(g, layout, params, g.labels[v]).pieces[0].template
            if tree != template.tree and (theirs.rounds, theirs.slots) != (template.rounds,
                                                                          template.slots):
                differ.add(tree)
        v = rng.choice([v for v, label in enumerate(g.labels)
                        if label.cube is None and label.tree in differ])
        return FilledTemplate(template, v), v, overrides, True
    if kind == "cube-u":
        cube = [v for v, label in enumerate(g.labels) if label.cube is not None and v != u]
        v = rng.choice(cube)
        return FilledTemplate(template, v), v, overrides, True
    if kind == "caller-uninformed":  # a call of the template, into its caller's informing round
        informed = {c: r for r, c, _ in slots}
        informed.update((b, r) for r, calls in enumerate(rounds, 1) for _, b in calls)
        r, i = rng.choice([(r, i) for r, calls in enumerate(rounds, 1)
                           for i in range(len(calls))])
        call = rounds[r - 1].pop(i)
        rounds[informed[call[0]] - 1].append(call)
        return (FilledTemplate(CubeTemplate(template.tree, rounds, _fit(rounds, slots)), u), u,
                overrides, False)
    if kind == "root-filling":
        v = rng.choice([v for v, label in enumerate(g.labels) if v != u
                        and label.tree == template.tree])
        return FilledTemplate(template, v), v, overrides, True
    if kind == "w-dropped":
        return first, u, (), True
    if kind == "override-twice":  # an informed neighbour of w calls it, in a round of its own
        w = layout.dense[layout.w]
        informed = {c for _, c, _ in slots} | {b for calls in rounds for _, b in calls}
        rounds.append([(rng.choice([a for a in row(g, w) if a in informed]), w)])
        both = (*overrides, (1, layout.tree_rounds(1, layout.w)))
        return (FilledTemplate(CubeTemplate(template.tree, rounds, slots), u), u,
                (rng.choice(both),) * 2, True)
    # slot-place: a slot's place before the first call of its round, or
    # past the last
    j = rng.randrange(len(slots))
    r, c, _ = slots[j]
    slots[j] = (r, c, rng.choice([-1, len(rounds[r - 1]) + len(slots)]))
    return FilledTemplate(CubeTemplate(template.tree, rounds, slots), u), u, overrides, False


@pytest.mark.parametrize("kind", TEMPLATE_MUTATIONS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 1 << 30), st.randoms(use_true_random=False))
def test_template_vouches_only_for_the_originator_it_was_made_for(kind, tkn, pick, rng):
    params, g, layout = _instance(*tkn)
    candidates = _originators(kind, g, layout, params)
    assume(candidates)
    u = candidates[pick % len(candidates)]
    generated = make_schedule(g, layout, params, u)
    assert certify_graph(g, layout, params, originators=[u]).passed
    first, origin, overrides, legal_template = _template_with(kind, generated, g, layout, rng)
    s = Schedule(g.labels, origin, first, overrides, generated.pieces[2])
    want = oracle(g, g.labels[origin], label_rounds(s))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "make_schedule", lambda *args: s)
        mp.setattr(verify, "families", _one_by_one)
        report = certify_graph(g, layout, params, originators=[u])
    accepted = verify._record(g).templates[first.template]
    assert (accepted is not None) == legal_template
    if kind == "none":
        # a new template object: accepted in its turn, and it vouches for u
        assert report.per_originator == [(origin, params.t + 1)] and want == (True, params.t + 1)
        assert verify._check_pieces(g, s) is not None
        return
    # every mutant is refused piecewise and reported as the whole replay
    # finds it: illegal, but for a slot placed outside its round, whose
    # filled rounds hold the generated calls, in another order
    assert verify._check_pieces(g, s) is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_check_pieces", lambda g, s: None)
        whole = check_schedule(g, s)
    assert _verdict(whole) == want
    if kind == "override-twice":
        # with its two overrides, each once, the schedule is accepted piecewise
        both = Schedule(g.labels, origin, first, (*generated.pieces[1], (1, layout.tree_rounds(
            1, layout.w))), generated.pieces[2])
        sizes = verify._check_pieces(g, both)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_check_pieces", lambda g, s: None)
            assert sizes is not None and sizes == check_schedule(g, both).informed_per_round
    if kind == "slot-place":
        assert want == (True, params.t + 1)
        assert report.per_originator == [(g.vertex_id(u), params.t + 1)]
        return
    assert not want[0] and not report.passed
    assert report.failures == [{"id": g.vertex_id(u), "violation": whole.violation.to_json_obj()}]


FAMILY_MUTATIONS = ("none", "outside", "no-vertex", "template-id", "repeated", "stranger",
                    "other-template", "other-graph")


def _family_with(kind, g, layout, params, rng):
    """A sample of one tree's off-cube originators, certified as one family
    with one mutation, as (graph, originators, families, the members the
    family path must refuse):
    - outside: a vertex of another tree off the cube added to the family;
    - no-vertex: an id of no vertex added: the id the layout has for a
      pruned mask, -1, or the first past g's;
    - template-id: an id the template names added, also certified;
    - repeated: a member listed twice;
    - stranger: the edge from a member that is no root's child to a slot
      callee of its template dropped from the graph;
    - other-template: the family tied to another tree's template;
    - other-graph: the family's fragment replaced by an equal one of
      another build of the graph."""
    off_cube = [v for v, label in enumerate(g.labels) if label.cube is None]
    tree = g.labels[rng.choice(off_cube)].tree
    mine = [v for v in off_cube if g.labels[v].tree == tree]
    ids = rng.sample(mine, min(len(mine), 12))
    [family], rest = families(layout, params, ids)
    members = list(family.members)
    if kind == "none":
        return g, ids, [family], []
    if kind == "outside":
        v = rng.choice([v for v in off_cube if g.labels[v].tree != tree])
        return g, ids + [v], [family._replace(members=members + [v])], [v]
    if kind == "no-vertex":
        v = rng.choice([-1, g.n])
        return g, ids, [family._replace(members=members + [v])], [v]
    if kind == "template-id":
        template = family.template
        named = {x for calls in template.rounds for call in calls for x in call}
        v = rng.choice(sorted(named.union(c for _, c, _ in template.slots)))
        return g, ids + [v], [family._replace(members=members + [v])], [v]
    if kind == "repeated":
        v = rng.choice(members)
        return g, ids, [family._replace(members=members + [v])], [v, v]
    if kind == "stranger":  # an attachment edge, which no tree fragment uses
        u = rng.choice([v for v in members if g.labels[v].pos.count("1") > 1])
        c = rng.choice([c for _, c, _ in family.template.slots])
        edges = [e for e in g.edge_ids() if e != (min(u, c), max(u, c))]
        return Graph.from_sorted(g.labels, edges, t=g.t, k=g.k), ids, None, [u]
    if kind == "other-template":
        v = rng.choice([v for v in off_cube if g.labels[v].tree != tree])
        [other], _ = families(layout, params, [v])
        return g, ids, [family._replace(template=other.template)], members
    _, again, _ = build(params)
    base = again.tree_rounds(tree)
    assert base == family.base and base is not family.base
    return g, ids, [family._replace(base=base)], members


@pytest.mark.parametrize("kind", FAMILY_MUTATIONS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(instances(), st.randoms(use_true_random=False))
def test_family_path_vouches_only_for_its_own_members(kind, tkn, rng):
    params, g, layout = _instance(*tkn)
    g, ids, mutated, must = _family_with(kind, g, layout, params, rng)
    labels = [g.labels[v] for v in ids]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "families", _one_by_one)
        mp.setattr(verify, "_check_pieces", lambda g, s: None)
        plain = certify_graph(g, layout, params, originators=labels)
    certify_family, refused = verify._certify_family, []

    def recording(g, family, rounds):
        out = certify_family(g, family, rounds)
        refused.extend(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        if mutated is not None:  # the mutated families, and the originators on the cube
            mp.setattr(verify, "families", lambda layout, params, ids: (
                mutated, [v for v in ids if g.labels[v].cube is not None]))
        mp.setattr(verify, "_certify_family", recording)
        report = certify_graph(g, layout, params, originators=labels)
    assert sorted(refused) == sorted(must)
    assert report.to_json() == plain.to_json()
    assert report.passed == (kind != "stranger")


SHAPE_MUTATIONS = ("delayed", "smallest-first", "non-edge")


def _table_of_shapes(kind, g, layout, rng):
    """The layout's table with the fragment of one tree X, whose _Shape some
    other trees share, replaced, as (X, those other trees, table, the call
    moved or None):
    - delayed: the fragment with an empty round put first, legal and of
      another local shape;
    - smallest-first: every vertex of X calls its children smallest subtree
      first, legal but with no _Shape;
    - non-edge: one call (a, b) moved to (a, c), c a vertex of X that a does
      not neighbour and the fragment informs in that round or later."""
    table, spans = layout.plain_table, verify._record(g).spans
    trees = verify._accept_table(g, verify._record(g), table).trees
    shared = [tree for tree, entry in trees.items()
              if sum(other.shape is entry.shape for other in trees.values()) > 1]
    # pruned trees may share a shape too; the other mutations need a full tree
    full = [tree for tree in shared if spans[tree][1] - spans[tree][0] == layout.tree_size]
    assume(shared if kind == "delayed" else full)
    x = rng.choice(shared if kind == "delayed" else full)
    group = [tree for tree in shared if tree != x and trees[tree].shape is trees[x].shape]
    frag, moved = trees[x].fragment, None
    if kind == "delayed":
        frag = ((),) + frag
    elif kind == "smallest-first":
        frag = smallest_first(layout, x)
    else:
        lo, hi = spans[x]
        when = {b: r for r, calls in enumerate(frag, 1) for _, b in calls}
        spots = [(r, i) for r, calls in enumerate(frag, 1) for i in range(len(calls))]
        for r, i in rng.sample(spots, len(spots)):
            a = frag[r - 1][i][0]
            far = [c for c in range(lo + 1, hi) if when[c] >= r and c not in row(g, a)]
            if far:
                moved = a, rng.choice(far)
                break
        assert moved is not None
        rounds = [list(calls) for calls in frag]
        rounds[r - 1][i] = moved
        frag = tuple(map(tuple, rounds))
    return x, group, tuple((tree, frag if tree == x else f) for tree, f in table), moved


@pytest.mark.parametrize("kind", SHAPE_MUTATIONS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(instances(), st.randoms(use_true_random=False))
def test_a_shape_is_shared_only_by_fragments_equal_in_local_ids(kind, tkn, rng):
    params, g, layout = _instance(*tkn)
    x, group, table, moved = _table_of_shapes(kind, g, layout, rng)
    off_cube = [v for v, label in enumerate(g.labels) if label.cube is None]
    ids = rng.sample(off_cube, min(len(off_cube), 24))
    ids.append(rng.choice([v for v in off_cube if g.labels[v].tree != x]))
    fams, _ = families(layout, params, ids)
    fams = [family._replace(table=table, base=dict(table)[family.template.tree])
            for family in fams]
    rounds, refused = {}, []
    for family in fams:
        refused += verify._certify_family(g, family, rounds)

    def whole(family, u):
        """The whole replay of member u's schedule."""
        s = Schedule(g.labels, u, FilledTemplate(family.template, u),
                     [(family.template.tree, ShiftedFragment(family.base, u))], table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_check_pieces", lambda g, s: None)
            return check_schedule(g, s)

    if kind == "non-edge":
        # the table is refused, so is every member, and the whole replay
        # finds the missing edge
        assert verify._accept_table(g, verify._record(g), table) is None
        assert rounds == {} and sorted(refused) == sorted(
            u for family in fams for u in family.members)
        family = next(family for family in fams if family.template.tree != x)
        violation = whole(family, family.members[0]).violation
        assert (violation.reason, violation.caller, violation.callee) == ("no-edge", *moved)
        return
    # X has a _Shape of its own, or none; the trees that shared X's still
    # share theirs
    trees = verify._record(g).accepted.trees
    assert trees[x].fragment is dict(table)[x]
    assert (trees[x].shape is None) == (kind == "smallest-first")
    assert all(trees[x].shape is not entry.shape for tree, entry in trees.items() if tree != x)
    assert len({id(trees[tree].shape) for tree in group}) == 1
    assert trees[group[0]].shape is not None
    # every member's family round is the whole replay's; the members of X
    # are refused when X has no _Shape
    mine = [u for family in fams if family.template.tree == x for u in family.members]
    assert sorted(refused) == (sorted(mine) if kind == "smallest-first" else [])
    for family in fams:
        for u in family.members:
            if u in rounds:
                res = whole(family, u)
                assert res.ok and res.completion_round == rounds[u]
