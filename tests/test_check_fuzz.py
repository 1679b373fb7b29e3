"""Differential and mutation fuzzing of check_schedule.

The oracle is a plain set replay of label calls, written here and sharing
nothing with the checker.  Each example builds an admissible instance with
t <= 9, generates the schedule of a random originator, applies one mutation
to its id calls, and asks the checker and the oracle for the verdict and the
completion round, on the id-backed schedule and on a label copy of it.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from broadcastnet import Schedule, build, check_schedule, make_params, make_schedule
from broadcastnet.params import max_k


def oracle(g, originator, rounds):
    """(ok, completion round) of a label schedule, by set replay."""
    informed = {originator} if originator in g else set()
    completion = 0 if g.n == 1 else None
    for rnd, calls in enumerate(rounds, start=1):
        ends = [v for call in calls for v in call]
        if not informed or len(set(ends)) != len(ends):
            return False, None
        for a, b in calls:
            if a not in informed or b in informed or b not in g or not g.has_edge(a, b):
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


@st.composite
def instances(draw):
    t = draw(st.integers(7, 9))
    k = draw(st.integers(2, max_k(t, n_odd=True)))
    N = ((1 << k) - 1) << (t + 1 - k)
    n = draw(st.integers((1 << t) + 1, N))
    if k > max_k(t, n_odd=bool(n % 2)):
        n -= 1  # this k needs odd n; n is even here, so n - 1 > 2^t
    return t, k, n


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
        near = [s for s in others if b in g.adj[rounds[s[0]][s[1]][0]]]
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
        far = [j for j in range(len(rounds[r])) if rounds[r][j][1] not in g.adj[a]]
        if far:
            j = rng.choice(far)
            x, c = rounds[r][j]
            rounds[r][i], rounds[r][j] = (a, c), (x, b)
        else:
            strangers = [c for c in range(g.n) if c != a and c not in g.adj[a]]
            rounds[r][i] = (a, rng.choice(strangers))
    elif kind == "two-calls":
        # a also makes, in this round, a call of this or a later round to
        # one of its neighbours
        near = [s for s in spots if s[0] >= r and s != (r, i)
                and rounds[s[0]][s[1]][1] in g.adj[a]]
        if near:
            r2, i2 = rng.choice(near)
            c = rounds[r2].pop(i2)[1]
        else:
            c = rng.choice(sorted(g.adj[a] - {b}) or [b])
        rounds[r].append((a, c))
    return rounds


MUTATIONS = ("none", "drop", "duplicate-callee", "move", "swap", "retarget", "two-calls")


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
    id_backed = Schedule.from_ids(g.labels, origin, rounds)
    label_copy = Schedule(originator=u, rounds=[list(c) for c in id_backed.rounds])
    want = oracle(g, u, label_copy.rounds)
    assert _verdict(check_schedule(g, id_backed)) == want
    assert _verdict(check_schedule(g, label_copy)) == want
    if kind == "none":
        assert want == (True, params.t + 1)
