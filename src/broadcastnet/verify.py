"""Independent certification: schedule legality, whole-graph certification,
and an exact broadcast-time oracle for tiny graphs.

check_schedule trusts nothing about how a schedule was produced: it replays
the calls round by round and rejects the first violation in deterministic
order.  certify_graph certifies every originator, by one of two paths; the
schedules they accept are the witness that the graph broadcasts within its
target.

The per-originator path: make_schedule gives the originator u a schedule,
and check_schedule checks it.  A schedule on the graph's label tuple, or an
equal one, is checked piece by piece first (_check_pieces).  Its table, the
root-only fragment of every surviving tree that all schedules on a graph
share, is accepted once per graph: each fragment is replayed from its
tree's root alone, and its counts per round are kept with their sum.  Its
first rounds (the cube phase) are a CubeTemplate, which the schedule fills
with u, accepted once per graph and table: the template is replayed, on a
fresh state over the ids it names, filled with a placeholder for the
originator, informed at round 0 and making the calls whose caller is None,
and the vertices it informs fix which trees are overridden, from which
vertex, and the counts of the trees left to the table.  Per originator only
u's own part is checked, with no replay: u lies in the template's tree and
neighbours each of its own callees (when the placeholder stands for the
tree's root, u is that root, whose edges were tested as the template was
accepted); and the override (of u's tree when u is off the cube, else of
tree 1 from w when w survives) is a ShiftedFragment of a table fragment,
which the shift lemma accepts in O(h log M) for a tree of M vertices and h
rounds (_accepted).  Sound because a call that does not involve u does not depend
on which vertex u is: u is informed at round 0 whoever it is, and the
template fixes the rounds u calls in and the vertices it calls.  Whatever
that check does not accept is replayed whole, which gives every failure's
witness.  The piecewise check tests each edge by a bisection of g's CSR
(_has_edge), and the whole replay in neighbour sets made once per graph.

The family path (_certify_family) makes no schedule.  The originators off
the cube of a tree T = [lo, hi) share T's template, the table and T's
fragment B in it: their schedules differ in u alone, so the scheme hands
them over as one family (scheme.Family).  The table and the template are
accepted as above, and the rest of the check is done for all members at
once: each lies in (lo, hi), so it is no root and none of the template's
ids, and is listed once; each neighbours every callee of the caller
None, a test made once per callee by counting its neighbours in T with
two bisections of its sorted row; the counts cover g once per family.
Member u's completion round is then k + max(len(base), L(u)): the
template's k rounds, then the longer of the table's counts less T's and
the ShiftedFragment of B and u, which ends in its round L(u).  By the
shift lemma, that fragment moves the calls to u's subtree r(u) rounds earlier,
those to (p, u), p being u's caller, one earlier, and leaves the rest; so
L(u) is the largest of the deepest round below u less r(u), the deepest
round in (p, u) less one, and the deepest round outside [p+1, u+size(u)).
Over B's preorder these are a subtree maximum, a maximum over the
subtrees of u's later-called siblings, and a prefix and a suffix maximum,
so L is one array of the _Shape made once per distinct fragment shape
(_tree_shape), read in O(1) per member.  Sound per member as the
per-originator path is: it accepts exactly what _check_pieces accepts of
u's schedule, and gives the round the whole replay gives.  The cube's
originators (at most 2^k) and each refused member go one by one."""

from __future__ import annotations

import json
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, groupby, repeat, zip_longest
from operator import attrgetter, itemgetter, sub
from typing import Iterator, NamedTuple, TextIO

from .construct import CaseOneLayout
from .errors import BroadcastNetError, DisconnectedGraph, TooLarge
from .graph import _BLOCK, Graph
from .labels import VertexLabel
from .params import ConstructionParams, ceil_log2
from .schedule import CubeTemplate, Schedule, ShiftedFragment
from .scheme import Family, _full_id, families, make_schedule


@dataclass(frozen=True)
class Violation:
    kind: str  # "illegal-call" or "incomplete"
    round: int | None = None
    caller: int | None = None
    callee: int | None = None
    reason: str | None = None
    uninformed: int | None = None

    def to_json_obj(self) -> dict:
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    completion_round: int | None = None
    violation: Violation | None = None
    informed_per_round: tuple[int, ...] = ()


def check_schedule(g: Graph, s: Schedule) -> CheckResult:
    """Validate a schedule against the graph and report its completion round.

    Per round, in canonical call order: the caller must already be informed,
    the callee must not be, the edge must exist, and no vertex may take part
    in two calls.  Returns the round in which the last vertex learns the
    message, or the earliest violation.  A schedule on g's label tuple, or on
    an equal one, is accepted from its pieces when they pass (_check_pieces);
    any other is replayed whole on dense ids, converted once (Schedule.ids_in)
    when it is on another label tuple.
    """
    sizes = _check_pieces(g, s)
    if sizes is not None:
        return CheckResult(True, completion_round=sizes.index(g.n), informed_per_round=sizes)
    n = g.n
    origin, id_rounds = s.ids_in(g)
    if not (isinstance(origin, int) and 0 <= origin < n):
        return CheckResult(False, violation=Violation(
            "illegal-call", round=0, reason="unknown-originator"))
    when, used = _fresh(n, origin)
    sizes = [1]
    # a round that names an id that is no int (None, a float, a string) is
    # replayed as one call of the unknown id -1, so it ends as unknown-vertex
    rounds = (sorted(calls) if all(map(isinstance, chain.from_iterable(calls), repeat(int)))
              else [(-1, -1)] for calls in id_rounds)
    bad = _replay(when, used, g, _neighbour_sets(g), rounds, 0, n, sizes)
    if bad is not None:
        return CheckResult(False, violation=_illegal_call(*bad, when, used, g))
    if sizes[-1] != n:
        return CheckResult(False, violation=Violation(
            "incomplete", uninformed=n - sizes[-1]), informed_per_round=tuple(sizes))
    return CheckResult(True, completion_round=sizes.index(n),
                       informed_per_round=tuple(sizes))


_NEVER = sys.maxsize  # the informing round of a vertex not yet informed


def _fresh(n: int, origin: int) -> tuple[list[int], list[int]]:
    """Replay state before round 1: per vertex, the round it was informed in
    (0 for the originator) and the last round it called in."""
    when = [_NEVER] * n
    when[origin] = 0
    return when, [0] * n


def _neighbour_sets(g: Graph) -> list[frozenset[int]]:
    """The whole replay's edge test: per vertex of g, its neighbour ids as a
    frozenset, which holds what a frozenset adjacency would.  Kept on g's
    record (see _Record) and made by the first whole replay on g: one
    replay calls from about every other vertex, so making the sets lazily
    would save at most half.  The piecewise check never makes them."""
    sets = _record(g).sets
    if not sets:
        off, nbrs = g.offsets, g.targets
        sets.extend(frozenset(nbrs[off[v]:off[v + 1]]) for v in range(g.n))
    return sets


def _replay(when: list[int] | dict, used: list[int] | dict, g: Graph,
            sets: list | dict | None, rounds, lo: int, hi: int,
            sizes: list[int]) -> tuple | None:
    """Replay ``rounds`` as rounds 1, 2, ... on the state ``when``, ``used``
    (see _fresh; lists, or dicts over every id the rounds name), in the
    order given.  A call is legal when both ends are ids in [lo, hi), the
    caller was informed before this round and has not called in it, the
    callee is not informed, and they are adjacent in g: b in sets[a]
    (_neighbour_sets, or a template's rows: see _accept_template), or with
    no sets _has_edge, inlined for the table's one test per call.
    The informed count after each round is appended to ``sizes``, which
    starts with the count before.  Returns the first illegal call as (round,
    caller, callee, the calls of its round), or None.
    """
    count, offsets, targets = sizes[-1], g.offsets, g.targets
    for rnd, calls in enumerate(rounds, start=1):
        for a, b in calls:
            if not (lo <= a < hi and lo <= b < hi and when[a] < rnd and used[a] != rnd
                    and when[b] == _NEVER
                    and (b in sets[a] if sets is not None
                         else (i := bisect_left(targets, b, offsets[a], end := offsets[a + 1]))
                         < end and targets[i] == b)):
                return rnd, a, b, calls
            when[b] = rnd
            used[a] = rnd
        count += len(calls)
        sizes.append(count)
    return None


def _has_edge(g: Graph, a: int, b: int) -> bool:
    """Whether b is a neighbour of a: a bisection of a's slice of g's CSR,
    which keeps nothing per vertex (O(log deg a), with no set to make)."""
    end = g.offsets[a + 1]
    i = bisect_left(g.targets, b, g.offsets[a], end)
    return i < end and g.targets[i] == b


def _illegal_call(rnd: int, a: int, b: int, calls: list[tuple[int, int]],
                  when: list[int], used: list[int], g: Graph) -> Violation:
    """Why call (a, b) of round rnd fails, given the replay state at it."""
    n = len(when)
    if any(not 0 <= x < n for call in calls for x in call):
        # an unknown vertex voids its whole round, whatever comes first
        return Violation("illegal-call", round=rnd, reason="unknown-vertex")
    if when[a] >= rnd:  # never informed, or called in this round
        reason = "caller-uninformed"
    elif when[b] < rnd:
        reason = "callee-informed"
    elif not _has_edge(g, a, b):
        reason = "no-edge"
    elif used[a] == rnd:
        reason = "busy-caller"
    else:  # called earlier in this round
        reason = "busy-callee"
    return Violation("illegal-call", round=rnd, caller=a, callee=b, reason=reason)


class _Shape(NamedTuple):
    """What the shift lemma reads of a fragment accepted from its tree's
    root, in local ids (id - lo) (_tree_shape): per round its sorted
    callees; per vertex its round, its caller, its subtree size and L(u)."""

    callees: list[list[int]]
    at: list[int]
    by: list[int]
    size: list[int]
    last: list[int]


class _Tree(NamedTuple):
    """A table fragment accepted from its tree's root alone: the fragment,
    its calls per round, and its _Shape, or None when it has none."""

    fragment: tuple
    counts: list[int]
    shape: _Shape | None


class _Accepted(NamedTuple):
    """A table accepted on a graph (_accept_table): the table object, per
    tree its _Tree, and the sum S of their calls per round."""

    table: tuple
    trees: dict[int, _Tree]
    total: list[int]


class _Record:
    """g's per-graph record for the piecewise check, made on first use
    (_record) and held in g._verdicts; a cache, which pickling g leaves out.

    ``spans`` is each tree's id range [lo, hi) (None when some tree's ids
    do not form one range), so a vertex v lies in the span of its label's
    tree, and is that tree's root when v is its lo; ``labels`` is the last
    label tuple compared with g's and ``same`` whether it is equal.
    ``sets`` holds the whole replay's neighbour sets (_neighbour_sets),
    ``accepted`` the table accepted last, or None, and ``templates`` the
    verdict on every cube template met since, keyed by the template
    object: a _Template, or None when it was refused.  The piecewise check
    tests its edges on g's CSR (_has_edge), and keeps nothing per vertex."""

    __slots__ = ("spans", "labels", "same", "sets", "accepted", "templates")

    def __init__(self, g: Graph):
        spans: dict | None = {}
        lo = 0
        for tree, run in groupby(g.labels, attrgetter("tree")):  # a C pass per run of a tree
            hi = lo + len(list(run))
            if tree in spans:
                spans = None
                break
            spans[tree], lo = (lo, hi), hi
        self.spans = spans
        self.labels, self.same = g.labels, True
        self.sets: list[frozenset[int]] = []
        self.accepted: _Accepted | None = None
        self.templates: dict[CubeTemplate, _Template | None] = {}


class _Template(NamedTuple):
    """A cube template accepted on a graph with its accepted table
    (_accept_template): the informed count after each of its rounds; the
    table's calls per round less those of the overridden trees, trailing
    zeros left out; per overridden tree, the vertex informed besides its
    root (None for the placeholder); the id the originator must have when
    the placeholder stands for its tree's root, whose edges to the
    placeholder's callees were tested as the template was accepted, else
    None; and the placeholder's callees, those of the caller None."""

    sizes: list[int]
    base: list[int]
    overrides: dict[int, int | None]
    root: int | None
    callees: frozenset[int]


def _record(g: Graph) -> _Record:
    """g's _Record, made on first use."""
    if g._verdicts is None:
        g._verdicts = _Record(g)
    return g._verdicts


def _accept_table(g: Graph, rec: _Record, table) -> _Accepted | None:
    """``table``, a tuple of (tree, fragment) pairs, accepted on g, or None.

    Each fragment is replayed in its tree's id range [lo, hi) from the
    tree's root lo alone, which must carry a root's label, and must inform
    the whole range; the trees must be distinct, and no fragment may end in
    an empty round, so that the last round of the remaining fragments is
    where their summed counts end.  The trees share one fresh replay state:
    each replay reads and writes only its own range.  Then each tree gets
    its _Shape, one per distinct fragment in local ids (id - lo), made with
    the replay state freed."""
    replayed: dict[int, tuple] = {}
    total: list[int] = []
    when, used = [_NEVER] * g.n, [0] * g.n
    for tree, frag in table:
        if tree in replayed or tree not in rec.spans:
            return None
        lo, hi = rec.spans[tree]
        if not g.labels[lo].is_root:
            return None
        when[lo] = 0
        counts = [1]
        bad = _replay(when, used, g, None, frag, lo, hi, counts)
        added = [b - a for a, b in zip(counts, counts[1:])]
        if bad is not None or counts[-1] != hi - lo or added and not added[-1]:
            return None
        replayed[tree] = frag, added
        total.extend([0] * (len(added) - len(total)))
        for i, c in enumerate(added):
            total[i] += c
    del when, used  # so that making the shapes adds nothing to the replay's peak
    trees: dict[int, _Tree] = {}
    shapes: dict[tuple, _Shape | None] = {}
    for tree, (frag, added) in replayed.items():
        lo, hi = rec.spans[tree]
        local = array("i", map(sub, chain.from_iterable(chain.from_iterable(frag)), repeat(lo)))
        key = hi - lo, tuple(added), local.tobytes()  # no int object per call
        if key not in shapes:
            shapes[key] = _tree_shape(frag, lo, hi)
        trees[tree] = _Tree(frag, added, shapes[key])
    return _Accepted(table, trees, total)


def _accept_template(g: Graph, rec: _Record, template: CubeTemplate) -> _Template | None:
    """``template`` accepted on g with the table ``rec.accepted``, or None.

    Its rounds are replayed, on a fresh state over the ids they name, filled
    with a placeholder P for the originator, the id n past g's, as a
    schedule fills them (None, as a caller, becomes P): P is informed at
    round 0, makes the calls whose caller is None, and has their callees as
    its only neighbours; each of the other calls is tested once, on g's CSR
    (_has_edge), before the replay.
    Every id but a None caller must be one of g's.  P lies in the
    template's tree, which must be in the table: P stands for that tree's
    root when the rounds leave the root uninformed, and then the root must
    neighbour each of P's callees, else for one more vertex of the tree.
    Besides the roots, the rounds may inform at most one vertex per tree, of
    a table tree: a tree with one more vertex informed, P's included, is
    overridden, and every other table tree starts from its root alone (or
    from no vertex, which the counts show: see _check_pieces).  A vertex's
    tree is its label's, whose span holds it (see _Record), and it is that
    tree's root when it is the span's lo."""
    n, tree = g.n, template.tree
    trees, total, spans = rec.accepted.trees, rec.accepted.total, rec.spans
    named = {a for calls in template.rounds for a, _ in calls} - {None}
    named.update(b for calls in template.rounds for _, b in calls)
    callees = frozenset(b for calls in template.rounds for a, b in calls if a is None)
    if (tree not in trees or not all(isinstance(x, int) and 0 <= x < n for x in named)
            or not all(_has_edge(g, a, b) for calls in template.rounds for a, b in calls
                       if a is not None)):
        return None
    rounds = [[(n if a is None else a, b) for a, b in calls] for calls in template.rounds]
    # the template's other calls are edges, so the replay lets a named id
    # call any other; P's only neighbours are its callees
    rows = dict.fromkeys(named, named)
    rows[n] = callees
    when, used = dict.fromkeys(rows, _NEVER), dict.fromkeys(rows, 0)
    when[n] = 0
    sizes = [1]
    if _replay(when, used, g, rows, rounds, 0, n + 1, sizes) is not None:
        return None
    informed = {v for calls in rounds for _, v in calls}
    root = spans[tree][0]
    at_root = root not in informed
    if at_root and not all(_has_edge(g, root, c) for c in callees):
        return None
    overrides: dict[int, int | None] = {} if at_root else {tree: None}
    for v in informed:
        other = g.labels[v].tree
        if other not in trees:
            return None
        if v != spans[other][0]:  # a vertex besides its tree's root
            if other in overrides:
                return None
            overrides[other] = v
    base = list(total)
    for other in overrides:
        for i, c in enumerate(trees[other].counts):
            base[i] -= c
    while base and not base[-1]:
        base.pop()
    return _Template(sizes, base, overrides, root if at_root else None, callees)


def _on_labels(g: Graph, rec: _Record, labels: tuple) -> bool:
    """Whether ``labels`` is g's label tuple or an equal one, which numbers
    the vertices as g does; a tuple is compared only when it is not the
    last one compared."""
    if labels is not rec.labels:
        rec.labels, rec.same = labels, labels == g.labels
    return rec.same


def _template_entry(g: Graph, rec: _Record, table, template: CubeTemplate) -> _Template | None:
    """The verdict on ``template`` with ``table`` on g, or None.  The table
    is accepted once per graph (_accept_table; again only when another
    table object comes), and the template once per graph and table
    (_accept_template)."""
    if rec.spans is None or not table:
        return None
    if rec.accepted is None or rec.accepted.table is not table:
        accepted = _accept_table(g, rec, table)
        if accepted is None:
            return None
        rec.accepted, rec.templates = accepted, {}
    if template not in rec.templates:
        rec.templates[template] = _accept_template(g, rec, template)
    return rec.templates[template]


def _check_pieces(g: Graph, s: Schedule) -> tuple[int, ...] | None:
    """The informed count after each round of a schedule on g's label tuple,
    or on an equal one, accepted from its pieces, or None when the whole
    replay must decide.  An equal tuple numbers the vertices as g does; a
    tuple is compared only when it is not the last one compared.

    The table is accepted once per graph (_accept_table; again only when a
    schedule brings another table object), and the first rounds, which must
    be a CubeTemplate, which the schedule fills with its originator, once
    per graph and table (_accept_template).  Per originator u the check is
    O(k) tests and the shift lemma, with no replay:
    - u lies in the template's tree; when the placeholder stands for the
      tree's root, u is that root, whose edges to the placeholder's callees
      were tested as the template was accepted; else u neighbours each of
      them, each tested by a bisection of u's row (_has_edge);
    - the overrides name the template's overridden trees, each once;
    - _accepted vouches for each override: a ShiftedFragment of the table's
      fragment of its tree, started from the root and the one vertex the
      template informs besides it (u, for the placeholder's tree), which
      may not be the root.
    So u is none of the vertices the template names, all of them informed
    by its rounds: in u's tree they are the root, which the lemma refuses
    as u, or, when the placeholder stands for the root, at most one other
    vertex, and u is the root.  Sound because a call that does not involve
    u does not depend on which vertex u is: u is informed at round 0,
    whoever it is, like the placeholder, and the template fixes the rounds
    it calls in and the vertices it calls; a vertex the template does not
    name takes part in no other call.  So the first rounds replay as the
    template's did, call for call, and inform the same vertices, u in place
    of the placeholder.  Each table tree that is not overridden then starts
    from its root, as its fragment was accepted, and each overridden one
    from its root and one more vertex, as the shift lemma's fragment does;
    the trees share no vertex and the fragments start after the cube phase,
    so no call of one piece bears on another.  The counts are the
    template's, then per round its base (the table's, less the overridden
    trees') plus each override's.  Accepted when every vertex is informed:
    as every vertex informed but a root is an override's, that holds only
    when every table root is informed and the table covers g.
    """
    rec = _record(g)
    n, origin = g.n, s.origin
    first, overrides, table = s.pieces
    if (not _on_labels(g, rec, s.labels) or not isinstance(first, CubeTemplate)
            or not (isinstance(origin, int) and 0 <= origin < n)):
        return None
    entry = _template_entry(g, rec, table, first)
    if (entry is None or g.labels[origin].tree != first.tree
            or (entry.root != origin if entry.root is not None
                else not all(_has_edge(g, origin, c) for c in entry.callees))
            or len(overrides) != len(entry.overrides)
            or {tree for tree, _ in overrides} != entry.overrides.keys()):
        return None
    trees, spans = rec.accepted.trees, rec.spans
    added = []
    for tree, frag in overrides:
        v = entry.overrides[tree]
        counts = _accepted(trees[tree], frag, origin if v is None else v, spans[tree])
        if counts is None:
            return None
        added.append(counts)
    *sizes, last = entry.sizes
    sizes += accumulate(map(sum, zip_longest(entry.base, *added, fillvalue=0)), initial=last)
    return tuple(sizes) if sizes[-1] == n else None


def _accepted(entry: _Tree, frag, u: int, span: tuple[int, int]) -> list[int] | None:
    """The calls per round of ``frag``, an override of the tree [lo, hi) =
    ``span`` started from lo and ``u``, vouched for without replay by the
    tree's accepted table fragment ``entry``, or None.

    The shift lemma.  Let the accepted fragment B broadcast the tree from its
    root lo, and let a ShiftedFragment of B and u start from {lo, u}.  Its
    calls fall in three groups by callee: inside u's subtree (moved r(u)
    rounds earlier), inside the subtrees of the vertices u's caller p calls
    after u, those calls of p included (moved 1 earlier), and the rest (not
    moved, less p->u).  The shifted fragment is legal:
    - every call is one of B, so an edge, and every callee but the informed
      root and u is called once, as in B;
    - the groups share no vertex but p, which is in the last, and a group's
      calls are made by its own vertices or p; a group moves as one, so
      each of its callers is still informed before it calls and calls once
      per round, and u (informed at 0) calls after round 0;
    - p keeps its calls before r(u) and moves its calls after r(u) one
      round earlier, into the round it no longer calls u in: its remaining
      calls stay in distinct rounds (consecutive ones, in a binomial
      fragment), all after p is informed.
    Its calls per round come from B alone: in B's preorder, checked by
    _tree_shape, u's subtree is the id range [u, u + size) and the other
    moved subtrees are (p, u), so per round a few bisections on B's sorted
    callees count each group.  This is O(h log M) for a tree of M vertices
    and h rounds; the whole replay of the same rounds gives the same counts.
    """
    root = span[0]
    if not (isinstance(frag, ShiftedFragment) and frag.base is entry.fragment
            and frag.u == u != root and entry.shape is not None):
        return None
    callees, at, by, size, _ = entry.shape
    u -= root
    ru, p, end, last = at[u], by[u], u + size[u], len(callees)
    # per round of B, its callees in u's subtree and in (p, u); none before r(u)
    inside, between = [0] * (last + ru + 1), [0] * (last + 2)
    for r in range(ru, last + 1):
        cs = callees[r - 1]
        mid = bisect_left(cs, u)
        inside[r] = bisect_left(cs, end, mid) - mid
        between[r] = mid - bisect_left(cs, p + 1, 0, mid)
    added = [len(callees[r - 1]) - inside[r] - between[r] + inside[r + ru] + between[r + 1]
             for r in range(1, last + 1)]
    while added and not added[-1]:
        added.pop()
    return added


def _tree_shape(frag, lo: int, hi: int) -> _Shape | None:
    """The _Shape of a fragment accepted from the root of the tree [lo, hi).

    None unless the fragment informs every vertex from the root lo and
    numbers its call tree in preorder, children in the reverse of the order
    they are called: every vertex comes after its caller, inside its
    caller's subtree range, and a caller's next child in id order is called
    earlier.  Then each subtree is one id range [v, v + size[v]), and the
    children a vertex p calls after its child v have the ranges that make
    up (p, v).  A binomial fragment has this shape, pruned or not: a subtree
    is a range of masks, and a vertex calls its children by descending mask.

    L(u), where _accepted's counts for u end, is derived in the module's
    docstring: a subtree maximum made bottom-up, a maximum over the
    subtrees of the children p calls after u, made from u's previous child
    of p in id order, and a prefix and a suffix maximum."""
    m = hi - lo
    at, by, size = [0] * m, [-1] * m, [1] * m
    callees = []
    for r, calls in enumerate(frag, start=1):
        for a, b in calls:
            at[b - lo], by[b - lo] = r, a - lo
        callees.append(sorted(b - lo for _, b in calls))
    if sum(map(len, callees)) != m - 1:
        return None
    deep = list(at)  # the deepest round in [v, v + size[v])
    for v in range(m - 1, 0, -1):
        p = by[v]
        if not 0 <= p < v:
            return None
        size[p] += size[v]
        if deep[v] > deep[p]:
            deep[p] = deep[v]
    between, prev = [0] * m, [0] * m  # the deepest round in (by[v], v); p's child last met
    for v in range(1, m):
        p, end = by[v], v + size[v]
        if end > p + size[p] or end < p + size[p] and at[end] >= at[v]:
            return None
        c = prev[p]
        if c:
            between[v] = max(between[c], deep[c])
        prev[p] = v
    before = list(accumulate(at, max, initial=0))  # before[i]: the deepest round in [0, i)
    after = list(accumulate(reversed(at), max, initial=0))[::-1]  # after[i]: in [i, m)
    last = [0] + [max(deep[u] - at[u], between[u] - 1, before[by[u] + 1], after[u + size[u]])
                  for u in range(1, m)]
    return _Shape(callees, at, by, size, last)


def _certify_family(g: Graph, family: Family, rounds: dict[int, int]) -> list[int]:
    """Record in ``rounds`` the completion round of each member of
    ``family`` that the family path accepts, with no
    schedule made; return the others, in order, for the per-originator path.

    It accepts what _check_pieces accepts of each member u's schedule, the
    family's form filled with u, and gives the round the whole replay gives
    it (see the module's docstring).  Once per family: the labels are g's,
    or equal; the table and the template are accepted (_template_entry);
    the placeholder stands for a vertex of the template's tree T = [lo, hi)
    other than its root, and T is the one tree overridden; the base is the
    accepted table's fragment of T; T has three vertices or more, so that
    every member's shifted fragment makes a call; the counts cover g: the
    template's, its base's and hi - lo - 2, the calls of any member's
    shifted fragment.  Per member, in O(1): u lies in (lo, hi), so it is no
    root and none of the ids the template names, which inform in T the root
    alone; it is listed once; and it neighbours each of the placeholder's
    callees, which is tested on the CSR, as _check_pieces tests it, once per
    callee: in the construction each callee neighbours all of (lo, hi), else
    each member is looked up in its own row (_has_edge).  Its round is the
    template's k rounds, plus the longer of the base and the shifted
    fragment, of L(u) rounds (T's _Shape): each of the two ends on a call,
    so the counts reach n there."""
    rec, template, members = _record(g), family.template, family.members
    entry = (_template_entry(g, rec, family.table, template)
             if _on_labels(g, rec, family.labels) else None)
    tree = template.tree
    if entry is None or entry.root is not None or entry.overrides != {tree: None}:
        return list(members)
    node, (lo, hi) = rec.accepted.trees[tree], rec.spans[tree]
    if (node.fragment is not family.base or node.shape is None or hi - lo < 3
            or entry.sizes[-1] + sum(entry.base) + hi - lo - 2 != g.n):
        return list(members)
    last = node.shape.last
    # the placeholder's callees that do not neighbour all of (lo, hi): a
    # callee's neighbours there are the slice of its sorted row, each once,
    # between two bisections
    off, nbrs = g.offsets, g.targets
    partial = [c for c in entry.callees if bisect_left(nbrs, hi, off[c], off[c + 1])
               - bisect_left(nbrs, lo + 1, off[c], off[c + 1]) != hi - lo - 1]
    # the members listed twice, or that miss a placeholder callee
    bad = (set() if len(set(members)) == len(members)
           else {u for u, c in Counter(members).items() if c > 1})
    for c in partial:
        bad.update(u for u in members if not (lo < u < hi and _has_edge(g, u, c)))
    k, nb = len(entry.sizes) - 1, len(entry.base)
    refused = []
    for u in members:
        if lo < u < hi and u not in bad:
            rounds[u] = k + max(nb, last[u - lo])
        else:
            refused.append(u)
    return refused


# ---------------------------------------------------------------------------
# whole-graph certification


@dataclass
class CertificationReport:
    graph_id: str
    n: int
    target: int
    max_round: int | None
    passed: bool
    per_originator: list[tuple[int, int]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return "".join(self._blocks())

    def write(self, fh: TextIO) -> None:
        """Write :meth:`to_json`'s text to the text file object ``fh``, the
        per-originator pairs a block of _BLOCK at a time."""
        fh.writelines(self._blocks())

    def _blocks(self) -> Iterator[str]:
        """The report's JSON in pieces: the head, then the per-originator
        pairs, _BLOCK to a piece."""
        head = {"graph": self.graph_id, "n": self.n, "target": self.target,
                "max_round": self.max_round, "pass": self.passed, "failures": self.failures}
        yield json.dumps(head, separators=(",", ":"))[:-1] + ',"per_originator":['
        pairs = self.per_originator
        for lo in range(0, len(pairs), _BLOCK):
            block = pairs[lo:lo + _BLOCK]
            if set(map(len, block)) <= {2} and set(map(type, chain.from_iterable(block))) <= {int}:
                text = ",".join([f"[{a},{b}]" for a, b in block])
            else:  # json.dumps prints what an f-string would not, as a bool
                text = json.dumps([list(x) for x in block], separators=(",", ":"))[1:-1]
            yield ("," if lo else "") + text
        yield "]}\n"


def _certify_one(g: Graph, layout, params, vid: int) -> dict:
    if not 0 <= vid < g.n:  # a family's member need not be a vertex
        return {"id": vid, "error": f"UnknownVertex: no vertex has id {vid}"}
    label = g.labels[vid]
    try:
        sched = make_schedule(g, layout, params, label)
    except BroadcastNetError as exc:
        return {"id": vid, "error": f"{type(exc).__name__}: {exc}"}
    res = check_schedule(g, sched)
    out = {"id": vid}
    if res.ok:
        out["round"] = res.completion_round
    else:
        out["violation"] = res.violation.to_json_obj()
    return out


def certify_graph(g: Graph, layout: CaseOneLayout, params: ConstructionParams,
                  jobs: int = 1, originators: list[VertexLabel] | None = None,
                  ) -> CertificationReport:
    """Certify every originator (or those given, in their order, repeats
    included): pass iff each has a schedule that completes by ceil(log2 n).

    The off-cube originators of each tree T come as one family
    (scheme.families) and are certified together, in O(1) each, with no
    schedule made (_certify_family): member u completes in round
    k + max(len(base), L(u)), L(u) being the largest of the deepest round
    below u less r(u), the deepest round in (p, u) less one, and the
    deepest round of T's fragment outside [p+1, u+size(u)), p being u's
    caller.  That is where the shift lemma's counts of u's ShiftedFragment
    end, so the family path accepts, per member, what the piecewise check
    of u's schedule accepts, with the same round.  The originators on the
    cube, and every member the family path refuses, get a schedule each
    (make_schedule) and its check (check_schedule), which gives every
    failure's witness.  Both paths run in the calling process, over the
    ids as given.  ``jobs`` is accepted for compatibility and changes
    neither the work nor the report."""
    target = ceil_log2(g.n)
    # each originator by the full id its label spells, in O(1): no O(n)
    # label -> id index is made
    ids = ([layout.dense[_full_id(g, layout, v)] for v in originators]
           if originators is not None else range(g.n))
    fams, rest = families(layout, params, ids)
    rounds: dict[int, int] = {}
    for family in fams:
        rest += _certify_family(g, family, rounds)
    failed = {}
    for vid in dict.fromkeys(rest):
        out = _certify_one(g, layout, params, vid)
        if "round" in out:
            rounds[vid] = out["round"]
        else:
            failed[vid] = out

    report = CertificationReport(
        graph_id=f"t={params.t},k={params.k},n={params.n}",
        n=g.n, target=target, max_round=None, passed=True)
    per = zip(ids, map(rounds.get, ids))
    report.per_originator = [x for x in per if x[1] is not None] if failed else list(per)
    report.max_round = max(map(itemgetter(1), report.per_originator), default=None)
    if len(report.per_originator) < len(ids) or (report.max_round or 0) > target:
        report.passed = False
        for vid in ids:
            if vid in failed:
                report.failures.append(failed[vid])
            elif rounds[vid] > target:
                report.failures.append({"id": vid, "round": rounds[vid],
                                        "reason": "late-completion"})
            if len(report.failures) == 10:
                break
    return report


# ---------------------------------------------------------------------------
# exact oracle


def exact_broadcast_time(g: Graph, u: VertexLabel) -> int:
    """Exact b(u) by search over informed sets; graphs up to 16 vertices."""
    n = g.n
    if n > 16:
        raise TooLarge(f"exact search capped at 16 vertices, got {n}")
    start_id = g.vertex_id(u)
    if not g.is_connected():
        raise DisconnectedGraph("graph is disconnected; broadcast cannot complete")
    adj = [0] * n
    for a, b in g.edge_ids():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    if n == 1:
        return 0

    def lower_bound(state: int) -> int:
        pc = bin(state).count("1")
        return ceil_log2((n + pc - 1) // pc) if pc < n else 0

    memo: dict[int, int] = {}
    INF = n + 1

    def candidate_moves(state: int) -> list[int]:
        actors = [v for v in range(n) if state >> v & 1 and adj[v] & ~state]
        outs: set[int] = set()

        def rec(i: int, newly: int):
            if i == len(actors):
                if newly:
                    outs.add(newly)
                return
            v = actors[i]
            free = adj[v] & ~state & ~newly
            matched = False
            while free:
                bit = free & -free
                free ^= bit
                matched = True
                rec(i + 1, newly | bit)
            if not matched:
                rec(i + 1, newly)

        rec(0, 0)
        return sorted(outs, key=lambda m: -bin(m).count("1"))

    def best(state: int, budget: int) -> int:
        """Exact rounds to finish from state, or INF if it exceeds budget."""
        if state == full:
            return 0
        if lower_bound(state) > budget:
            return INF
        known = memo.get(state)
        if known is not None:
            return known
        result = INF
        for newly in candidate_moves(state):
            sub = best(state | newly, min(budget, result - 1) - 1)
            if sub + 1 < result:
                result = sub + 1
        if result < INF:
            memo[state] = result
        return result

    return best(1 << start_id, n)
