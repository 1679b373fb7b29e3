import json

import pytest
from hypothesis import strategies as st

from broadcastnet import Schedule, build, make_params
from broadcastnet.params import max_k
from broadcastnet.schedule import CubeTemplate, FilledTemplate


@st.composite
def instances(draw, max_t=9):
    """An admissible (t, k, n) with 7 <= t <= max_t."""
    t = draw(st.integers(7, max_t))
    k = draw(st.integers(2, max_k(t, n_odd=True)))
    N = ((1 << k) - 1) << (t + 1 - k)
    n = draw(st.integers((1 << t) + 1, N))
    if k > max_k(t, n_odd=bool(n % 2)):
        n -= 1  # this k needs odd n; n is even here, so n - 1 > 2^t
    return t, k, n


def label_schedule(originator, rounds):
    """A schedule of the label calls ``rounds`` from ``originator``, on a
    label tuple of its own (the labels in order of first use), so a check
    against a graph converts it."""
    ids = {originator: 0}
    for calls in rounds:
        for call in calls:
            for label in call:
                ids.setdefault(label, len(ids))
    return Schedule(tuple(ids), 0, [[(ids[a], ids[b]) for a, b in calls] for calls in rounds])


def smallest_first(layout, tree):
    """A legal root-only fragment of the full tree ``tree`` in which every
    vertex calls its children smallest subtree first: its subtrees are still
    id ranges, but the children a vertex calls after v lie above v, not in
    (p, v), so the shift lemma's counts do not fit it."""
    M, h = layout.tree_size, layout.h
    ids = layout.dense[(tree - 1) * M:tree * M]
    left = {0: list(range(h))}  # per informed mask, the bits of its children to call
    rounds = []
    while any(left.values()):
        calls = [(v, v | 1 << bits.pop(0)) for v, bits in sorted(left.items()) if bits]
        for _, c in calls:
            left[c] = list(range((c & -c).bit_length() - 1))
        rounds.append(tuple((ids[a], ids[b]) for a, b in calls))
    return tuple(rounds)


def row(g, v):
    """The ids of v's neighbours in g, ascending: v's slice of the CSR arrays."""
    return g.targets[g.offsets[v]:g.offsets[v + 1]]


def neighbours(g, label):
    """The neighbours of ``label`` in g, as labels in id order."""
    return [g.labels[i] for i in row(g, g.vertex_id(label))]


def vertex(g, layout, tree, mask):
    """The label of the vertex at ``mask`` in tree ``tree`` of the graph
    built with ``layout``."""
    return g.labels[layout.dense[(tree - 1) * layout.tree_size + mask]]


def like_first(first, rounds):
    """``rounds``, first rounds of a schedule, in the form of the first
    rounds ``first``, a FilledTemplate: a new one, of a new template of the
    same tree, whose slots are the calls of first's originator in
    ``rounds``, each at its place in its round, and whose rounds are the
    other calls."""
    u = first.u
    others = [[(a, b) for a, b in calls if a != u] for calls in rounds]
    slots = [(r, b, i) for r, calls in enumerate(rounds, 1)
             for i, (a, b) in enumerate(calls) if a == u]
    return FilledTemplate(CubeTemplate(first.template.tree, others, slots), u)


def label_rounds(s):
    """The calls of schedule s as label pairs of its own label tuple."""
    labels = s.labels
    return [[(labels[a], labels[b]) for a, b in calls] for calls in s.rounds]


def reference_export(g, fmt):
    """g's graph file in format ``fmt``, written the plain way: a dict per
    vertex, a tuple per edge and one string, as Graph.export must match."""
    if fmt == "json":
        obj = {"n": g.n}
        if g.t is not None:
            obj["t"] = g.t
        if g.k is not None:
            obj["k"] = g.k
        obj["vertices"] = [lab.to_json(i) for i, lab in enumerate(g.labels)]
        obj["edges"] = g.edge_ids()
        return (json.dumps(obj, separators=(",", ":"), sort_keys=False) + "\n").encode()
    if fmt == "edgelist":
        return "".join(f"{a} {b}\n" for a, b in g.edge_ids()).encode()
    assert fmt == "dot", fmt
    lines = ["graph G {"]
    for i, lab in enumerate(g.labels):
        text = str(lab)
        if lab.cube is not None:
            text += f" [{lab.cube}]"
        lines.append(f'  {i} [label="{text}"];')
    for a, b in g.edge_ids():
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def reference_report(report):
    """A certification report's JSON, written as one dict and one string,
    as CertificationReport.to_json must match."""
    obj = {
        "graph": report.graph_id,
        "n": report.n,
        "target": report.target,
        "max_round": report.max_round,
        "pass": report.passed,
        "failures": report.failures,
        "per_originator": [list(x) for x in report.per_originator],
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


@pytest.fixture(scope="session")
def g72():
    """Full-size build at t=7, k=2: 192 vertices, 551 edges."""
    params = make_params(7, 2, 192)
    g, layout, acc = build(params)
    return params, g, layout, acc


@pytest.fixture(scope="session")
def g83():
    """Full-size build at t=8, k=3: 448 vertices, 1731 edges."""
    params = make_params(8, 3, 448)
    g, layout, acc = build(params)
    return params, g, layout, acc


@pytest.fixture(scope="session")
def g73_shrunk():
    """Deletion build with whole-tree removal: t=7, k=3, n=191 (x=1, p=1)."""
    params = make_params(7, 3, 191)
    g, layout, acc = build(params)
    return params, g, layout, acc
