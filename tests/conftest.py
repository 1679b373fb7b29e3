import pytest

from broadcastnet import Schedule, build, make_params
from broadcastnet.schedule import CubeTemplate, FilledTemplate


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
