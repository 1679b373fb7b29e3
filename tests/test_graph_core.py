import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcastnet import (
    Graph,
    MalformedGraph,
    UnknownVertex,
    VertexLabel,
    build_binomial,
    build_hypercube,
)


def _triangle():
    labs = [VertexLabel(tree=i) for i in (1, 2, 3)]
    return Graph.build(labs, [(labs[0], labs[1]), (labs[1], labs[2]), (labs[0], labs[2])])


def test_degree_single_vertex():
    v = VertexLabel(tree=1)
    g = Graph.build([v], [])
    assert g.degree(v) == 0


def test_degree_triangle_and_q3():
    g = _triangle()
    assert all(g.degree(v) == 2 for v in g.labels)
    q3 = build_hypercube(3).to_graph()
    assert all(q3.degree(v) == 3 for v in q3.labels)


def test_degree_unknown_vertex():
    g = _triangle()
    with pytest.raises(UnknownVertex):
        g.degree(VertexLabel(tree=9))


def test_connectivity():
    v1, v2 = VertexLabel(tree=1), VertexLabel(tree=2)
    assert Graph.build([v1], []).is_connected()
    assert not Graph.build([v1, v2], []).is_connected()
    assert build_hypercube(4).to_graph().is_connected()


def test_export_json_single_vertex():
    g = Graph.build([VertexLabel(tree=1)], [])
    data = g.export("json").decode()
    assert '"n":1' in data and '"edges":[]' in data


def test_export_edgelist_triangle_sorted():
    lines = _triangle().export("edgelist").decode().splitlines()
    assert lines == ["0 1", "0 2", "1 2"]
    assert lines == sorted(lines)


def test_export_dot_q2():
    dot = build_hypercube(2).to_graph().export("dot").decode()
    assert dot.startswith("graph ")
    assert dot.count("--") == 4
    assert dot.count("label=") == 4


def test_json_round_trip_identity():
    for g in (_triangle(), build_binomial(3).to_graph(), build_hypercube(3).to_graph()):
        again = Graph.from_json(g.to_json())
        assert again == g
        assert again.to_json() == g.to_json()


def test_edgelist_round_trip_structure():
    g = build_hypercube(3).to_graph()
    again = Graph.from_edgelist(g.to_edgelist(), n=g.n)
    assert again.n == g.n
    assert again.edge_ids() == g.edge_ids()


@pytest.mark.parametrize("text,n", [
    ("0 a\n", None),
    ("1.0 2\n", None),
    ("0\n", None),
    ("0 1 2\n", None),
    ("0 1\n1\n", None),
    ("0 -1\n", None),
    ("-1 0\n", 3),
    ("0 5\n", 2),
    ("0 2\n", 2),
    ("3 3\n", None),
    ("0 1\n1 1\n", 4),
])
def test_from_edgelist_rejects_bad_lines(text, n):
    with pytest.raises(MalformedGraph):
        Graph.from_edgelist(text, n=n)


def test_from_edgelist_accepts_comments_and_blank_lines():
    g = Graph.from_edgelist("# q1\n\n 0 1 \n", n=3)
    assert g.n == 3 and g.edge_ids() == [(0, 1)]


def test_canonical_export_is_stable_under_input_order():
    labs = [VertexLabel(tree=i) for i in (1, 2, 3)]
    edges = [(labs[0], labs[1]), (labs[1], labs[2]), (labs[0], labs[2])]
    a = Graph.build(labs, edges)
    b = Graph.build(list(reversed(labs)), list(reversed([(y, x) for x, y in edges])))
    assert a.export("json") == b.export("json")
    assert a.export("dot") == b.export("dot")
    assert a.export("edgelist") == b.export("edgelist")


def test_duplicate_edges_inserted_once():
    labs = [VertexLabel(tree=1), VertexLabel(tree=2)]
    g = Graph.build(labs, [(labs[0], labs[1]), (labs[1], labs[0])])
    assert g.num_edges == 1


@given(st.integers(min_value=0, max_value=6))
def test_handshake_identity_on_primitives(m):
    for g in (build_binomial(m).to_graph(), build_hypercube(min(m, 4)).to_graph()):
        assert sum(g.degree(v) for v in g.labels) == 2 * g.num_edges


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=8),
       st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
def test_handshake_and_roundtrip_on_random_graphs(n, pairs):
    labs = [VertexLabel(tree=i + 1) for i in range(n)]
    edges = [(labs[a % n], labs[b % n]) for a, b in pairs if a % n != b % n]
    g = Graph.build(labs, edges)
    assert sum(g.degree(v) for v in g.labels) == 2 * g.num_edges
    assert Graph.from_json(g.to_json()) == g


def test_handshake_on_constructed_graph(g72):
    _, g, _, _ = g72
    assert sum(g.degree(v) for v in g.labels) == 2 * g.num_edges


_scalars = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
            | st.text(max_size=2))
_json = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["id", "tree", "pos", "cube", "vertices", "edges", "t", "k"]),
    inner, max_size=4), max_leaves=12)
_label = st.fixed_dictionaries({"tree": st.none() | st.integers(0, 3),
                                "pos": st.sampled_from(["", "0", "1"]),
                                "cube": st.none() | st.just("1")})
_vertices = st.lists(_label, max_size=4).map(
    lambda labels: [dict(label, id=i) for i, label in enumerate(labels)])
_graph = st.fixed_dictionaries(
    {"vertices": _vertices | st.lists(_json, max_size=3),
     "edges": st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=2) | _json,
                       max_size=4)},
    optional={"t": st.integers(6, 8) | _scalars, "k": st.integers(1, 3) | _scalars})

@settings(max_examples=300)
@given(st.text(max_size=30) | _json.map(json.dumps) | _graph.map(json.dumps))
def test_from_json_raises_only_malformed_graph(text):
    try:
        g = Graph.from_json(text)
    except MalformedGraph:
        return
    assert Graph.from_json(g.to_json()) == g
