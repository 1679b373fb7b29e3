import gc
import hashlib
import json
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import neighbours, row

from broadcastnet import (
    Graph,
    MalformedGraph,
    UnknownVertex,
    VertexLabel,
    build,
    build_binomial,
    build_hypercube,
    certify_graph,
    make_params,
)


def _triangle():
    labs = [VertexLabel(tree=i) for i in (1, 2, 3)]
    return Graph.from_sorted(labs, [(0, 1), (1, 2), (0, 2)])


def test_degree_single_vertex():
    v = VertexLabel(tree=1)
    g = Graph.from_sorted([v], [])
    assert neighbours(g, v) == []


def test_degree_triangle_and_q3():
    g = _triangle()
    assert all(len(neighbours(g, v)) == 2 for v in g.labels)
    q3 = build_hypercube(3).to_graph()
    assert all(len(neighbours(q3, v)) == 3 for v in q3.labels)


def test_vertex_id_of_unknown_vertex():
    g = _triangle()
    assert [g.vertex_id(v) for v in g.labels] == [0, 1, 2]
    assert VertexLabel(tree=9) not in g
    with pytest.raises(UnknownVertex):
        g.vertex_id(VertexLabel(tree=9))


def test_connectivity():
    v1, v2 = VertexLabel(tree=1), VertexLabel(tree=2)
    assert Graph.from_sorted([v1], []).is_connected()
    assert not Graph.from_sorted([v1, v2], []).is_connected()
    assert build_hypercube(4).to_graph().is_connected()


def test_export_json_single_vertex():
    g = Graph.from_sorted([VertexLabel(tree=1)], [])
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


def test_duplicate_edges_inserted_once():
    vertices = [VertexLabel(tree=i + 1).to_json(i) for i in range(2)]
    g = Graph.from_json(json.dumps({"vertices": vertices, "edges": [[0, 1], [1, 0], [0, 1]]}))
    assert g.num_edges == 1 and g.edge_ids() == [(0, 1)]


def test_a_repeated_or_reversed_edge_in_a_file_counts_once():
    # rows are sorted, and only a row with two equal neighbours side by side
    # is made distinct: (0, 1) comes twice, (0, 2) once reversed, among
    # other neighbours of the same rows
    vertices = [VertexLabel(tree=i + 1).to_json(i) for i in range(4)]
    edges = [[0, 1], [2, 3], [0, 2], [1, 3], [2, 0], [0, 1], [3, 0]]
    g = Graph.from_json(json.dumps({"vertices": vertices, "edges": edges}))
    clean = Graph.from_sorted([VertexLabel(tree=i + 1) for i in range(4)],
                              [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert g == clean and g.to_json() == clean.to_json()
    assert [list(row(g, v)) for v in range(4)] == [[1, 2, 3], [0, 3], [0, 3], [0, 1, 2]]


@pytest.mark.parametrize("field,value", [("pos", "2"), ("pos", "0 1"), ("cube", "x"),
                                         ("cube", "1\n"), ("pos", '0"')])
def test_from_json_rejects_a_label_that_is_not_binary(field, value):
    vertex = {"id": 0, "tree": 1, "pos": "01", "cube": ""}
    assert Graph.from_json(json.dumps({"vertices": [vertex], "edges": []})).n == 1
    vertex[field] = value
    with pytest.raises(MalformedGraph):
        Graph.from_json(json.dumps({"vertices": [vertex], "edges": []}))


# SHA-256 of export(fmt) for fmt in json, dot, edgelist of Q^m then B^m, m = 0..6
PRIMITIVES_DIGEST = "0d5deeddeaeb92bb1516af8021957b2f7d422def8955b0ba68438d2e169796a3"


def test_primitive_exports_are_pinned():
    digest = hashlib.sha256()
    for m in range(7):
        for g in (build_hypercube(m).to_graph(), build_binomial(m).to_graph()):
            for fmt in ("json", "dot", "edgelist"):
                digest.update(g.export(fmt))
    assert digest.hexdigest() == PRIMITIVES_DIGEST


@given(st.integers(min_value=0, max_value=6))
def test_handshake_identity_on_primitives(m):
    for g in (build_binomial(m).to_graph(), build_hypercube(min(m, 4)).to_graph()):
        assert sum(len(row(g, v)) for v in range(g.n)) == 2 * g.num_edges


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=8),
       st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
def test_handshake_and_roundtrip_on_random_graphs(n, pairs):
    labs = [VertexLabel(tree=i + 1) for i in range(n)]
    edges = [(a % n, b % n) for a, b in pairs if a % n != b % n]
    g = Graph.from_sorted(labs, edges)
    assert sum(len(row(g, v)) for v in range(g.n)) == 2 * g.num_edges
    assert g.num_edges == len({frozenset(e) for e in edges})
    assert Graph.from_json(g.to_json()) == g


def test_handshake_on_constructed_graph(g72):
    _, g, _, _ = g72
    assert sum(len(row(g, v)) for v in range(g.n)) == 2 * g.num_edges


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


def test_csr_memory_guard():
    # the adjacency is two C-int arrays and nothing per vertex, so a return
    # of per-vertex sets (about 35 B per directed edge) fails here
    params = make_params(10, 3, 1500)
    g, _, _ = build(params)
    n, m = g.n, g.num_edges
    assert (g.offsets.itemsize, g.targets.itemsize) == (4, 4)
    assert len(g.offsets) * 4 + len(g.targets) * 4 == 4 * (n + 1) + 4 * 2 * m
    held = [r for r in gc.get_referents(g) if isinstance(r, (list, tuple, dict, set, frozenset))]
    assert held == [g.labels]
    labels, edges = list(g.labels), g.edge_ids()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = Graph.from_sorted(labels, edges)
        kept = tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(again.labels)
    finally:
        tracemalloc.stop()
    assert again == g
    assert kept < 16 * 2 * m, kept / (2 * m)


def test_pickle_leaves_out_the_caches():
    # the label index and the checker's record are rebuilt where needed, so
    # a certification leaves the pickle as it was
    params = make_params(12, 5, 7936)
    g, layout, _ = build(params)
    originators = list(g.labels[::61])
    size = len(pickle.dumps(g))
    report = certify_graph(g, layout, params, originators=originators)
    assert report.passed and g._verdicts is not None and g._index is not None
    assert len(pickle.dumps(g)) == size
    loaded = pickle.loads(pickle.dumps(g))
    assert loaded == g and (loaded.t, loaded.k) == (g.t, g.k)
    assert loaded._verdicts is None and loaded._index is None
    again = certify_graph(loaded, layout, params, originators=originators)
    assert again.to_json() == report.to_json()
