import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgraph as qg
from qgraph.graphs import Coefficient, Edge, MetricGraph


def test_star_builder_orientation():
    """Edge coordinates start at the boundary: tail vi, head vc."""
    g = qg.star_graph([1.0, 2.0, 3.0])
    assert g.vertices == ("vc", "v1", "v2", "v3")
    for i, e in enumerate(g.edges):
        assert e.tail == f"v{i + 1}"
        assert e.head == "vc"
        assert e.length == float(i + 1)
    assert g.boundary_vertices == ("v1", "v2", "v3")
    assert g.degree("vc") == 3


def test_interval_and_path_builders():
    ig = qg.interval_graph(2.5)
    assert ig.n == 2 and ig.m == 1
    assert ig.edges[0].length == 2.5
    assert ig == qg.path_graph([2.5])
    pg = qg.path_graph([1.0, 1.0, 1.0])
    assert pg.vertices == ("v0", "v1", "v2", "v3")
    assert pg.boundary_vertices == ("v0", "v3")


def test_validate_empty_on_good_graphs(star3):
    assert qg.validate(star3) == []
    assert qg.validate(qg.lasso_graph()) == []


def _violations(build):
    """The violations listed by the InvalidGraphError that build() raises."""
    with pytest.raises(qg.InvalidGraphError) as exc:
        build()
    return exc.value.violations


def test_validate_catches_structural_errors():
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    report = _violations(lambda: MetricGraph(
        vertices=("a", "a", "b"),
        edges=(
            Edge("e1", "a", "b", 1.0, c1, c0),
            Edge("e1", "a", "zz", -1.0, c1, c0),
        ),
    ))
    assert report == [
        "duplicate vertex id 'a'",
        "duplicate edge id 'e1'",
        "edge 'e1': unknown endpoint 'zz'",
        "edge 'e1': nonpositive length -1.0",
        "graph is disconnected",
    ]
    assert _violations(lambda: MetricGraph((), ())) == ["graph has no vertices"]


def test_validate_coefficient_signs():
    assert any("diffusion" in r for r in _violations(lambda: qg.interval_graph(1.0, c=0.0)))
    report = _violations(lambda: qg.interval_graph(1.0, p=-0.5))
    assert any("negative potential" in r for r in report)


def test_validate_rejects_non_finite_values():
    report = _violations(lambda: qg.interval_graph(float("inf")))
    assert any("non-finite length" in r for r in report)
    nan_c = Coefficient.linear_samples([1.0, float("nan"), 1.0])
    report = _violations(lambda: qg.interval_graph(1.0, c=nan_c))
    assert any("non-finite diffusion" in r for r in report)
    nan_p = Coefficient.cell_samples([0.5, float("nan")])
    report = _violations(lambda: qg.interval_graph(1.0, p=nan_p))
    assert any("non-finite potential" in r for r in report)


def test_validate_disconnected():
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    report = _violations(lambda: MetricGraph(
        vertices=("a", "b", "c", "d"),
        edges=(
            Edge("e1", "a", "b", 1.0, c1, c0),
            Edge("e2", "c", "d", 1.0, c1, c0),
        ),
    ))
    assert any("disconnected" in r for r in report)


def test_load_graph_rejects_invalid_json(tmp_path):
    data = {
        "vertices": ["a", "b"],
        "edges": [{"id": "e1", "tail": "a", "head": "b", "length": -2.0, "c": 0.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _violations(lambda: qg.load_graph(path)) == [
        "edge 'e1': nonpositive length -2.0",
        "edge 'e1': nonpositive diffusion",
    ]


def test_classify_basic_shapes(star3):
    assert star3.is_tree
    assert qg.path_graph([1, 1]).is_tree
    assert not qg.lasso_graph().is_tree


def test_classify_pure_cycle_is_loop():
    # triangle: every vertex degree 2
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    g = MetricGraph(
        vertices=("a", "b", "c"),
        edges=(
            Edge("e1", "a", "b", 1.0, c1, c0),
            Edge("e2", "b", "c", 1.0, c1, c0),
            Edge("e3", "c", "a", 1.0, c1, c0),
        ),
    )
    assert not g.is_tree


def test_classify_cycle_with_pendant_is_loop():
    """A cycle of degree-2 vertices hanging off a hub."""
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    g = MetricGraph(
        vertices=("h", "a", "b", "t"),
        edges=(
            Edge("e1", "h", "a", 1.0, c1, c0),
            Edge("e2", "a", "b", 1.0, c1, c0),
            Edge("e3", "b", "h", 1.0, c1, c0),
            Edge("e4", "h", "t", 1.0, c1, c0),
        ),
    )
    assert not g.is_tree


def test_classify_theta_is_general():
    # two hubs joined by three internally-subdivided strands
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    g = MetricGraph(
        vertices=("x", "y", "m1", "m2", "m3"),
        edges=(
            Edge("a1", "x", "m1", 1.0, c1, c0),
            Edge("a2", "m1", "y", 1.0, c1, c0),
            Edge("b1", "x", "m2", 1.0, c1, c0),
            Edge("b2", "m2", "y", 1.0, c1, c0),
            Edge("c1", "x", "m3", 1.0, c1, c0),
            Edge("c2", "m3", "y", 1.0, c1, c0),
        ),
    )
    assert not g.is_tree


def test_unique_path_on_path_graph():
    g = qg.path_graph([1.0, 1.0, 1.0])
    assert qg.unique_path(g, "v0", "v3") == ("v0", "e1", "v1", "e2", "v2", "e3", "v3")
    assert qg.unique_path(g, "v3", "v0") == ("v3", "e3", "v2", "e2", "v1", "e1", "v0")


def test_unique_path_star(star3):
    assert qg.unique_path(star3, "v1", "v2") == ("v1", "e1", "vc", "e2", "v2")


def test_unique_path_errors(star3):
    with pytest.raises(qg.QGraphValidationError, match="path endpoints coincide: 'v1'"):
        qg.unique_path(star3, "v1", "v1")
    with pytest.raises(qg.QGraphValidationError, match="unknown vertex 'nope'"):
        qg.unique_path(star3, "v1", "nope")
    with pytest.raises(qg.QGraphValidationError, match="unique_path requires a tree"):
        qg.unique_path(qg.lasso_graph(), "v0", "v1")


def test_roundtrip_dict(star3):
    d = qg.graph_to_dict(star3)
    g2 = qg.graph_from_dict(d)
    assert g2.vertices == star3.vertices
    assert len(g2.edges) == len(star3.edges)
    for a, b in zip(star3.edges, g2.edges):
        assert (a.id, a.tail, a.head, a.length) == (b.id, b.tail, b.head, b.length)
        assert (a.diffusion, a.potential) == (b.diffusion, b.potential)


def test_roundtrip_file(tmp_path, star3):
    path = tmp_path / "g.json"
    qg.save_graph(star3, path)
    g2 = qg.load_graph(path)
    assert qg.graph_to_dict(g2) == qg.graph_to_dict(star3)


def test_sampled_coefficient_roundtrip(tmp_path):
    data = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {
                "id": "e1",
                "tail": "a",
                "head": "b",
                "length": 1.0,
                "c": {"samples": [1.0, 2.0, 3.0], "grid": "uniform"},
                "p": 0.25,
            },
            {"id": "e2", "tail": "b", "head": "c", "length": 2.0, "p": {"samples": [0.5, 0.0]}},
        ],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    g = qg.load_graph(path)
    e = g.edges[0]
    assert not e.diffusion.is_constant
    np.testing.assert_allclose(e.diffusion.at(0.5, 1.0), 2.0)
    np.testing.assert_allclose(e.diffusion.at(0.25, 1.0), 1.5)
    assert e.potential == Coefficient.const(0.25)
    # sampled potentials are piecewise constant on cells
    assert g.edges[1].potential == Coefficient.cell_samples([0.5, 0.0])
    np.testing.assert_array_equal(g.edges[1].potential.at([0.5, 1.5], 2.0), [0.5, 0.0])
    # and back out again
    d2 = qg.graph_to_dict(g)
    assert d2["edges"][0]["c"]["samples"] == [1.0, 2.0, 3.0]
    assert d2["edges"][1]["p"]["samples"] == [0.5, 0.0]


def test_coefficient_extremes():
    c = Coefficient.linear_samples([2.0, 0.5, 1.0])
    assert c.minimum() == 0.5
    k = Coefficient.const(3.0)
    assert k.is_constant and k.at(0.77, 1.0) == 3.0


def _random_tree_graph(prufer):
    """Tree on n = len(prufer) + 2 vertices decoded from a Prüfer sequence."""
    n = len(prufer) + 2
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    seq = list(prufer)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    return MetricGraph(
        vertices=tuple(f"n{i}" for i in range(n)),
        edges=tuple(
            Edge(f"e{k}", f"n{a}", f"n{b}", 1.0, c1, c0) for k, (a, b) in enumerate(edges)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6))
def test_prufer_trees_classify_and_roundtrip(prufer):
    prufer = [x % (len(prufer) + 2) for x in prufer]
    g = _random_tree_graph(prufer)
    assert qg.validate(g) == []
    assert g.is_tree
    assert qg.graph_to_dict(qg.graph_from_dict(qg.graph_to_dict(g))) == qg.graph_to_dict(g)


def _nx_graph(vertices, edges):
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(vertices)
    nxg.add_edges_from((e.tail, e.head, {"id": e.id}) for e in edges)
    return nxg


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=6), st.data())
def test_unique_path_matches_networkx(prufer, data):
    import networkx as nx

    prufer = [x % (len(prufer) + 2) for x in prufer]
    g = _random_tree_graph(prufer)
    nxg = _nx_graph(g.vertices, g.edges)
    v = data.draw(st.sampled_from(g.vertices))
    w = data.draw(st.sampled_from([x for x in g.vertices if x != v]))
    path = qg.unique_path(g, v, w)
    assert list(path[0::2]) == nx.shortest_path(nxg, v, w)
    assert [nxg[a][b]["id"] for a, b in zip(path[0:-1:2], path[2::2])] == list(path[1::2])


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=2),
)
def test_is_tree_matches_networkx(prufer, extra):
    """A random tree plus zero to two extra edges, self-loops and parallel
    edges included."""
    import networkx as nx

    tree = _random_tree_graph([x % (len(prufer) + 2) for x in prufer])
    c1, c0 = Coefficient.const(1.0), Coefficient.const(0.0)
    g = MetricGraph(tree.vertices, tree.edges + tuple(
        Edge(f"x{k}", f"n{i % tree.n}", f"n{j % tree.n}", 1.0, c1, c0)
        for k, (i, j) in enumerate(extra)
    ))
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from((e.tail, e.head) for e in g.edges)
    assert g.is_tree == nx.is_tree(nxg)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=2),
)
def test_disconnected_matches_networkx(prufer_a, prufer_b, bridges):
    """Two trees side by side, joined by zero or more bridges between them."""
    import networkx as nx

    a = _random_tree_graph([x % (len(prufer_a) + 2) for x in prufer_a])
    b = _random_tree_graph([x % (len(prufer_b) + 2) for x in prufer_b])
    c1, c0 = Coefficient.const(1.0), Coefficient.const(0.0)
    vertices = tuple(f"a{v}" for v in a.vertices) + tuple(f"b{v}" for v in b.vertices)
    edges = (
        tuple(Edge(f"a{e.id}", f"a{e.tail}", f"a{e.head}", 1.0, c1, c0) for e in a.edges)
        + tuple(Edge(f"b{e.id}", f"b{e.tail}", f"b{e.head}", 1.0, c1, c0) for e in b.edges)
        + tuple(
            Edge(f"x{k}", f"an{i % a.n}", f"bn{j % b.n}", 1.0, c1, c0)
            for k, (i, j) in enumerate(bridges)
        )
    )
    try:
        MetricGraph(vertices, edges)
        report = []
    except qg.InvalidGraphError as exc:
        report = exc.violations
    assert ("graph is disconnected" in report) == (not nx.is_connected(_nx_graph(vertices, edges)))
    assert report in ([], ["graph is disconnected"])


def test_only_graphs_calls_validate():
    """A graph is checked once, when it is built: no other module re-checks."""
    from pathlib import Path

    src = Path(qg.__file__).parent
    callers = [p.name for p in sorted(src.glob("*.py")) if "validate(" in p.read_text("utf-8")]
    assert callers == ["graphs.py"]
