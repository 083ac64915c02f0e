import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgraph as qg
from qgraph import GraphClass
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
    pg = qg.path_graph([1.0, 1.0, 1.0])
    assert pg.vertices == ("v0", "v1", "v2", "v3")
    assert pg.boundary_vertices == ("v0", "v3")


def test_validate_empty_on_good_graphs(star3):
    assert qg.validate(star3) == []
    assert qg.validate(qg.lasso_graph()) == []


def test_validate_catches_structural_errors():
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    bad = MetricGraph(
        vertices=("a", "a", "b"),
        edges=(
            Edge("e1", "a", "b", 1.0, c1, c0),
            Edge("e1", "a", "zz", -1.0, c1, c0),
        ),
    )
    report = qg.validate(bad)
    joined = "\n".join(report)
    assert "duplicate vertex" in joined
    assert "duplicate edge" in joined
    assert "unknown endpoint" in joined
    assert "nonpositive length" in joined


def test_validate_coefficient_signs():
    g = qg.interval_graph(1.0, c=0.0)
    assert any("diffusion" in r for r in qg.validate(g))
    g2 = qg.interval_graph(1.0, p=-0.5)
    assert any("negative potential" in r for r in qg.validate(g2))


def test_validate_rejects_non_finite_values():
    g = qg.interval_graph(float("inf"))
    assert any("non-finite length" in r for r in qg.validate(g))
    g2 = qg.interval_graph(1.0, c=Coefficient.linear_samples([1.0, float("nan"), 1.0]))
    assert any("non-finite diffusion" in r for r in qg.validate(g2))
    g3 = qg.interval_graph(1.0, p=Coefficient.cell_samples([0.5, float("nan")]))
    assert any("non-finite potential" in r for r in qg.validate(g3))


def test_validate_disconnected():
    c1 = Coefficient.const(1.0)
    c0 = Coefficient.const(0.0)
    g = MetricGraph(
        vertices=("a", "b", "c", "d"),
        edges=(
            Edge("e1", "a", "b", 1.0, c1, c0),
            Edge("e2", "c", "d", 1.0, c1, c0),
        ),
    )
    assert any("disconnected" in r for r in qg.validate(g))


def test_classify_basic_shapes(star3):
    assert qg.classify(star3) is GraphClass.TREE
    assert qg.classify(qg.path_graph([1, 1])) is GraphClass.TREE
    assert qg.classify(qg.lasso_graph()) is GraphClass.HAS_LOOP


def test_classify_pure_cycle_is_loop():
    # triangle: every vertex degree 2, contracts to a loop
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
    assert qg.classify(g) is GraphClass.HAS_LOOP


def test_classify_cycle_with_pendant_is_loop():
    """A cycle of degree-2 vertices hanging off a hub contracts to a self-loop."""
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
    assert qg.classify(g) is GraphClass.HAS_LOOP


def test_classify_theta_is_general():
    # two hubs joined by three internally-subdivided strands: cycles exist
    # but none is vertex-free after contraction
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
    assert qg.classify(g) is GraphClass.GENERAL_WITH_CYCLE


def test_unique_path_on_path_graph():
    g = qg.path_graph([1.0, 1.0, 1.0])
    assert qg.unique_path(g, "v0", "v3") == ("v0", "e1", "v1", "e2", "v2", "e3", "v3")
    assert qg.unique_path(g, "v3", "v0") == ("v3", "e3", "v2", "e2", "v1", "e1", "v0")


def test_unique_path_star(star3):
    assert qg.unique_path(star3, "v1", "v2") == ("v1", "e1", "vc", "e2", "v2")


def test_unique_path_errors(star3):
    with pytest.raises(qg.SameVertexError):
        qg.unique_path(star3, "v1", "v1")
    with pytest.raises(qg.UnknownVertexError):
        qg.unique_path(star3, "v1", "nope")
    with pytest.raises(qg.NotATreeError):
        qg.unique_path(qg.lasso_graph(), "v0", "v1")


def test_roundtrip_dict(star3):
    d = qg.graph_to_dict(star3)
    g2 = qg.graph_from_dict(d)
    assert g2.vertices == star3.vertices
    assert len(g2.edges) == len(star3.edges)
    for a, b in zip(star3.edges, g2.edges):
        assert (a.id, a.tail, a.head, a.length) == (b.id, b.tail, b.head, b.length)
        assert a.diffusion.constant_value == b.diffusion.constant_value
        assert a.potential.constant_value == b.potential.constant_value


def test_roundtrip_file(tmp_path, star3):
    path = tmp_path / "g.json"
    qg.save_graph(star3, path)
    g2 = qg.load_graph(path)
    assert qg.graph_to_dict(g2) == qg.graph_to_dict(star3)


def test_sampled_coefficient_roundtrip(tmp_path):
    data = {
        "vertices": ["a", "b"],
        "edges": [
            {
                "id": "e1",
                "tail": "a",
                "head": "b",
                "length": 1.0,
                "c": {"samples": [1.0, 2.0, 3.0], "grid": "uniform"},
                "p": 0.25,
            }
        ],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    g = qg.load_graph(path)
    e = g.edges[0]
    assert not e.diffusion.is_constant
    np.testing.assert_allclose(e.diffusion.at(0.5, 1.0), 2.0)
    np.testing.assert_allclose(e.diffusion.at(0.25, 1.0), 1.5)
    assert e.potential.constant_value == 0.25
    # and back out again
    d2 = qg.graph_to_dict(g)
    assert d2["edges"][0]["c"]["samples"] == [1.0, 2.0, 3.0]


def test_coefficient_extremes():
    c = Coefficient.linear_samples([2.0, 0.5, 1.0])
    assert c.minimum() == 0.5
    assert c.maximum() == 2.0
    k = Coefficient.const(3.0)
    assert k.is_constant and k.at(0.77, 1.0) == 3.0


def test_star_center(star3):
    assert qg.star_center(star3) == "vc"
    assert qg.star_center(qg.path_graph([1, 1])) == "v1"  # a 2-star
    assert qg.star_center(qg.interval_graph()) is None
    assert qg.star_center(qg.lasso_graph()) is None
    assert qg.star_center(qg.path_graph([1, 1, 1])) is None


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
    assert qg.classify(g) is GraphClass.TREE
    assert qg.graph_to_dict(qg.graph_from_dict(qg.graph_to_dict(g))) == qg.graph_to_dict(g)
