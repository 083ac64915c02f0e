"""Tree path decompositions: constructive side and exhaustive negative side.

The brute-force enumerator below builds every partition of a tree's edge
set into directed paths, independent of the production code, so the
"boundary minus at most one" law can be checked against all small trees
rather than just the decompositions we happen to construct.
"""
from collections import Counter

import networkx as nx
import pytest

import qgraph as qg
from qgraph.graphs import Coefficient, Edge, MetricGraph
from qgraph.treepaths import DirectedPath, PathUnion, path_union_to_dict

C1 = Coefficient.const(1.0)
C0 = Coefficient.const(0.0)


def _graph_from_nx(tree):
    nodes = sorted(tree.nodes())
    return MetricGraph(
        vertices=tuple(f"n{v}" for v in nodes),
        edges=tuple(
            Edge(f"e{k}", f"n{a}", f"n{b}", 1.0, C1, C0)
            for k, (a, b) in enumerate(sorted(map(sorted, tree.edges())))
        ),
    )


def test_path_union_path_graph_with_omit():
    g = qg.path_graph([1.0, 1.0])
    pu = qg.path_union(g, omit="v2")
    assert pu.source_set == frozenset({"v0"})
    assert len(pu.paths) == 1
    assert pu.paths[0].vertices == ("v0", "v1", "v2")
    assert qg.verify_tf(pu, g) == []
    active = qg.st_active_set(pu)
    assert active.i_star == frozenset({"v0"})
    assert active.j_star == frozenset()


def test_path_union_no_omit_splits_at_root():
    g = qg.path_graph([1.0, 1.0])
    pu = qg.path_union(g)
    assert pu.source_set == frozenset({"v0", "v2"})
    assert qg.verify_tf(pu, g) == []
    assert qg.st_active_set(pu).i_star == pu.source_set


def test_path_union_star_all_omits(star3):
    for omit in (None, "v1", "v2", "v3"):
        pu = qg.path_union(star3, omit=omit)
        assert qg.verify_tf(pu, star3) == []
        active = qg.st_active_set(pu)
        expected = set(star3.boundary_vertices) - ({omit} if omit else set())
        assert active.i_star == frozenset(expected)
        assert active.j_star == frozenset()


def test_path_union_errors(star3):
    with pytest.raises(qg.QGraphValidationError, match="path_union requires a tree"):
        qg.path_union(qg.lasso_graph())
    with pytest.raises(qg.QGraphValidationError, match="'vc' is not a boundary vertex"):
        qg.path_union(star3, omit="vc")
    with pytest.raises(qg.QGraphValidationError, match="'nope' is not a boundary vertex"):
        qg.path_union(star3, omit="nope")
    # a single edge cannot make both of its endpoints sources
    with pytest.raises(qg.QGraphValidationError, match="single-edge tree admits no path union"):
        qg.path_union(qg.interval_graph())


def test_single_edge_with_omit_is_fine():
    g = qg.interval_graph()
    pu = qg.path_union(g, omit="v1")
    assert pu.source_set == frozenset({"v0"})
    assert qg.verify_tf(pu, g) == []


def test_st_active_set_rejects_double_outgoing():
    g = qg.path_graph([1.0, 1.0])
    bad = PathUnion(
        paths=(
            DirectedPath(("v1", "v0"), ("e1",)),
            DirectedPath(("v1", "v2"), ("e2",)),
        ),
        source_set=frozenset({"v1"}),
    )
    with pytest.raises(qg.QGraphValidationError, match="'v1' has 2 outgoing edges"):
        qg.st_active_set(bad)


def test_verify_tf_flags_interior_crossing():
    """Two paths crossing at a common interior vertex violate condition (2)."""
    # 4-star: paths v1 -> vc -> v2 and v3 -> vc -> v4 share vc in both interiors
    g = qg.star_graph([1.0] * 4)
    pu = PathUnion(
        paths=(
            DirectedPath(("v1", "vc", "v2"), ("e1", "e2")),
            DirectedPath(("v3", "vc", "v4"), ("e3", "e4")),
        ),
        source_set=frozenset({"v1", "v3"}),
    )
    report = qg.verify_tf(pu, g)
    assert any("condition (2)" in r for r in report)


def test_verify_tf_flags_double_start_without_through_edges():
    """Two paths launched from the middle of a 2-edge path graph tangle there."""
    g = qg.path_graph([1.0, 1.0])
    pu = PathUnion(
        paths=(
            DirectedPath(("v1", "v0"), ("e1",)),
            DirectedPath(("v1", "v2"), ("e2",)),
        ),
        source_set=frozenset({"v1"}),
    )
    report = qg.verify_tf(pu, g)
    assert any("condition (3)" in r for r in report)


def test_verify_tf_flags_uncovered_edge(star3):
    pu = PathUnion(
        paths=(DirectedPath(("v1", "vc"), ("e1",)),),
        source_set=frozenset({"v1"}),
    )
    report = qg.verify_tf(pu, star3)
    assert any("condition (4)" in r for r in report)


_CATEGORIES = (
    "malformed path", "repeats a vertex", "unknown edge", "does not join", "edge reuse",
    "condition (2)", "condition (3)", "condition (4)", "source set does not match",
)


def _categories(report):
    return {c for r in report for c in _CATEGORIES if c in r}


_STAR3 = qg.star_graph([1.0, 1.0, 1.0])
_PATH2 = qg.path_graph([1.0, 1.0])


@pytest.mark.parametrize("graph, paths, sources, expected", [
    pytest.param(_STAR3, [(("v1", "vc"), ("e1", "e2"))], {"v1"},
                 {"malformed path", "condition (4)"}, id="malformed"),
    pytest.param(_STAR3, [(("v1", "vc", "v1"), ("e1", "e1"))], {"v1"},
                 {"repeats a vertex", "edge reuse", "condition (3)", "condition (4)"},
                 id="repeat"),
    pytest.param(_STAR3, [(("v1", "vc", "v2"), ("e1", "e2")), (("v3", "vc"), ("e9",))],
                 {"v1", "v3"}, {"unknown edge", "condition (4)"}, id="unknown-edge"),
    pytest.param(_STAR3, [(("v1", "vc", "v2"), ("e1", "e3")), (("v2", "vc"), ("e2",))],
                 {"v1", "v2"}, {"does not join", "condition (3)", "condition (4)"},
                 id="not-joined"),
    pytest.param(_PATH2, [(("v0", "v1", "v2"), ("e1", "e2")), (("v0", "v1"), ("e1",))],
                 {"v0"}, {"edge reuse", "condition (3)"}, id="edge-reuse"),
    pytest.param(_PATH2, [(("v0", "v1", "v2"), ("e1", "e2"))], {"v0", "v2"},
                 {"source set does not match"}, id="source-set"),
])
def test_verify_tf_flags_ill_formed_unions(graph, paths, sources, expected):
    """Hand-made unions the exhaustive sweep never builds: each one reaches
    a well-formedness check and reports exactly these categories."""
    pu = PathUnion(tuple(DirectedPath(*p) for p in paths), frozenset(sources))
    assert _categories(qg.verify_tf(pu, graph)) == expected


def test_verify_tf_requires_a_tree():
    tail = PathUnion((DirectedPath(("v1", "v0"), ("tail",)),), frozenset({"v1"}))
    with pytest.raises(qg.QGraphValidationError, match="verify_tf requires a tree"):
        qg.verify_tf(tail, qg.lasso_graph())


@pytest.mark.parametrize("graph, paths, sources, message", [
    pytest.param(_STAR3, [(("v1", "vc"), ("e1", "e2"))], {"v1"}, "malformed path",
                 id="malformed"),
    # each vertex leaves by one edge and the sources are the starts, but
    # both paths run along e2 in opposite directions
    pytest.param(qg.path_graph([1.0, 1.0, 1.0]),
                 [(("v0", "v1", "v2"), ("e1", "e2")), (("v3", "v2", "v1"), ("e3", "e2"))],
                 {"v0", "v3"}, "edge 'e2' appears in more than one path", id="edge-reuse"),
    # v1 starts one path and finishes the other, so it is no source, and the
    # declared sources leave it out: the starts are not the sources
    pytest.param(_PATH2, [(("v0", "v1"), ("e1",)), (("v1", "v2"), ("e2",))], {"v0"},
                 "declared source set does not match path starts", id="start-and-finish"),
])
def test_st_active_set_rejects_ill_formed_unions(graph, paths, sources, message):
    pu = PathUnion(tuple(DirectedPath(*p) for p in paths), frozenset(sources))
    assert qg.verify_tf(pu, graph)
    with pytest.raises(qg.QGraphValidationError, match=message):
        qg.st_active_set(pu)


def test_path_union_roundtrip(star3):
    pu = qg.path_union(star3, omit="v3")
    d = path_union_to_dict(pu)
    # each path is its vertex ids interleaved with its edge ids
    paths = tuple(DirectedPath(tuple(seq[0::2]), tuple(seq[1::2])) for seq in d["paths"])
    assert PathUnion(paths, frozenset(d["sources"])) == pu


def test_random_trees_tf_and_active_sets(rng):
    """Random trees, every omit choice: decomposition verifies, I* = sources."""
    for trial in range(40):
        n = int(rng.integers(2, 15))
        prufer = [int(x) for x in rng.integers(0, n, size=max(0, n - 2))]
        tree = nx.from_prufer_sequence(prufer) if n > 2 else nx.path_graph(n)
        g = _graph_from_nx(tree)
        boundary = g.boundary_vertices
        omits = list(boundary) + [None] if g.m > 1 else list(boundary)
        for omit in omits:
            pu = qg.path_union(g, omit=omit)
            assert qg.verify_tf(pu, g) == [], (prufer, omit)
            active = qg.st_active_set(pu)
            expected = frozenset(set(boundary) - ({omit} if omit else set()))
            assert active.i_star == expected
            assert active.j_star == frozenset()


# -- exhaustive negative check on small trees ---------------------------------


def _all_directed_tree_paths(g):
    """Every directed simple path of length >= 1, as (vertex seq, edge seq)."""
    out = []
    for v in g.vertices:
        for w in g.vertices:
            if v == w:
                continue
            seq = qg.unique_path(g, v, w)
            out.append(DirectedPath(tuple(seq[0::2]), tuple(seq[1::2])))
    return out


def _edge_partitions_into_paths(g):
    """Yield every set of directed paths that partitions the edge set."""
    candidates = _all_directed_tree_paths(g)
    all_edges = frozenset(e.id for e in g.edges)

    def extend(remaining, chosen, start_idx):
        if not remaining:
            yield tuple(chosen)
            return
        for i in range(start_idx, len(candidates)):
            p = candidates[i]
            pe = set(p.edges)
            if pe <= remaining:
                chosen.append(p)
                yield from extend(remaining - pe, chosen, i + 1)
                chosen.pop()

    yield from extend(all_edges, [], 0)


def _accepted(pu):
    try:
        return qg.st_active_set(pu).i_star
    except qg.QGraphValidationError:  # st_active_set raises it only for ill-formed unions
        return None


def test_no_tf_union_misses_two_boundary_sources():
    """Exhaustive over all trees with at most 7 vertices.

    Every edge partition into directed paths is declared with its path
    starts as sources.  Among those that pass the tangle-free check and
    start only at boundary vertices (the only source sets the existence
    law speaks about), each leaves out at most one boundary vertex;
    unions missing two never verify.  Unions with an interior starting
    vertex are a different animal (they correspond to a nonempty edge
    active set) and are excluded.  st_active_set accepts exactly the
    boundary-started verified unions, with I* their sources.
    """
    partitions = verified = checked_unions = 0
    missing_counts = Counter()
    for n in range(2, 8):
        for tree in nx.nonisomorphic_trees(n):
            g = _graph_from_nx(tree)
            boundary = set(g.boundary_vertices)
            for paths in _edge_partitions_into_paths(g):
                partitions += 1
                sources = frozenset(p.start for p in paths)
                pu = PathUnion(paths, sources)
                passes = not qg.verify_tf(pu, g)
                verified += passes
                if not (passes and sources <= boundary):
                    assert _accepted(pu) is None, paths
                    continue
                checked_unions += 1
                missing = boundary - sources
                assert len(missing) <= 1, (
                    f"TF union on {n}-vertex tree missing sources {missing}"
                )
                missing_counts[len(missing)] += 1
                assert _accepted(pu) == sources
    assert (partitions, verified) == (9252, 2067)
    assert checked_unions == 351
    assert missing_counts == {0: 101, 1: 250}


def test_brute_force_finds_the_constructed_unions(star3):
    """The production construction appears among the verified enumerated ones."""
    built = {
        frozenset(p for p in pu.paths)
        for pu in (qg.path_union(star3, omit=o) for o in (None, "v1", "v2", "v3"))
    }
    enumerated = set()
    for paths in _edge_partitions_into_paths(star3):
        pu = PathUnion(paths, frozenset(p.start for p in paths))
        if not qg.verify_tf(pu, star3):
            enumerated.add(frozenset(paths))
    assert built <= enumerated
