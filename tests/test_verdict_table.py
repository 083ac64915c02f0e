"""The equilateral-tree verdict table: every change to a Feller verdict is
judged against it.

All non-isomorphic trees with 3 to 7 vertices and unit edges, with unit
diagonal noise on every vertex subset (at 7 vertices on every subset of
the leaves), the empty subset included: 740 cases, each decided from one
eigensolve per tree passed as eig=.  A change that moves the histogram
updates the pin, and CHANGES.md names every case that moved, from which
verdict and rule to which.
"""
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import qgraph as qg
from qgraph import tolerances as tol
from qgraph.feller import decide_feller, hautus_obstruction, sufficient_tree_rule

nx = pytest.importorskip("networkx")

PINNED = {("NotStrongFeller", "hautus"): 328, ("StrongFeller", "thm-main"): 294,
          ("Unknown", "unknown"): 118}


def _unit_tree(tree) -> qg.MetricGraph:
    c1, c0 = qg.Coefficient.const(1.0), qg.Coefficient.const(0.0)
    return qg.MetricGraph(
        vertices=tuple(f"n{v}" for v in sorted(tree.nodes())),
        edges=tuple(qg.Edge(f"e{k}", f"n{a}", f"n{b}", 1.0, c1, c0)
                    for k, (a, b) in enumerate(sorted(map(sorted, tree.edges())))),
    )


def _cases():
    """(graph, its eigensystem, noise) for every case of the table."""
    for n in range(3, 8):
        for tree in nx.nonisomorphic_trees(n):
            graph = _unit_tree(tree)
            eig = qg.solve_spectrum(graph, 32, 20)
            pool = graph.boundary_vertices if n == 7 else graph.vertices
            for size in range(len(pool) + 1):
                for subset in combinations(pool, size):
                    yield graph, eig, qg.NoiseModel.from_diagonal(graph, dict.fromkeys(subset, 1.0))


def test_equilateral_tree_verdict_table():
    """The pinned histogram of (verdict, rule); every Hautus witness's
    residual, recomputed from its traces and Q^(1/2), is at most
    TRACE_ZERO; and no case gets both the tree rule and a Hautus witness
    (both mechanisms run on every case, not only the first that fires)."""
    histogram = Counter()
    for graph, eig, noise in _cases():
        verdict = decide_feller(graph, noise, eig=eig)
        histogram[verdict.verdict, verdict.rule] += 1
        witness = hautus_obstruction(eig, noise)
        if witness is not None:
            assert np.linalg.norm(noise.q_sqrt @ witness.traces) <= tol.TRACE_ZERO
            assert sufficient_tree_rule(graph, noise) is None, graph.vertices
    assert dict(histogram) == PINNED
