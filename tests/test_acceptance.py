"""End-to-end checks at the advertised scales, one criterion per test.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to
see them live).  These run the package the way a user would — full mesh
sizes, full sample counts, wall-clock budgets included — so they are
slower than the unit tests and pin down the quantitative claims the
library is sold on.
"""
import heapq
import itertools
from contextlib import contextmanager
from time import perf_counter

import networkx as nx
import numpy as np

import qgraph as qg
from qgraph.graphs import Coefficient, Edge, MetricGraph
from qgraph.noise import NoiseModel
from qgraph.treepaths import DirectedPath, PathUnion

PI2 = np.pi**2


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


# -- helpers shared with the unit tests (kept local so this module stands alone)

C1 = Coefficient.const(1.0)
C0 = Coefficient.const(0.0)


def _graph_from_edges(n, pairs):
    return MetricGraph(
        vertices=tuple(f"n{i}" for i in range(n)),
        edges=tuple(
            Edge(f"e{k}", f"n{a}", f"n{b}", 1.0, C1, C0)
            for k, (a, b) in enumerate(pairs)
        ),
    )


def _tree_from_prufer(prufer):
    n = len(prufer) + 2
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    pairs = []
    for x in prufer:
        leaf = heapq.heappop(leaves)
        pairs.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return _graph_from_edges(n, pairs)


def _all_directed_tree_paths(g):
    out = []
    for v, w in itertools.permutations(g.vertices, 2):
        seq = qg.unique_path(g, v, w)
        out.append(DirectedPath(tuple(seq[0::2]), tuple(seq[1::2])))
    return out


def _edge_partitions_into_paths(g):
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


# -- the criteria ---------------------------------------------------------------


def test_criterion_1_equilateral_star_spectrum():
    with criterion(1, "equilateral 3-star spectrum at mesh 512, "
                      "(k+1/2)^2 pi^2 doublets to 1e-4"):
        t0 = perf_counter()
        g = qg.star_graph([1.0, 1.0, 1.0])
        eig = qg.solve_spectrum(g, 512, 20)
        elapsed = perf_counter() - t0
        for k in range(6):
            mu = (k + 0.5) ** 2 * PI2
            hits = [
                ci
                for ci, (a, b) in enumerate(eig.clusters)
                if abs(eig.lambdas[a:b].mean() - mu) <= 1e-4 * mu
            ]
            assert len(hits) == 1, f"expected one cluster at {mu}, got {hits}"
            a, b = eig.clusters[hits[0]]
            assert b - a == 2, f"cluster at {mu} has multiplicity {b - a}"
            np.testing.assert_allclose(eig.lambdas[a:b], mu, rtol=1e-4)
        assert elapsed <= 10.0, f"solve took {elapsed:.1f} s"


def test_criterion_2_antisymmetric_traces():
    with criterion(2, "center traces: exact zeros analytically, "
                      "rank <= 2 and <= 1e-6 numerically"):
        st = qg.star_analytic(3, 1.0, num_clusters=10)
        antisym = [ci for ci, (a, b) in enumerate(st.clusters) if b - a == 2]
        assert antisym
        for ci in antisym:
            tm = st.trace_matrix(ci)
            assert np.all(tm[0] == 0.0)  # bitwise zero at the center

        eig = qg.solve_spectrum(qg.star_graph([1.0, 1.0, 1.0]), 256, 14)
        checked = 0
        for ci, (a, b) in enumerate(eig.clusters):
            if b - a != 2:
                continue
            tm = eig.trace_matrix(ci)
            assert np.linalg.matrix_rank(tm, tol=1e-6) <= 2
            assert np.linalg.norm(tm[0]) <= 1e-6
            checked += 1
        assert checked >= 3


def test_criterion_3_feller_verdict_matrix():
    with criterion(3, "verdict matrix: quiet pair / one quiet / loop / "
                      "rational star, under 30 s"):
        t0 = perf_counter()
        star = qg.star_graph([1.0, 1.0, 1.0])

        va = qg.decide_feller(
            star, NoiseModel.from_diagonal(star, {"v1": 1.0}),
            elements_per_edge=128, num_modes=16,
        )
        assert va.verdict == "NotStrongFeller"
        assert va.witness is not None and va.witness.residual <= 1e-6

        vb = qg.decide_feller(
            star, NoiseModel.from_diagonal(star, {"v1": 1.0, "v2": 1.0}),
            elements_per_edge=128, num_modes=16,
        )
        assert (vb.verdict, vb.rule) == ("StrongFeller", "thm-main")

        lasso = qg.lasso_graph()
        q_eye = NoiseModel.from_diagonal(lasso, {v: 1.0 for v in lasso.vertices})
        vc = qg.decide_feller(lasso, q_eye, elements_per_edge=128, num_modes=24)
        assert vc.verdict == "NotStrongFeller"
        assert np.linalg.norm(vc.witness.traces) <= 1e-6

        ratio = qg.star_graph([3.0, 1.0, 1.0])
        vd = qg.decide_feller(ratio, NoiseModel.from_diagonal(ratio, {"v3": 1.0}))
        assert (vd.verdict, vd.rule) == ("NotStrongFeller", "rational-star")
        np.testing.assert_allclose(vd.witness.eigenvalue, PI2 / 4, rtol=1e-12)

        elapsed = perf_counter() - t0
        assert elapsed <= 30.0, f"verdict matrix took {elapsed:.1f} s"


def test_criterion_4_st_active_sets():
    with criterion(4, "200 random trees x every omit constructively; "
                      "exhaustive negative check on trees up to 7 vertices"):
        rng = np.random.default_rng(20240817)
        trees = 0
        while trees < 200:
            n = int(rng.integers(2, 21))
            prufer = [int(x) for x in rng.integers(0, n, size=n - 2)]
            g = _tree_from_prufer(prufer)
            boundary = set(g.boundary_vertices)
            for omit in [None, *sorted(boundary)]:
                if omit is None and len(g.edges) == 1:
                    # a lone edge cannot start a path at both of its ends
                    with np.testing.assert_raises_regex(qg.QGraphValidationError,
                                                        "single-edge tree admits no path union"):
                        qg.path_union(g, omit=None)
                    continue
                pu = qg.path_union(g, omit=omit)
                assert qg.verify_tf(pu, g) == []
                active = qg.st_active_set(pu)
                assert active.i_star == frozenset(boundary - ({omit} if omit else set()))
                assert active.j_star == frozenset()
            trees += 1

        verified = 0
        for n in range(2, 8):
            for tree in nx.nonisomorphic_trees(n):
                g = _graph_from_edges(
                    n, sorted(map(sorted, tree.edges()))
                )
                boundary = set(g.boundary_vertices)
                for paths in _edge_partitions_into_paths(g):
                    sources = frozenset(p.start for p in paths)
                    if not sources <= boundary:
                        continue  # interior sources: a nonempty edge active set
                    pu = PathUnion(paths, sources)
                    if qg.verify_tf(pu, g):
                        continue
                    verified += 1
                    assert len(boundary - sources) <= 1, (
                        f"TF union on {n}-vertex tree missing {boundary - sources}"
                    )
        assert verified > 50


def test_criterion_5_null_control():
    with criterion(5, "interval steering >= 1e3 reduction at residual <= 1e-8; "
                      "witness direction immovable to 1e-12"):
        eig = qg.interval_analytic(1.0, num_modes=10)
        nm = NoiseModel.from_diagonal(eig.graph, {"v1": 1.0})  # Q = diag(0, 1)
        z0 = np.zeros(10)
        z0[1], z0[2], z0[3] = 1.0, 0.5, 0.25
        res = qg.solve_null_control(eig, nm, z0, 1.0, num_modes=10)
        assert np.linalg.norm(res.residual) <= 1e-8
        assert res.uncontrolled_norm / res.terminal_norm >= 1e3

        star = qg.star_analytic(3, 1.0, num_clusters=8)
        star_nm = NoiseModel.from_diagonal(star.graph, {"v1": 1.0})
        verdict = qg.decide_feller(star.graph, star_nm, eig=star)
        assert verdict.verdict == "NotStrongFeller"
        a, b = star.clusters[verdict.witness.cluster_index]
        w0 = np.zeros(10)
        w0[a:b] = verdict.witness.coefficients
        wres = qg.solve_null_control(star, star_nm, w0, 1.0, num_modes=10)
        np.testing.assert_allclose(
            np.abs(wres.residual), np.abs(wres.moment_rhs), atol=1e-12
        )
        np.testing.assert_allclose(
            wres.terminal_norm, wres.uncontrolled_norm, rtol=1e-10
        )


def test_criterion_6_stochastic_covariance():
    with criterion(6, "1e5-sample ensembles match the Gaussian law within "
                      "4 SE; keeping 0, 10 or all paths bit-identical; under 60 s"):
        t0 = perf_counter()
        interval = qg.interval_analytic(1.0, num_modes=10)
        star = qg.star_analytic(3, 1.0, num_clusters=8)
        cases = [
            (interval, NoiseModel.from_diagonal(interval.graph, {"v1": 1.0})),
            (star, NoiseModel.from_diagonal(star.graph, {"v1": 1.0, "vc": 0.5})),
        ]
        # the default blocks of 1024 do not divide 1e5: the last block is partial
        assert 100_000 % qg.sim.BLOCK_SAMPLES != 0
        for eig, nm in cases:
            base = qg.simulate(
                eig, nm, np.zeros(10), 1.0, 16, 100_000,
                seed=42, num_modes=10,
            )
            report = qg.verify_covariance(base)
            assert report.max_cov_z <= 4.0, f"covariance z = {report.max_cov_z:.2f}"
            assert report.max_mean_z <= 4.0
            assert report.zero_entries_ok
            for keep in (0, 10):
                other = qg.simulate(
                    eig, nm, np.zeros(10), 1.0, 16, 100_000,
                    seed=42, num_modes=10, keep_paths=keep,
                )
                assert all(np.array_equal(a, b) for a, b in zip(base.moments, other.moments))
                assert np.array_equal(other.coeffs, base.coeffs[:keep])
                del other
            del base
        elapsed = perf_counter() - t0
        assert elapsed <= 60.0, f"ensembles took {elapsed:.1f} s"


def test_criterion_7_regularity_threshold():
    with criterion(7, "2000-mode profile: alpha 0.0/0.2 convergent, "
                      "0.3/0.5 divergent, slopes 4a-2 +- 0.1"):
        st = qg.star_analytic(3, 1.0, num_clusters=1340)
        assert st.num_modes >= 2000
        nm = NoiseModel.from_diagonal(st.graph, {"v1": 1.0})
        entries = qg.regularity_profile(
            st, nm, 1.0, [0.0, 0.2, 0.3, 0.5], num_modes=2000
        )
        flags = {}
        for e in entries:
            np.testing.assert_allclose(e.tail_slope, 4 * e.alpha - 2, atol=0.1)
            flags[e.alpha] = e.convergent
        assert flags == {0.0: True, 0.2: True, 0.3: False, 0.5: False}


def test_criterion_8_invariant_measure():
    with criterion(8, "no potential + noise: No with linear kernel growth; "
                      "potential 1: Yes, bounded and Cauchy"):
        free_cases = [
            qg.interval_analytic(1.0, num_modes=10),
            qg.star_analytic(3, 1.0, num_clusters=8),
        ]
        for eig in free_cases:
            nm = NoiseModel.from_diagonal(eig.graph, {"v1": 1.0})
            report = qg.invariant_measure_check(eig, nm, horizons=(1.0, 2.0, 4.0))
            assert not report.exists and report.rule == "kernel-mode-noise"
            ratios = np.asarray(report.kernel_terms) / report.kernel_terms[0]
            np.testing.assert_allclose(ratios, [1.0, 2.0, 4.0], rtol=0.01)

        for g in (qg.interval_graph(p=1.0), qg.star_graph([1.0, 1.0, 1.0], p=1.0)):
            eig = qg.solve_spectrum(g, 128, 12)
            nm = NoiseModel.from_diagonal(g, {"v1": 1.0})
            report = qg.invariant_measure_check(eig, nm, horizons=(1.0, 2.0, 4.0, 8.0))
            assert report.exists and report.rule == "exponential-stability"
            totals = np.asarray(report.hs_totals)
            lam = eig.lambdas[: report.num_modes]
            channels = eig.vertex_traces[: report.num_modes] @ nm.q_sqrt
            stationary = float(np.sum(np.sum(channels**2, axis=1) / (2 * lam)))
            assert np.all(totals <= stationary + 1e-12)  # bounded uniformly in T
            diffs = np.diff(totals)
            assert np.all(diffs >= -1e-15)
            assert np.all(diffs[1:] <= 0.5 * diffs[:-1] + 1e-15)  # Cauchy
