import csv

import numpy as np
import pytest

import qgraph as qg
from qgraph.spectral import assemble, eigensolve, star_pair_modes

PI2 = np.pi**2


def _path_order_permutation(op):
    """Permutation taking the vertex-first dof order to left-to-right order
    along a single edge (tail, interiors..., head)."""
    lay = op.layout
    dofs = lay.edge_dofs(0)
    return np.asarray(dofs)


def test_assemble_interval_tridiag_two_elements():
    """Classical textbook stencil for one edge, two elements of size 1/2."""
    g = qg.interval_graph(1.0)
    op = assemble(g, 2)
    perm = _path_order_permutation(op)
    k = op.stiffness.toarray()[np.ix_(perm, perm)]
    expected = (1.0 / 0.5) * np.array(
        [
            [1.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 1.0],
        ]
    )
    np.testing.assert_allclose(k, expected, atol=1e-14)
    m = op.mass.toarray()[np.ix_(perm, perm)]
    h = 0.5
    expected_m = (h / 6.0) * np.array(
        [
            [2.0, 1.0, 0.0],
            [1.0, 4.0, 1.0],
            [0.0, 1.0, 2.0],
        ]
    )
    np.testing.assert_allclose(m, expected_m, atol=1e-14)


def test_star_dof_count():
    n = 16
    op = assemble(qg.star_graph([1.0, 1.0, 1.0]), n)
    assert op.layout.total_dof == 3 * (n - 1) + 4


def test_constant_potential_adds_mass():
    g0 = qg.star_graph([1.0, 0.7, 1.3], p=0.0)
    g1 = qg.star_graph([1.0, 0.7, 1.3], p=1.0)
    k0 = assemble(g0, 8)
    k1 = assemble(g1, 8)
    np.testing.assert_allclose(
        k1.stiffness.toarray(), (k0.stiffness + k0.mass).toarray(), atol=1e-14
    )


def test_assembled_matrices_symmetric_and_psd(star3):
    op = assemble(star3, 32)
    k = op.stiffness.toarray()
    m = op.mass.toarray()
    np.testing.assert_allclose(k, k.T, atol=1e-14)
    np.testing.assert_allclose(m, m.T, atol=1e-14)
    assert np.linalg.eigvalsh(m).min() > 0
    assert np.linalg.eigvalsh(k).min() > -1e-12


def test_interval_fem_eigenvalues():
    g = qg.interval_graph(1.0)
    eig = qg.solve_spectrum(g, 128, 6)
    for k in range(6):
        # P1 eigenvalue error is about (k pi h)^2 / 12 relative
        np.testing.assert_allclose(eig.lambdas[k], k**2 * PI2, rtol=2e-3, atol=1e-8)
    # endpoint traces of the cosine modes have magnitude sqrt(2)
    for k in range(1, 5):
        np.testing.assert_allclose(abs(eig.vertex_traces[k, 0]), np.sqrt(2.0), rtol=1e-3)


def test_interval_eigenvalue_convergence_is_second_order():
    g = qg.interval_graph(1.0)
    errs = []
    for n in (16, 32, 64):
        eig = qg.solve_spectrum(g, n, 3)
        errs.append(abs(eig.lambdas[2] - 4 * PI2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_star_fem_clusters(star3_eig):
    """Alternating simple symmetric and double antisymmetric eigenvalues."""
    eig = star3_eig
    assert eig.cluster_multiplicity(0) == 1
    np.testing.assert_allclose(eig.cluster_eigenvalue(0), 0.0, atol=1e-9)
    # cluster at pi^2/4 with multiplicity exactly 2
    np.testing.assert_allclose(eig.cluster_eigenvalue(1), PI2 / 4, rtol=1e-4)
    assert eig.cluster_multiplicity(1) == 2
    # simple symmetric mode at pi^2
    np.testing.assert_allclose(eig.cluster_eigenvalue(2), PI2, rtol=1e-4)
    assert eig.cluster_multiplicity(2) == 1
    np.testing.assert_allclose(eig.cluster_eigenvalue(3), 9 * PI2 / 4, rtol=5e-4)
    assert eig.cluster_multiplicity(3) == 2


def test_star_fem_antisym_center_traces(star3_eig):
    tm = star3_eig.trace_matrix(1)
    assert tm.shape == (4, 2)
    assert np.linalg.norm(tm[0]) <= 1e-6  # row of the center vertex
    assert np.linalg.matrix_rank(tm, tol=1e-8) <= 2


def test_eigensolve_invariants_on_assorted_graphs():
    """Residuals, mass-orthonormality, ordering, nonnegativity."""
    graphs = [
        qg.star_graph([1.0, 1.5, 0.5]),
        qg.path_graph([0.8, 1.2]),
        qg.lasso_graph(1.0, 0.6),
        qg.star_graph([1.0, 1.0], p=0.3),
    ]
    for g in graphs:
        op = assemble(g, 48)
        eig = eigensolve(op, 10)
        assert np.all(np.diff(eig.lambdas) >= -1e-10)
        assert eig.lambdas[0] >= -1e-12
        assert np.max(eig.residuals) <= 1e-7
        m = op.mass.toarray()
        for ci in range(len(eig.clusters)):
            lo, hi = eig.clusters[ci]
            v = eig.vectors[lo:hi]
            gram = v @ m @ v.T
            np.testing.assert_allclose(gram, np.eye(hi - lo), atol=1e-8)


def test_repeated_solves_are_identical():
    """The fixed Lanczos start makes the eigensystem a pure function of its
    input, also inside the 9-fold clusters of the 10-star (dof 2561)."""
    g = qg.star_graph([1.0] * 10)
    first = qg.solve_spectrum(g, 256, 30)
    second = qg.solve_spectrum(g, 256, 30)
    assert first.layout.total_dof == 2561
    assert max(b - a for a, b in first.clusters) == 9
    assert np.array_equal(first.lambdas, second.lambdas)
    assert np.array_equal(first.vectors, second.vectors)


def test_constant_kernel_mode(star3_eig):
    """p = 0 on a connected graph: lambda_0 = 0 simple, eigenfunction constant."""
    v0 = star3_eig.vectors[0]
    assert star3_eig.cluster_multiplicity(0) == 1
    assert np.ptp(v0) <= 1e-6 * np.abs(v0).max()


def test_positive_potential_shifts_bottom():
    g = qg.star_graph([1.0, 1.0, 1.0], p=1.0)
    eig = qg.solve_spectrum(g, 64, 4)
    np.testing.assert_allclose(eig.lambdas[0], 1.0, rtol=1e-10)


def test_weyl_growth_bracket(interval_eig):
    lam = interval_eig.lambdas
    ks = np.arange(1, len(lam))
    ratio = lam[1:] / ks**2
    np.testing.assert_allclose(ratio, PI2, rtol=1e-12)


def test_trusted_range_marks_coarse_modes():
    g = qg.interval_graph(1.0)
    eig = qg.solve_spectrum(g, 8, 8)  # deliberately coarse
    assert bool(eig.trusted[0])
    assert not bool(eig.trusted[-1])
    # trusted clusters exclude anything touching the last computed mode
    assert (len(eig.clusters) - 1) not in eig.trusted_cluster_indices()


def test_variable_diffusion_matches_constant_when_flat():
    flat = qg.interval_graph(1.0, c=2.0)
    sampled = qg.graph_from_dict(
        {
            "vertices": ["v0", "v1"],
            "edges": [
                {
                    "id": "e1",
                    "tail": "v0",
                    "head": "v1",
                    "length": 1.0,
                    "c": {"samples": [2.0, 2.0, 2.0], "grid": "uniform"},
                    "p": 0.0,
                }
            ],
        }
    )
    k1 = assemble(flat, 16).stiffness.toarray()
    k2 = assemble(sampled, 16).stiffness.toarray()
    np.testing.assert_allclose(k1, k2, atol=1e-14)


def test_diffusion_scaling():
    """c -> 4c scales the whole spectrum by 4 on a p = 0 graph."""
    e1 = qg.solve_spectrum(qg.interval_graph(1.0, c=1.0), 64, 5)
    e4 = qg.solve_spectrum(qg.interval_graph(1.0, c=4.0), 64, 5)
    np.testing.assert_allclose(e4.lambdas[1:], 4 * e1.lambdas[1:], rtol=1e-10)


# -- analytic systems ----------------------------------------------------------


def test_star_analytic_eigenvalues_and_traces(star3_analytic):
    eig = star3_analytic
    np.testing.assert_allclose(eig.lambdas[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(eig.lambdas[1], PI2 / 4)
    np.testing.assert_allclose(eig.lambdas[2], PI2 / 4)
    # pinned trace pattern at (vc, v1, v2, v3)
    np.testing.assert_allclose(eig.vertex_traces[1], [0.0, 1.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(eig.vertex_traces[2], [0.0, 1.0, 0.0, -1.0], atol=1e-15)
    # constant mode trace 1/sqrt(N ell)
    np.testing.assert_allclose(eig.vertex_traces[0], np.full(4, 1 / np.sqrt(3.0)))


def test_star_analytic_center_zero_is_exact(star3_analytic):
    assert np.all(star3_analytic.vertex_traces[1:3, 0] == 0.0)


def test_star_analytic_family_overlap_is_half():
    """Members of one antisymmetric family share the first edge: <g1, g2> = 1/2."""
    eig = qg.star_analytic(3, 1.0, num_clusters=2, elements_per_edge=256)
    op = assemble(eig.graph, 256)
    g1, g2 = eig.vectors[1], eig.vectors[2]
    overlap = g1 @ (op.mass @ g2)
    assert overlap == pytest.approx(0.5, abs=2e-4)
    assert g1 @ (op.mass @ g1) == pytest.approx(1.0, abs=2e-4)


def test_star_pair_modes_scale_invariance():
    for ell in (0.5, 1.0, 2.0):
        modes = star_pair_modes(4, ell, k=1)
        assert len(modes) == 3
        for j, m in enumerate(modes):
            np.testing.assert_allclose(m.eigenvalue, (1.5 * np.pi / ell) ** 2)
            np.testing.assert_allclose(m.amplitudes[0], np.sqrt(1 / ell))
            np.testing.assert_allclose(m.amplitudes[j + 1], -np.sqrt(1 / ell))
            assert (m.sign, m.orders) == (-1, (1, 1))


def test_star_analytic_n2_matches_interval():
    """A 2-star of unit edges is an interval of length 2 folded at the middle."""
    st = qg.star_analytic(2, 1.0, num_clusters=6)
    iv = qg.interval_analytic(2.0, num_modes=6)
    np.testing.assert_allclose(st.lambdas[:6], iv.lambdas[:6], atol=1e-10)


def test_interval_analytic_traces(interval_eig):
    np.testing.assert_allclose(interval_eig.vertex_traces[0], [1.0, 1.0])
    for k in range(1, 6):
        np.testing.assert_allclose(interval_eig.vertex_traces[k, 0], np.sqrt(2.0))
        np.testing.assert_allclose(
            interval_eig.vertex_traces[k, 1], np.sqrt(2.0) * (-1.0) ** k
        )
        np.testing.assert_allclose(interval_eig.lambdas[k], k**2 * PI2)


def test_analytic_matches_fem_interval():
    fem = qg.solve_spectrum(qg.interval_graph(1.0), 256, 6)
    ana = qg.interval_analytic(1.0, num_modes=6)
    np.testing.assert_allclose(fem.lambdas, ana.lambdas, rtol=1e-3, atol=1e-8)


# -- rational two-edge modes ---------------------------------------------------


def test_rational_mode_one_three():
    m = qg.rational_star_mode([1.0, 3.0, 1.0], i=1, n1=0, ni=1)
    np.testing.assert_allclose(m.eigenvalue, PI2 / 4)
    assert m.traces[0] == 0.0  # center
    # only the two supported boundary ends carry a trace
    assert m.traces[1] != 0.0 and m.traces[2] != 0.0
    np.testing.assert_allclose(m.traces[3], 0.0)


def test_rational_mode_equal_lengths_reduces_to_pair():
    m = qg.rational_star_mode([1.0, 1.0, 1.0], i=1, n1=0, ni=0)
    np.testing.assert_allclose(m.eigenvalue, PI2 / 4)
    # same parity: opposite signs, the equilateral antisymmetric pattern
    np.testing.assert_allclose(m.traces[1], -m.traces[2])


def test_rational_mode_sign_parity():
    # orders 0 and 1 have different parity: same sign at both ends
    m = qg.rational_star_mode([3.0, 1.0], i=1, n1=1, ni=0)
    assert m.sign == 1.0
    np.testing.assert_allclose(m.traces[1], m.traces[2])


def test_rational_condition_failure():
    with pytest.raises(qg.RationalConditionFailedError):
        qg.rational_star_mode([1.0, 2.0], i=1, n1=0, ni=0)


def test_rational_mode_input_validation():
    with pytest.raises(ValueError):
        qg.rational_star_mode([1.0, 3.0], i=0, n1=0, ni=1)
    with pytest.raises(ValueError):
        qg.rational_star_mode([1.0, 3.0], i=5, n1=0, ni=1)


# -- boundary pairing ----------------------------------------------------------


def test_adjoint_check_zero_alpha(star3):
    op = assemble(star3, 32)
    h = np.zeros(op.layout.total_dof)
    h[: star3.n] = 1.0
    assert qg.adjoint_check(op, np.zeros(star3.n), np.ones(op.layout.total_dof)) == 0.0


def test_adjoint_pairing_interval_constant_test_function():
    """With h identically 1 the boundary pairing evaluates to -sum(alpha)."""
    g = qg.interval_graph(1.0)
    op = assemble(g, 64)
    alpha = np.array([1.0, 0.0])
    z = qg.dirichlet_lift(op, alpha)
    h = np.ones(op.layout.total_dof)
    shifted = op.stiffness + op.mass
    pairing = h @ (shifted @ z)
    assert pairing == pytest.approx(-1.0, abs=1e-10)
    assert qg.adjoint_check(op, alpha, h) <= 1e-6


def test_adjoint_check_random_conforming(star3, rng):
    op = assemble(star3, 64)
    for _ in range(5):
        alpha = rng.standard_normal(star3.n)
        h = rng.standard_normal(op.layout.total_dof)
        assert qg.adjoint_check(op, alpha, h) <= 1e-6


def test_dirichlet_lift_residual(star3, rng):
    op = assemble(star3, 32)
    alpha = rng.standard_normal(star3.n)
    z = qg.dirichlet_lift(op, alpha)
    rhs = np.zeros(op.layout.total_dof)
    rhs[: star3.n] = -alpha
    res = (op.stiffness + op.mass) @ z - rhs
    assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(alpha))


# -- exports -------------------------------------------------------------------


def test_spectrum_csv(tmp_path, star3_eig):
    path = tmp_path / "spec.csv"
    qg.spectrum_to_csv(star3_eig, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "lambda", "cluster_id", "trusted",
                       "trace_vc", "trace_v1", "trace_v2", "trace_v3"]
    assert len(rows) == 1 + star3_eig.num_modes
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-9)


def test_mode_csv(tmp_path, star3_eig):
    path = tmp_path / "mode.csv"
    qg.mode_to_csv(star3_eig, 1, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge", "x", "value"]
    edges = {r[0] for r in rows[1:]}
    assert edges == {"e1", "e2", "e3"}


def test_mode_index_out_of_range(tmp_path, star3_eig):
    for k in (-1, star3_eig.num_modes):
        with pytest.raises(ValueError, match="mode index"):
            star3_eig.edge_values(k)
        with pytest.raises(ValueError, match="mode index"):
            qg.mode_to_csv(star3_eig, k, tmp_path / "mode.csv")
    assert not (tmp_path / "mode.csv").exists()
