import csv

import numpy as np
import pytest

import qgraph as qg
from qgraph.control import _eta, solve_null_control
from qgraph.noise import NoiseModel

PI2 = np.pi**2


def test_eta_limits():
    np.testing.assert_allclose(_eta(np.array(0.0), 2.5), 2.5)
    mu = np.array([0.1, 1.0, 10.0])
    np.testing.assert_allclose(_eta(mu, 1.0), (1 - np.exp(-mu)) / mu)
    # continuous through zero
    np.testing.assert_allclose(_eta(np.array(1e-14), 1.0), 1.0, rtol=1e-10)
    # a roundoff-sized rate at a horizon where mu t underflows: still t
    assert np.array_equal(_eta(np.array([0.0, 3e-31, 1.0]), 1e-320), np.full(3, 1e-320))


def test_zero_state_needs_no_control(interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    res = solve_null_control(interval_eig, nm, [0.0], 1.0, num_modes=5)
    assert res.control_norm == 0.0
    assert res.uncontrolled_norm == 0.0
    np.testing.assert_allclose(res.control, 0.0)


def test_single_mode_closed_form(interval_eig):
    """One controllable mode at lambda = 0: |u| = z0 / (w0 sqrt(T))."""
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    for horizon in (1.0, 4.0):
        res = solve_null_control(interval_eig, nm, [1.0], horizon, num_modes=1)
        # channel weight of the constant mode at v1 is f_0(v1) * sqrt(q) = 1
        np.testing.assert_allclose(res.control_norm, 1.0 / np.sqrt(horizon), rtol=1e-12)
        assert res.terminal_norm <= 1e-12


def test_control_norm_scales_inversely_with_noise(interval_eig):
    n1 = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    n4 = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 4.0})
    z0 = [1.0, 0.5, 0.25]
    r1 = solve_null_control(interval_eig, n1, z0, 1.0, num_modes=6)
    r4 = solve_null_control(interval_eig, n4, z0, 1.0, num_modes=6)
    np.testing.assert_allclose(r4.control_norm, 0.5 * r1.control_norm, rtol=1e-10)


def test_moment_problem_interval(interval_eig):
    """Feasible steering: big terminal reduction, tiny moment residual."""
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    z0 = [0.0, 1.0, 0.5, 0.25]
    res = solve_null_control(interval_eig, nm, z0, 1.0, num_modes=10)
    assert np.linalg.norm(res.residual) <= 1e-8
    assert res.uncontrolled_norm / max(res.terminal_norm, 1e-300) >= 1e3
    assert not res.diagnostics.residual_above_tol


def test_moment_rhs_is_decayed_state(interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    z0 = np.array([1.0, 0.5, 0.25])
    res = solve_null_control(interval_eig, nm, z0, 2.0, num_modes=3)
    np.testing.assert_allclose(
        res.moment_rhs, np.exp(-interval_eig.lambdas[:3] * 2.0) * z0, rtol=1e-12
    )
    np.testing.assert_allclose(res.uncontrolled_norm, np.linalg.norm(res.moment_rhs))
    # -lambda T overflows to -inf: every mode but the kernel decays to exactly 0
    res = solve_null_control(interval_eig, nm, z0, 1e307, num_modes=3)
    assert res.moment_rhs.tolist() == [1.0, 0.0, 0.0]


def test_control_reconstructs_moments(interval_eig):
    """Trapezoid quadrature of e^{-lambda (T-t)} w^T u(t) recovers b - r."""
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    res = solve_null_control(interval_eig, nm, [1.0, 0.4, 0.2], 1.0,
                             num_modes=6, grid_points=4001)
    lam = interval_eig.lambdas[:6]
    channels = interval_eig.vertex_traces[:6] @ nm.q_sqrt
    t = res.times
    for k in range(6):
        profile = np.exp(-lam[k] * (1.0 - t))
        integrand = profile * (res.control @ channels[k])
        got = np.trapezoid(integrand, t)
        want = res.moment_rhs[k] - res.residual[k]
        np.testing.assert_allclose(got, want, atol=1e-4)


def test_witness_direction_is_unreachable(star3_analytic):
    """Noise-invisible mode: the control cannot touch it at all."""
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0})
    # mode 1 traces (0, 1, -1, 0); q_sqrt kills the v1 entry of nothing --
    # spread z0 over the obstructed difference of modes 1 and 2: traces
    # (0, 0, -1, 1), invisible to noise at v1 alone
    z0 = np.zeros(6)
    z0[1] = 1.0
    z0[2] = -1.0
    res = solve_null_control(star3_analytic, nm, z0, 1.0, num_modes=6)
    assert res.diagnostics.residual_above_tol
    # residual equals the uncontrolled coefficients exactly: nothing moved
    np.testing.assert_allclose(
        np.linalg.norm(res.residual), res.uncontrolled_norm, rtol=1e-10
    )


def test_control_is_zero_at_quiet_vertices(star3_analytic):
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0})
    res = solve_null_control(star3_analytic, nm, [1.0, 0.3], 1.0, num_modes=4)
    # columns (vc, v2, v3) carry no actuation when only v1 is noisy
    np.testing.assert_allclose(res.control[:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(res.control[:, 2], 0.0, atol=1e-14)
    np.testing.assert_allclose(res.control[:, 3], 0.0, atol=1e-14)
    assert np.max(np.abs(res.control[:, 1])) > 0


def test_diagnostics_shape(interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    res = solve_null_control(interval_eig, nm, [1.0], 1.0, num_modes=8)
    d = res.diagnostics.to_json()
    assert d["gram_size"] == 8
    assert 1 <= d["gram_rank"] <= 8
    assert d["condition"] >= 1.0
    assert isinstance(d["residual_above_tol"], bool)


def test_horizon_validation(interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    with pytest.raises(ValueError):
        solve_null_control(interval_eig, nm, [1.0], 0.0)
    for horizon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            solve_null_control(interval_eig, nm, [1.0], horizon)
    with pytest.raises(ValueError):
        solve_null_control(interval_eig, nm, np.ones(20), 1.0, num_modes=5)
    with pytest.raises(ValueError, match="grid_points"):
        solve_null_control(interval_eig, nm, [1.0], 1.0, grid_points=1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="z0"):
            solve_null_control(interval_eig, nm, [1.0, bad], 1.0, num_modes=4)


def _reference_control_csv(result, vertices, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"u_{v}" for v in vertices])
        for i, t in enumerate(result.times):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in result.control[i]])


def test_control_csv_matches_csv_module(tmp_path):
    """The control writer gives csv.writer's bytes, vertex ids quoted."""
    c1, c0 = qg.Coefficient.const(1.0), qg.Coefficient.const(0.0)
    g = qg.MetricGraph(
        vertices=("x,y", 'q"v', "w"),
        edges=(qg.Edge("a", "x,y", 'q"v', 1.0, c1, c0), qg.Edge("b", 'q"v', "w", 0.7, c1, c0)),
    )
    eig = qg.solve_spectrum(g, 16, 6)
    res = solve_null_control(eig, NoiseModel.from_diagonal(g, {"x,y": 1.0}), [1.0, 0.5], 1.0,
                             grid_points=11)
    qg.control_to_csv(res, g.vertices, tmp_path / "new.csv")
    _reference_control_csv(res, g.vertices, tmp_path / "ref.csv")
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.startswith(b't,"u_x,y","u_q""v",u_w\r\n0.0,')


def test_control_csv(tmp_path, interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {"v1": 1.0})
    res = solve_null_control(interval_eig, nm, [1.0, 0.5], 1.0,
                             num_modes=4, grid_points=11)
    path = tmp_path / "u.csv"
    qg.control_to_csv(res, interval_eig.graph.vertices, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "u_v0", "u_v1"]
    assert len(rows) == 12
    np.testing.assert_allclose(float(rows[1][0]), 0.0)
    np.testing.assert_allclose(float(rows[-1][0]), 1.0)
