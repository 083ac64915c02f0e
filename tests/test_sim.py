import csv
import tracemalloc

import numpy as np
import pytest

import qgraph as qg
from qgraph import sim
from qgraph import tolerances as tol
from qgraph.control import _eta
from qgraph.errors import (
    CovarianceNotPSDError,
    SpectralGapAmbiguousError,
    SpectrumTooCoarseError,
)
from qgraph.noise import NoiseModel
from qgraph.sim import _innovation_cholesky

PI2 = np.pi**2


def _interval_noise(eig, q=1.0):
    return NoiseModel.from_diagonal(eig.graph, {"v1": q})


def test_no_noise_is_exact_decay(interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {})
    z0 = np.array([1.0, -0.5, 0.25, 0.0])
    ens = qg.simulate(interval_eig, nm, z0, 1.0, 16, 5, seed=7, num_modes=4)
    for i, t in enumerate(ens.times):
        expect = np.exp(-interval_eig.lambdas[:4] * t) * z0
        for s in range(5):
            np.testing.assert_allclose(ens.coeffs[s, i], expect, atol=1e-14)


def test_kernel_mode_variance_grows_linearly(interval_eig):
    """lambda = 0: the coefficient is a Brownian motion, Var = w^2 t."""
    nm = _interval_noise(interval_eig)
    ens = qg.simulate(interval_eig, nm, [0.0], 1.0, 8, 6000, seed=11, num_modes=1)
    w2 = float(ens.channels[0] @ ens.channels[0])
    for i in (2, 4, 8):
        t = float(ens.times[i])
        np.testing.assert_allclose(ens.analytic_covariance(t)[0, 0], w2 * t, rtol=1e-12)
        emp = ens.coeffs[:, i, 0].var()
        se = w2 * t * np.sqrt(2.0 / ens.num_samples)
        assert abs(emp - w2 * t) <= 4 * se


def test_variance_matches_ou_law(interval_eig):
    nm = _interval_noise(interval_eig)
    ens = qg.simulate(interval_eig, nm, [0.0, 0.0], 1.0, 20, 6000, seed=3, num_modes=2)
    lam = interval_eig.lambdas[1]
    w2 = float(ens.channels[1] @ ens.channels[1])
    exact = w2 * (1 - np.exp(-2 * lam)) / (2 * lam)
    np.testing.assert_allclose(ens.analytic_covariance(1.0)[1, 1], exact, rtol=1e-12)
    emp = ens.coeffs[:, -1, 1].var()
    assert abs(emp - exact) <= 4 * exact * np.sqrt(2.0 / ens.num_samples)


def test_euler_maruyama_cross_check(interval_eig):
    """Independent integrator agrees on the stationary-ish variance."""
    nm = _interval_noise(interval_eig)
    lam = float(interval_eig.lambdas[1])
    ens = qg.simulate(interval_eig, nm, [0.0, 0.0], 1.0, 20, 4000, seed=5, num_modes=2)
    w = float(np.linalg.norm(ens.channels[1]))

    rng = np.random.default_rng(99)
    steps, nsamp = 2000, 4000
    dt = 1.0 / steps
    x = np.zeros(nsamp)
    for _ in range(steps):
        x += -lam * x * dt + w * np.sqrt(dt) * rng.standard_normal(nsamp)
    exact = w**2 * (1 - np.exp(-2 * lam)) / (2 * lam)
    np.testing.assert_allclose(x.var(), exact, rtol=0.08)
    np.testing.assert_allclose(ens.coeffs[:, -1, 1].var(), exact, rtol=0.08)


def test_kept_paths_never_change_moments(interval_eig, monkeypatch):
    nm = _interval_noise(interval_eig)
    z0 = [0.2, 0.1, 0.0, 0.0]
    # one block, then blocks of 5 with a partial last block
    for block in (sim.BLOCK_SAMPLES, 5):
        monkeypatch.setattr(sim, "BLOCK_SAMPLES", block)
        full, *partial = (
            qg.simulate(interval_eig, nm, z0, 1.0, 12, 13, seed=42, num_modes=4, keep_paths=keep)
            for keep in (None, 0, 10, 13, 100)
        )
        assert full.coeffs.shape == (13, 13, 4) and full.num_samples == 13
        for ens in partial:
            assert ens.num_samples == 13
            assert all(np.array_equal(a, b) for a, b in zip(ens.moments, full.moments))
            assert np.array_equal(ens.coeffs, full.coeffs[: len(ens.coeffs)])
        assert [len(ens.coeffs) for ens in partial] == [0, 10, 13, 13]


def test_moments_match_kept_paths(interval_eig, monkeypatch):
    """The moments summed while sampling are those of the paths themselves."""
    monkeypatch.setattr(sim, "BLOCK_SAMPLES", 7)
    z0 = [0.5, -0.2, 0.1]
    ens = qg.simulate(interval_eig, _interval_noise(interval_eig), z0, 1.0, 9, 30, seed=8,
                      num_modes=3)
    d = ens.coeffs - ens.analytic_mean(ens.times)
    first, second = ens.moments
    np.testing.assert_allclose(first, d.mean(axis=0), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(second, np.einsum("sti,stj->tij", d, d) / 30, rtol=1e-12)
    assert not np.any(first[0]) and not np.any(second[0])
    assert not first.flags.writeable and not second.flags.writeable


def test_block_buffers_bounded_by_budget(interval_eig, monkeypatch):
    """Working memory beyond the kept paths and the moments does not grow
    with the sample count: it stays within a few blocks' worth of paths."""
    nm = _interval_noise(interval_eig)
    monkeypatch.setattr(sim, "BLOCK_SAMPLES", 10)
    budget_bytes = 8 * sim.BLOCK_SAMPLES * 9 * 4  # one block of paths
    for samples in (200, 2000):
        tracemalloc.start()
        try:
            ens = qg.simulate(interval_eig, nm, [0.0], 1.0, 8, samples, seed=1, num_modes=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.coeffs.shape == (samples, 9, 4)
        stored = ens.coeffs.nbytes + sum(m.nbytes for m in ens.moments)
        assert peak - stored <= 2 * budget_bytes + 64 * 1024


def test_moment_pass_bounded_by_budget(interval_eig, monkeypatch):
    """Reading the moments needs no temporary the size of the ensemble."""
    nm = _interval_noise(interval_eig)
    monkeypatch.setattr(sim, "BLOCK_SAMPLES", 20)
    budget_bytes = 8 * sim.BLOCK_SAMPLES * 9 * 4
    for samples in (200, 2000):
        ens = qg.simulate(interval_eig, nm, [0.3], 1.0, 8, samples, seed=1, num_modes=4)
        tracemalloc.start()
        try:
            first, second = ens.moments
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (9, 4) and second.shape == (9, 4, 4)
        assert peak <= 2 * budget_bytes + 64 * 1024


def test_memory_independent_of_sample_count(interval_eig, monkeypatch):
    """With no path kept, memory beyond the moments does not grow with the blocks."""
    nm = _interval_noise(interval_eig)
    monkeypatch.setattr(sim, "BLOCK_SAMPLES", 50)
    extra = []
    for samples in (100, 1000):  # 2 and 20 blocks
        tracemalloc.start()
        try:
            ens = qg.simulate(interval_eig, nm, [0.3], 1.0, 8, samples, seed=1, num_modes=4,
                              keep_paths=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - sum(m.nbytes for m in ens.moments))
    assert extra[1] <= extra[0] + 4096


def test_block_replays_from_recipe(interval_eig, monkeypatch):
    """Every block, the partial last one too, replays from the documented
    recipe, and so do the moments summed in block order."""
    monkeypatch.setattr(sim, "BLOCK_SAMPLES", 4)
    nm = _interval_noise(interval_eig)
    steps, k, n = 4, 3, 10  # blocks of 4, 4 and 2 samples
    ens = qg.simulate(interval_eig, nm, [0.5, -0.25], 1.0, steps, n, seed=17, num_modes=k)
    dt = 1.0 / steps
    lam = ens.lambdas
    cov = (ens.channels @ ens.channels.T) * _eta(lam[:, None] + lam[None, :], dt)
    chol, _ = _innovation_cholesky(0.5 * (cov + cov.T))
    decay = np.exp(-lam * dt)
    mean = ens.analytic_mean(ens.times)
    first, second = np.zeros((steps + 1, k)), np.zeros((steps + 1, k, k))
    for j, lo in enumerate((0, 4, 8)):
        b = min(4, n - lo)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=17, spawn_key=(j,)))
        x = np.tile(ens.z0, (b, 1))
        assert np.array_equal(ens.coeffs[lo : lo + b, 0], x)
        for i in range(1, steps + 1):
            x = decay * x + rng.standard_normal((b, k)) @ chol.T
            assert np.array_equal(ens.coeffs[lo : lo + b, i], x)
            d = x - mean[i]
            first[i] += d.sum(axis=0)
            second[i] += d.T @ d
    assert np.array_equal(ens.moments[0], first / n)
    assert np.array_equal(ens.moments[1], second / n)


def test_parseval_energy(interval_eig):
    """Mean squared norm at T equals trace of covariance plus mean energy."""
    nm = _interval_noise(interval_eig)
    z0 = np.array([0.3, 0.2, 0.1, 0.0, 0.0, 0.0])
    ens = qg.simulate(interval_eig, nm, z0, 1.0, 20, 5000, seed=23, num_modes=6)
    energies = np.sum(ens.coeffs[:, -1, :] ** 2, axis=1)
    expect = np.trace(ens.analytic_covariance(1.0)) + np.sum(ens.analytic_mean(1.0) ** 2)
    se = energies.std(ddof=1) / np.sqrt(len(energies))
    assert abs(energies.mean() - expect) <= 5 * se


def test_verify_covariance_full_grid(interval_eig):
    nm = _interval_noise(interval_eig)
    ens = qg.simulate(interval_eig, nm, np.zeros(4), 1.0, 10, 4000, seed=31, num_modes=4)
    report = qg.verify_covariance(ens)
    assert report.passed()
    assert report.zero_entries_ok
    assert len(report.max_cov_z_per_time) == len(ens.times)
    assert report.frac_within_3se > 0.9
    assert report.empirical_final.shape == (4, 4)
    keys = set(report.to_json())
    assert {"max_cov_z", "max_mean_z", "frac_within_3se", "zero_entries_ok"} <= keys


def test_verify_covariance_single_time(interval_eig):
    nm = _interval_noise(interval_eig)
    ens = qg.simulate(interval_eig, nm, np.zeros(3), 1.0, 10, 3000, seed=37, num_modes=3)
    report = qg.verify_covariance(ens, t_index=-1)
    assert len(report.times) == 1
    np.testing.assert_allclose(report.times[0], 1.0)
    np.testing.assert_allclose(
        report.analytic_final, ens.analytic_covariance(1.0), rtol=1e-12
    )


def _per_time_reference(ens, indices):
    """The per-time loop verify_covariance replaced: (max z, mean z) at each time."""
    s = ens.num_samples
    cov_z, mean_z = [], []
    for idx in indices:
        t = float(ens.times[idx])
        centered = ens.coeffs[:, idx, :] - ens.analytic_mean(t)
        emp = (centered.T @ centered) / s
        ana = ens.analytic_covariance(t)
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana**2) / s)
        live = se > 0
        cov_z.append(float((np.abs(emp[live] - ana[live]) / se[live]).max()))
        var = np.diag(ana)
        dlive = var > 0
        means = centered.mean(axis=0)
        mean_z.append(float((np.abs(means[dlive]) / np.sqrt(var[dlive] / s)).max()))
    return np.array(cov_z), np.array(mean_z)


def test_verify_covariance_matches_per_time_reference(star3_analytic):
    # one noisy leaf: quiet modes and zero-variance entries on every time
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0})
    z0 = [0.8, 0.0, -0.4, 0.3]
    ens = qg.simulate(star3_analytic, nm, z0, 1.0, 12, 1500, seed=41, num_modes=6)
    full = range(len(ens.times))
    for t_index, indices in ((None, list(full)[1:]), (-1, [full[-1]])):
        report = qg.verify_covariance(ens, t_index=t_index)
        cov_z, mean_z = _per_time_reference(ens, indices)
        per_time = report.max_cov_z_per_time[-len(indices):]
        np.testing.assert_allclose(per_time, cov_z, rtol=1e-12)
        np.testing.assert_allclose(report.max_mean_z, mean_z.max(), rtol=1e-12)
        assert report.zero_entries_ok
    # t = 0 sits on the exact law: nothing is live, nothing deviates
    assert qg.verify_covariance(ens, t_index=0).max_cov_z == 0.0


def test_verify_covariance_is_scale_free():
    """Scaling the noise by q scales every coefficient by sqrt(q); the z-scores
    must not move, even where the variances' product would overflow."""
    eig = qg.star_analytic(3, 1.0, num_clusters=4)
    reports = []
    for q in (1.0, 2.0**700):
        nm = NoiseModel.from_diagonal(eig.graph, {"v1": q, "vc": q / 2})
        ens = qg.simulate(eig, nm, [], 1.0, 8, 400, seed=3, num_modes=4)
        reports.append(qg.verify_covariance(ens))
    small, large = reports
    assert small.max_cov_z > 1.0
    np.testing.assert_allclose(large.max_cov_z_per_time, small.max_cov_z_per_time, rtol=1e-12)
    np.testing.assert_allclose(large.max_mean_z, small.max_mean_z, rtol=1e-12)
    assert large.frac_within_3se == small.frac_within_3se
    # at the smallest positive intensity the standard errors underflow to
    # zero: those entries count as noiseless, and no warning escapes
    eig = qg.interval_analytic(1.0, num_modes=3)
    nm = NoiseModel.from_diagonal(eig.graph, {"v0": 5e-324})
    ens = qg.simulate(eig, nm, [], 1.0, 3, 20, seed=3)
    assert qg.verify_covariance(ens).passed()


def test_analytic_law_stacks_over_times(star3_analytic):
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0, "v2": 0.5})
    ens = qg.simulate(star3_analytic, nm, [0.5, 0.25], 2.0, 5, 2, seed=1, num_modes=6)
    stacked_cov = ens.analytic_covariance(ens.times)
    stacked_mean = ens.analytic_mean(ens.times)
    assert stacked_cov.shape == (6, 6, 6) and stacked_mean.shape == (6, 6)
    for i, t in enumerate(ens.times):
        assert np.array_equal(stacked_cov[i], ens.analytic_covariance(float(t)))
        assert np.array_equal(stacked_mean[i], ens.analytic_mean(float(t)))


def test_profile_and_invariant_read_the_covariance_diagonal(star3_analytic):
    """Variance diagnostics and the sampler use one covariance law."""
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0, "v2": 0.5})
    ens = qg.simulate(star3_analytic, nm, [], 2.0, 4, 2, seed=1, num_modes=10)
    (entry,) = qg.regularity_profile(star3_analytic, nm, 2.0, [0.0], num_modes=10)
    assert np.array_equal(entry.increments, np.diag(ens.analytic_covariance(2.0)))
    report = qg.invariant_measure_check(star3_analytic, nm, horizons=(0.5, 2.0), num_modes=10)
    for t, sums in zip((0.5, 2.0), report.hs_partial_sums):
        assert sums == tuple(np.cumsum(np.diag(ens.analytic_covariance(t))))


def test_vertex_paths_shape(star3_analytic):
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0})
    ens = qg.simulate(star3_analytic, nm, np.zeros(4), 0.5, 6, 7, seed=2, num_modes=4)
    paths = ens.vertex_paths()
    assert paths.shape == (7, 7, 4)
    # path at a quiet vertex still moves: modes carry noise across the graph
    assert np.max(np.abs(paths[:, -1, 2])) > 0


def test_simulate_validation(interval_eig):
    nm = _interval_noise(interval_eig)
    with pytest.raises(ValueError):
        qg.simulate(interval_eig, nm, [0.0], 0.0, 4, 2)
    with pytest.raises(ValueError):
        qg.simulate(interval_eig, nm, [0.0], 1.0, 0, 2)
    with pytest.raises(ValueError):
        qg.simulate(interval_eig, nm, np.zeros(50), 1.0, 4, 2, num_modes=50)
    with pytest.raises(ValueError, match="keep_paths"):
        qg.simulate(interval_eig, nm, [0.0], 1.0, 4, 2, keep_paths=-1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="horizon"):
            qg.simulate(interval_eig, nm, [0.0], bad, 4, 2)
        with pytest.raises(ValueError, match="z0"):
            qg.simulate(interval_eig, nm, [0.0, bad], 1.0, 4, 2, num_modes=3)


def test_innovation_cholesky_rejects_negative():
    with pytest.raises(CovarianceNotPSDError):
        _innovation_cholesky(np.array([[-1.0]]))
    # a zero variance with a nonzero covariance is not PSD either
    with pytest.raises(CovarianceNotPSDError):
        _innovation_cholesky(np.array([[1.0, 0.5], [0.5, 0.0]]))


def test_innovation_cholesky_reports_jitter():
    assert _innovation_cholesky(np.eye(2))[1] == 0.0
    assert _innovation_cholesky(np.zeros((2, 2)))[1] == 0.0
    # rank deficient: plain Cholesky fails, the first jitter step succeeds
    chol, jitter = _innovation_cholesky(np.ones((2, 2)))
    assert jitter == tol.JITTER_START
    np.testing.assert_allclose(chol @ chol.T, np.ones((2, 2)), atol=1e-6)
    # the jitter is relative to each mode's own variance, and a mode
    # without variance keeps an exactly zero row
    cov = np.diag([1e100, 1.0, 1.0, 0.0])
    cov[1:3, 1:3] = 1.0
    chol, jitter = _innovation_cholesky(cov)
    assert jitter == tol.JITTER_START
    np.testing.assert_allclose(chol @ chol.T, cov, rtol=1e-6, atol=1e-6)
    assert not np.any(chol[3]) and not np.any(chol[:, 3])


def test_ensemble_carries_cholesky_jitter(interval_eig, star3_analytic):
    ens = qg.simulate(interval_eig, _interval_noise(interval_eig), [], 1.0, 4, 2, num_modes=4)
    assert ens.cholesky_jitter == 0.0
    # one noisy leaf leaves quiet modes: the factor needs a jitter
    nm = NoiseModel.from_diagonal(star3_analytic.graph, {"v1": 1.0})
    ens = qg.simulate(star3_analytic, nm, [], 1.0, 4, 2, num_modes=10)
    assert tol.JITTER_START <= ens.cholesky_jitter <= tol.JITTER_STOP


def test_long_horizon_ensemble_matches_the_law():
    """At T = 1e50 the kernel mode's variance (growing like T) exceeds the
    others by 50 decades; a jitter scaled to it would swamp them."""
    g = qg.star_graph([1.0, 1.0, 1.0])
    eig = qg.solve_spectrum(g, 16, 4)
    nm = NoiseModel.from_diagonal(g, {"v1": 1.0})
    ens = qg.simulate(eig, nm, [], 1e50, 4, 2000, seed=42)
    assert ens.cholesky_jitter > 0.0
    assert qg.verify_covariance(ens).passed()


def test_regularity_profile_structure():
    eig = qg.interval_analytic(1.0, num_modes=400)
    nm = NoiseModel.from_diagonal(eig.graph, {"v1": 1.0})
    entries = qg.regularity_profile(eig, nm, 1.0, [0.0, 0.3])
    assert [e.alpha for e in entries] == [0.0, 0.3]
    for e in entries:
        np.testing.assert_allclose(e.partial_sums, np.cumsum(e.increments), rtol=1e-14)
        assert e.convergent == (e.tail_slope < -1.0)
    smooth, rough = entries
    assert smooth.convergent and not rough.convergent
    np.testing.assert_allclose(smooth.tail_slope, -2.0, atol=0.15)
    np.testing.assert_allclose(rough.tail_slope, -0.8, atol=0.15)


def test_regularity_profile_weight_ratio():
    eig = qg.interval_analytic(1.0, num_modes=64)
    nm = NoiseModel.from_diagonal(eig.graph, {"v1": 1.0})
    base, heavy = qg.regularity_profile(eig, nm, 1.0, [0.0, 0.5])
    ratios = heavy.increments / base.increments
    np.testing.assert_allclose(ratios, 1.0 + eig.lambdas[:64], rtol=1e-12)


def test_regularity_profile_validation(interval_eig):
    nm = _interval_noise(interval_eig)
    with pytest.raises(ValueError):
        qg.regularity_profile(interval_eig, nm, 1.0, [0.0], num_modes=0)
    with pytest.raises(ValueError):
        qg.regularity_profile(interval_eig, nm, 1.0, [0.0], num_modes=10**6)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="horizon"):
            qg.regularity_profile(interval_eig, nm, bad, [0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="alphas"):
            qg.regularity_profile(interval_eig, nm, 1.0, [0.0, bad])
    # finite alphas whose weights (1 + lambda)^(2 alpha) overflow
    with pytest.raises(ValueError, match="alphas"):
        qg.regularity_profile(interval_eig, nm, 1.0, [0.0, 1e300])


def test_invariant_exists_with_potential():
    g = qg.interval_graph(p=1.0)
    eig = qg.solve_spectrum(g, 64, 6)
    nm = NoiseModel.from_diagonal(g, {"v1": 1.0})
    report = qg.invariant_measure_check(eig, nm)
    assert report.exists and report.rule == "exponential-stability"
    assert report.lambda0 > 0.9
    assert report.to_json()["exists"] == "Yes"
    # totals settle instead of growing linearly
    totals = report.hs_totals
    assert totals[2] - totals[1] < 0.5 * (totals[1] - totals[0]) + 1e-9


def test_invariant_exists_when_noise_misses_kernel(interval_eig):
    nm = NoiseModel.from_diagonal(interval_eig.graph, {})
    report = qg.invariant_measure_check(interval_eig, nm)
    assert report.exists and report.rule == "noise-invisible-to-kernel"
    assert report.kernel_residual <= 1e-12


def test_invariant_fails_with_kernel_noise(interval_eig):
    nm = _interval_noise(interval_eig)
    report = qg.invariant_measure_check(interval_eig, nm, horizons=(1.0, 2.0, 4.0))
    assert not report.exists and report.rule == "kernel-mode-noise"
    assert report.to_json()["exists"] == "No"
    # the kernel term of the variance sum is exactly linear in the horizon
    np.testing.assert_allclose(
        np.asarray(report.kernel_terms) / report.kernel_terms[0],
        [1.0, 2.0, 4.0],
        rtol=1e-12,
    )
    for sums in report.hs_partial_sums:
        assert np.all(np.diff(sums) >= 0)
    assert report.hs_totals == tuple(s[-1] for s in report.hs_partial_sums)


def test_invariant_rejects_non_finite_horizons(interval_eig):
    nm = _interval_noise(interval_eig)
    for horizons in ((float("nan"),), (1.0, float("inf")), (0.0,)):
        with pytest.raises(ValueError, match="horizon"):
            qg.invariant_measure_check(interval_eig, nm, horizons=horizons)


def test_invariant_ambiguous_gap_raises():
    g = qg.interval_graph(p=1e-12)
    eig = qg.solve_spectrum(g, 64, 4)
    nm = NoiseModel.from_diagonal(g, {"v1": 1.0})
    with pytest.raises(SpectralGapAmbiguousError):
        qg.invariant_measure_check(eig, nm)


def test_invariant_untrusted_bottom_raises():
    g = qg.star_graph([1.0, 1.0, 1.0], p=1.0)
    eig = qg.solve_spectrum(g, 2, 4)
    nm = NoiseModel.from_diagonal(g, {"v1": 1.0})
    with pytest.raises(SpectrumTooCoarseError):
        qg.invariant_measure_check(eig, nm)


def test_ensemble_csv(tmp_path, interval_eig):
    nm = _interval_noise(interval_eig)
    ens = qg.simulate(interval_eig, nm, [0.1, 0.0], 1.0, 2, 3, seed=9, num_modes=2)
    path = tmp_path / "ens.csv"
    qg.ensemble_to_csv(ens, path, max_samples=2)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "time", "mode", "value"]
    assert len(rows) == 1 + 2 * 3 * 2
    assert rows[1][:3] == ["0", "0.0", "0"]
    np.testing.assert_allclose(float(rows[1][3]), 0.1)


def _summary(ens, path):
    qg.summary_to_csv(ens, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "mode", "mean", "variance"]
    assert len(rows) == 1 + len(ens.times) * ens.num_modes
    table = np.array([[float(x) for x in row] for row in rows[1:]])
    return table[:, 2].reshape(len(ens.times), -1), table[:, 3].reshape(len(ens.times), -1)


def test_summary_csv(tmp_path, interval_eig):
    nm = _interval_noise(interval_eig)
    z0 = [1.5, -0.5, 0.0]
    ens = qg.simulate(interval_eig, nm, z0, 1.0, 6, 400, seed=13, num_modes=3)
    mean, var = _summary(ens, tmp_path / "summary.csv")
    # every row carries the sample mean and the ddof=1 sample variance
    np.testing.assert_allclose(mean[1:], ens.coeffs[:, 1:].mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(var[1:], ens.coeffs[:, 1:].var(axis=0, ddof=1), rtol=1e-12)
    # every path starts on z0: exact mean, exactly zero variance
    assert np.array_equal(mean[0], z0) and np.all(var[0] == 0.0)

    # a mode the noise never feeds stays on its exact mean: exactly zero spread
    quiet = NoiseModel.from_diagonal(interval_eig.graph, {})
    ens = qg.simulate(interval_eig, quiet, [0.7], 1.0, 6, 50, seed=13, num_modes=3)
    mean, var = _summary(ens, tmp_path / "quiet.csv")
    assert np.all(var == 0.0)
    assert np.all(mean[:, 0] == 0.7) and np.all(mean[:, 1:] == 0.0)


def test_summary_csv_single_sample(tmp_path, interval_eig):
    ens = qg.simulate(interval_eig, _interval_noise(interval_eig), [0.2], 1.0, 4, 1, num_modes=2)
    mean, var = _summary(ens, tmp_path / "one.csv")
    np.testing.assert_allclose(mean, ens.coeffs[0], rtol=1e-14)
    assert np.all(var == 0.0)


def test_profile_csv(tmp_path):
    eig = qg.interval_analytic(1.0, num_modes=16)
    nm = NoiseModel.from_diagonal(eig.graph, {"v1": 1.0})
    entries = qg.regularity_profile(eig, nm, 1.0, [0.0, 0.2])
    path = tmp_path / "profile.csv"
    qg.profile_to_csv(entries, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "K'", "partial_sum", "slope"]
    assert len(rows) == 1 + 2 * 16
    assert rows[1][1] == "1" and rows[16][1] == "16"
    np.testing.assert_allclose(float(rows[17][0]), 0.2)
