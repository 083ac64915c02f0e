"""Monte Carlo simulation of the vertex-noise evolution, plus the
stationary-regime diagnostics built on the same mode expansion.

In the eigenbasis the solution coefficients follow scalar OU recursions
driven by correlated increments: over a step of size dt,
X(t + dt) = e^(-lambda dt) X(t) + xi with xi centered Gaussian whose
covariance is the entrywise product of the channel Gram matrix
(v_k . v_l) and the exponential time integrals; this is the exact
transition law, not an Euler scheme, so the step count only controls
the output grid.  The law holds for any family of eigenfunctions,
orthonormal or not — each tested coefficient is an exact stochastic
convolution — which matters because the analytic star family overlaps
on shared edges.  Each sample draws from its own RNG stream, a pure
function of (seed, sample index); samples are stepped together in
blocks whose size never changes the numbers.  The law itself is shared
with control.  The ensemble is read back once: the covariance check and
the summary statistics both use TrajectoryEnsemble.moments.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .control import (
    _channels,
    _check_horizon,
    _covariance,
    _initial_coeffs,
    _modes_in_play,
)
from .errors import (
    CovarianceNotPSDError,
    SpectralGapAmbiguousError,
    SpectrumTooCoarseError,
)
from .noise import NoiseModel
from .spectral import EigenSystem

__all__ = [
    "TrajectoryEnsemble",
    "simulate",
    "CovarianceReport",
    "verify_covariance",
    "ProfileEntry",
    "regularity_profile",
    "InvariantMeasureReport",
    "invariant_measure_check",
    "ensemble_to_csv",
    "summary_to_csv",
    "profile_to_csv",
]


# Normals drawn per block of samples, 16 MB of float64: with the block's
# innovations written straight into the ensemble, this bounds the
# engine's working memory whatever the sample count.
BLOCK_NORMALS = 2**21

# how simulate seeds sample s; TrajectoryEnsemble.sample_seed builds it
RNG_RECIPE = "per-sample SeedSequence(seed, spawn_key=(s,)) + PCG64"


def _innovation_cholesky(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with an escalating diagonal jitter.

    The innovation covariance is PSD by construction but often rank
    deficient (quiet modes), so plain Cholesky can fail on roundoff; a
    relative jitter up to a hard stop keeps the factor honest, and
    anything needing more than that is reported as a genuine failure.
    Returns the factor and the jitter applied, relative to the mean
    diagonal entry (0.0 when plain Cholesky succeeds).
    """
    if not np.any(cov):
        return np.zeros_like(cov), 0.0
    n = len(cov)
    scale = float(np.trace(cov)) / n
    jitter = 0.0
    while jitter <= tol.JITTER_STOP:
        try:
            return np.linalg.cholesky(cov + (jitter * scale) * np.eye(n)), jitter
        except np.linalg.LinAlgError:
            # plain Cholesky first, then an escalating jitter
            jitter = jitter * 10.0 if jitter else tol.JITTER_START
    raise CovarianceNotPSDError(
        f"innovation covariance not factorizable even with jitter {tol.JITTER_STOP}"
    )


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled mode-coefficient paths and the data needed to read them.

    coeffs has shape (num_samples, num_steps + 1, num_modes); channels
    holds the noise-weighted vertex traces v_k row-wise, and vertex
    values of the state are coeffs @ vertex_traces.  Sample s was drawn
    from the RNG stream sample_seed(s), a pure function of the master
    seed and s — never of the block it was stepped in.  cholesky_jitter
    is the relative diagonal jitter the innovation factor needed.
    """

    times: np.ndarray
    coeffs: np.ndarray
    lambdas: np.ndarray
    vertex_traces: np.ndarray
    channels: np.ndarray
    vertices: tuple[str, ...]
    z0: np.ndarray
    seed: int
    cholesky_jitter: float

    @property
    def num_samples(self) -> int:
        return self.coeffs.shape[0]

    @property
    def num_modes(self) -> int:
        return self.coeffs.shape[2]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def sample_seed(self, s: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=(s,))

    def vertex_paths(self) -> np.ndarray:
        """State values at the vertices, shape (samples, steps + 1, n)."""
        return self.coeffs @ self.vertex_traces

    def analytic_mean(self, t: float) -> np.ndarray:
        """Exact mean at time t; an array of times gives one row per time."""
        return np.exp(-self.lambdas * np.asarray(t, dtype=float)[..., None]) * self.z0

    def analytic_covariance(self, t: float) -> np.ndarray:
        """Exact covariance at time t; an array of times gives one per time."""
        return _covariance(self.lambdas, self.channels, t)

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-time mean (times, modes) and second moment (times, modes, modes)
        of d = X - E X; centring at the exact mean spares the variances any
        cancellation.  One pass over blocks of at most BLOCK_NORMALS values."""
        s, num_times, k = self.coeffs.shape
        mean = self.analytic_mean(self.times)
        first = np.zeros((num_times, k))
        second = np.zeros((num_times, k, k))
        block = max(1, BLOCK_NORMALS // (num_times * k))
        buf = np.empty((min(block, s), num_times, k))
        for lo in range(0, s, block):
            d = np.subtract(self.coeffs[lo : lo + block], mean, out=buf[: min(block, s - lo)])
            first += d.sum(axis=0)
            second += np.einsum("sti,stj->tij", d, d, optimize=True)
        first, second = first / s, second / s
        first.flags.writeable = second.flags.writeable = False  # shared by every reader
        return first, second


def simulate(
    eig: EigenSystem,
    noise: NoiseModel,
    z0_coeffs,
    horizon: float,
    num_steps: int,
    num_samples: int,
    seed: int = 42,
    num_modes: int | None = None,
) -> TrajectoryEnsemble:
    """Draw sample paths of the first num_modes coefficients.

    Reproducibility contract: results are a pure function of
    (eigensystem, noise, z0, horizon, num_steps, num_samples, seed).
    Sample s draws standard_normal((num_steps, k)) from its own stream
    sample_seed(s), multiplies by the transposed innovation Cholesky
    factor and runs x <- decay * x + innovation from z0.  Samples are
    processed in blocks of at most BLOCK_NORMALS normals, one matmul and
    one vectorized recursion per block; the block size never changes
    the numbers, only the wall time and the working memory.
    """
    _check_horizon(horizon)
    if num_steps < 1:
        raise ValueError("num_steps must be positive")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    k_total = _modes_in_play(eig, num_modes)
    z0 = _initial_coeffs(z0_coeffs, k_total)
    lambdas = np.asarray(eig.lambdas[:k_total], dtype=float)
    channels = _channels(eig, noise, k_total)

    dt = horizon / num_steps
    decay = np.exp(-lambdas * dt)
    chol, jitter = _innovation_cholesky(_covariance(lambdas, channels, dt))
    chol_t = np.ascontiguousarray(chol.T)

    coeffs = np.empty((num_samples, num_steps + 1, k_total))
    coeffs[:, 0] = z0
    block = max(1, BLOCK_NORMALS // (num_steps * k_total))
    normals = np.empty((min(block, num_samples), num_steps, k_total))
    for lo in range(0, num_samples, block):
        b = min(block, num_samples - lo)
        for j in range(b):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(lo + j,)))
            rng.standard_normal((num_steps, k_total), out=normals[j])
        # one gemm per sample, as for a single (num_steps, k) draw;
        # each path's innovations land in its own rows 1..num_steps
        paths = coeffs[lo : lo + b]
        np.matmul(normals[:b], chol_t, out=paths[:, 1:])
        for i in range(num_steps):
            paths[:, i + 1] += decay * paths[:, i]

    return TrajectoryEnsemble(
        times=np.linspace(0.0, horizon, num_steps + 1),
        coeffs=coeffs,
        lambdas=lambdas,
        vertex_traces=eig.vertex_traces[:k_total],
        channels=channels,
        vertices=tuple(eig.graph.vertices),
        z0=z0,
        seed=int(seed),
        cholesky_jitter=jitter,
    )


@dataclass(frozen=True)
class CovarianceReport:
    """Empirical-vs-analytic comparison across the whole time grid.

    Deviations are standardized by the large-sample standard error of a
    Gaussian sample covariance entry, sqrt((s_kk s_ll + s_kl^2)/S);
    entries with zero standard error (channels the noise never feeds)
    must come out identically zero and are tracked separately.
    max_cov_z_per_time allows pinpointing a failing grid time.
    """

    times: np.ndarray
    num_samples: int
    max_cov_z: float
    max_cov_z_per_time: np.ndarray
    frac_within_3se: float
    max_mean_z: float
    zero_entries_ok: bool
    empirical_final: np.ndarray
    analytic_final: np.ndarray

    def passed(self, z_max: float = 5.0) -> bool:
        return bool(self.max_cov_z <= z_max and self.max_mean_z <= z_max and self.zero_entries_ok)

    def to_json(self) -> dict:
        return {
            "num_samples": int(self.num_samples),
            "max_cov_z": float(self.max_cov_z),
            "max_cov_z_per_time": [float(x) for x in self.max_cov_z_per_time],
            "frac_within_3se": float(self.frac_within_3se),
            "max_mean_z": float(self.max_mean_z),
            "zero_entries_ok": bool(self.zero_entries_ok),
        }


def verify_covariance(ens: TrajectoryEnsemble, t_index: int | None = None) -> CovarianceReport:
    """Check the sampled ensemble against the exact Gaussian law.

    Covariances and means of the mode coefficients are compared at every
    grid time (or a single one when t_index is given) and the worst
    standardized deviation is reported.
    """
    indices = np.arange(len(ens.times)) if t_index is None else [range(len(ens.times))[t_index]]
    s = ens.num_samples
    mean_dev, emp = (m[indices] for m in ens.moments)
    ana = ens.analytic_covariance(ens.times[indices])
    var = np.diagonal(ana, axis1=1, axis2=2)
    se = np.sqrt((var[:, :, None] * var[:, None, :] + ana**2) / s)

    live = se > 0
    z = np.divide(np.abs(emp - ana), se, out=np.zeros_like(se), where=live)
    dlive = var > 0
    mean_z = np.divide(np.abs(mean_dev), np.sqrt(var / s), out=np.zeros_like(var), where=dlive)
    zero_ok = np.all(np.abs(emp[~live]) <= 1e-12) and np.all(np.abs(mean_dev[~dlive]) <= 1e-12)

    return CovarianceReport(
        times=ens.times[indices],
        num_samples=s,
        max_cov_z=float(z.max()),
        max_cov_z_per_time=z.max(axis=(1, 2)),
        frac_within_3se=float(np.mean(z[live] <= 3.0)) if live.any() else 1.0,
        max_mean_z=float(mean_z.max()),
        zero_entries_ok=bool(zero_ok),
        empirical_final=emp[-1],
        analytic_final=ana[-1],
    )


@dataclass(frozen=True)
class ProfileEntry:
    """Partial sums of the weighted variance series at one smoothness level.

    increments[k] = (1 + lambda_k)^(2 alpha) Var X_k(T); the tail slope
    is a log-log fit over the second half of the modes, and the series
    is called convergent when the increments decay faster than 1/k.
    """

    alpha: float
    increments: np.ndarray
    partial_sums: np.ndarray
    tail_slope: float
    convergent: bool

    def to_json(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "partial_sums": [float(x) for x in self.partial_sums],
            "tail_slope": float(self.tail_slope),
            "convergent": bool(self.convergent),
        }


def regularity_profile(
    eig: EigenSystem,
    noise: NoiseModel,
    horizon: float,
    alphas,
    num_modes: int | None = None,
) -> list[ProfileEntry]:
    """Variance partial sums in a scale of smoothness weights.

    The time-T variance of mode k is |v_k|^2 eta(2 lambda_k, T); weights
    (1 + lambda_k)^(2 alpha) probe in which smoothness spaces the state
    lives.  Larger alpha steepens the increments by lambda^(2 alpha),
    so on a fixed graph the series flips from summable to divergent at
    a finite alpha, which the tail slope estimates.
    """
    _check_horizon(horizon)
    alphas = [float(alpha) for alpha in alphas]
    if not np.all(np.isfinite(alphas)):
        raise ValueError("alphas must be finite")
    k_total = _modes_in_play(eig, num_modes, least=2)
    lam = np.asarray(eig.lambdas[:k_total], dtype=float)
    var = np.diagonal(_covariance(lam, _channels(eig, noise, k_total), horizon))

    out = []
    for alpha in alphas:
        inc = (1.0 + lam) ** (2.0 * alpha) * var
        sums = np.cumsum(inc)
        ks = np.arange(max(1, k_total // 2), k_total)
        pos = inc[ks] > 0
        if np.count_nonzero(pos) >= 2:
            slope = float(np.polyfit(np.log(ks[pos]), np.log(inc[ks][pos]), 1)[0])
        else:
            slope = -np.inf
        out.append(
            ProfileEntry(
                alpha=alpha,
                increments=inc,
                partial_sums=sums,
                tail_slope=slope,
                convergent=bool(slope < -1.0),
            )
        )
    return out


@dataclass(frozen=True)
class InvariantMeasureReport:
    """Existence of a stationary law, with the reasoning made explicit.

    A positive bottom eigenvalue gives exponential stability outright.
    Without potential the constant mode is exactly neutral, and
    everything hinges on whether the noise feeds it: the kernel term of
    the variance sum grows linearly in the horizon when it does.
    hs_partial_sums[i][k] is the cumulative variance sum over modes
    0..k at horizons[i].
    """

    exists: bool
    rule: str
    lambda0: float
    kernel_residual: float
    horizons: tuple[float, ...]
    hs_partial_sums: tuple[tuple[float, ...], ...]
    kernel_terms: tuple[float, ...]
    num_modes: int

    @property
    def hs_totals(self) -> tuple[float, ...]:
        return tuple(sums[-1] for sums in self.hs_partial_sums)

    def to_json(self) -> dict:
        return {
            "exists": "Yes" if self.exists else "No",
            "rule": self.rule,
            "lambda0": float(self.lambda0),
            "kernel_residual": float(self.kernel_residual),
            "horizons": [float(t) for t in self.horizons],
            "hs_partial_sums": [[float(x) for x in sums] for sums in self.hs_partial_sums],
            "kernel_terms": [float(x) for x in self.kernel_terms],
            "num_modes": int(self.num_modes),
        }


def invariant_measure_check(
    eig: EigenSystem,
    noise: NoiseModel,
    horizons=(1.0, 2.0, 4.0),
    num_modes: int | None = None,
) -> InvariantMeasureReport:
    """Decide existence of an invariant measure from the resolved spectrum.

    lambda_0 above the gap tolerance settles it.  Otherwise the verdict
    is only attempted for zero potential, where lambda_0 = 0 is exact
    rather than a discretization accident; with potential present but no
    resolved gap the honest answer is an error, not a guess.
    """
    k_total = _modes_in_play(eig, num_modes)
    if not bool(eig.trusted[0]):
        raise SpectrumTooCoarseError("bottom eigenvalue is outside the trusted range")
    horizons = tuple(float(t) for t in horizons)
    for t in horizons:
        _check_horizon(t)

    lam = np.asarray(eig.lambdas[:k_total], dtype=float)
    channels = _channels(eig, noise, k_total)
    terms = np.diagonal(_covariance(lam, channels, horizons), axis1=1, axis2=2)
    partial = tuple(tuple(float(x) for x in np.cumsum(row)) for row in terms)
    kernel_terms = tuple(float(x) for x in terms[:, 0])

    lam0 = float(lam[0])
    kernel_residual = float(np.linalg.norm(channels[0]))

    if lam0 > tol.SPECTRAL_GAP:
        exists, rule = True, "exponential-stability"
    else:
        p_zero = all(
            e.potential.is_constant and e.potential.constant_value == 0.0
            for e in eig.graph.edges
        )
        if not p_zero:
            raise SpectralGapAmbiguousError(
                f"potential present but bottom eigenvalue {lam0} is below the "
                f"gap tolerance; refine the mesh to resolve the sign"
            )
        if kernel_residual <= tol.TRACE_ZERO:
            exists, rule = True, "noise-invisible-to-kernel"
        else:
            exists, rule = False, "kernel-mode-noise"

    return InvariantMeasureReport(
        exists=exists,
        rule=rule,
        lambda0=lam0,
        kernel_residual=kernel_residual,
        horizons=horizons,
        hs_partial_sums=partial,
        kernel_terms=kernel_terms,
        num_modes=k_total,
    )


def ensemble_to_csv(ens: TrajectoryEnsemble, path, max_samples: int | None = None) -> None:
    """Long-format mode coefficients: one row per (sample, time, mode)."""
    count = ens.num_samples if max_samples is None else min(max_samples, ens.num_samples)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "time", "mode", "value"])
        for s in range(count):
            for i, t in enumerate(ens.times):
                for k in range(ens.num_modes):
                    writer.writerow([s, repr(float(t)), k, repr(float(ens.coeffs[s, i, k]))])


def summary_to_csv(ens: TrajectoryEnsemble, path) -> None:
    """Ensemble statistics: one row per (time, mode) with mean and variance.

    The sample mean and the ddof = 1 sample variance, from the moments
    about the exact mean: exactly 0 wherever every sample sits on it.
    """
    first, second = ens.moments
    n = ens.num_samples
    mean = ens.analytic_mean(ens.times) + first
    spread = np.maximum(np.diagonal(second, axis1=1, axis2=2) - first**2, 0.0)
    var = n / max(n - 1, 1) * spread
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mode", "mean", "variance"])
        for i, t in enumerate(ens.times):
            for k in range(ens.num_modes):
                writer.writerow(
                    [repr(float(t)), k, repr(float(mean[i, k])), repr(float(var[i, k]))]
                )


def profile_to_csv(entries: list[ProfileEntry], path) -> None:
    """Regularity table: one row per (alpha, K') partial sum."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "K'", "partial_sum", "slope"])
        for entry in entries:
            for k, val in enumerate(entry.partial_sums, start=1):
                writer.writerow(
                    [repr(entry.alpha), k, repr(float(val)), repr(entry.tail_slope)]
                )
