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
on shared edges.  Samples run in blocks of BLOCK_SAMPLES, block j on
its own RNG stream, a pure function of (seed, j); the per-time moments
about the exact mean are summed while sampling, so memory does not grow
with the sample count, and only the leading paths asked for are kept.
The law itself is shared with control.  The covariance check and the
summary statistics both read TrajectoryEnsemble.moments.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

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
from .graphs import Coefficient
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


# Samples per block, part of the RNG recipe: changing it changes the numbers.
BLOCK_SAMPLES = 1024

# how simulate seeds and draws, written into every manifest
RNG_RECIPE = (
    f"block j of {BLOCK_SAMPLES} samples: SeedSequence(seed, spawn_key=(j,)) + PCG64, "
    "one standard_normal((samples, modes)) per step"
)


def _exact_mean(lambdas: np.ndarray, z0: np.ndarray, t) -> np.ndarray:
    return np.exp(-lambdas * np.asarray(t, dtype=float)[..., None]) * z0


def _innovation_cholesky(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, with a per-mode diagonal jitter if needed.

    The innovation covariance is PSD by construction but often rank
    deficient (quiet modes), so plain Cholesky can fail on roundoff.  Then
    the correlation matrix D^(-1/2) cov D^(-1/2) gets an escalating jitter
    up to a hard stop, and its factor is rescaled by D^(1/2): one large
    variance (the kernel mode at a long horizon) cannot swamp the others,
    and zero-variance modes keep exactly zero rows.  Returns the factor
    and the jitter (0.0 when plain Cholesky succeeds).
    """
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    d = np.diag(cov)
    live = d > 0
    if np.any(d < 0) or np.any(cov[~live]):  # PSD: zero variance, zero row
        raise CovarianceNotPSDError("innovation covariance is not positive semidefinite")
    sd = np.sqrt(d)
    unit = np.where(live, sd, 1.0)
    corr = cov / np.outer(unit, unit) + np.diag(~live)  # a dead mode factors as 1
    jitter = 0.0
    while jitter <= tol.JITTER_STOP:
        try:
            return sd[:, None] * np.linalg.cholesky(corr + jitter * np.diag(live)), jitter
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter else tol.JITTER_START
    raise CovarianceNotPSDError(
        f"innovation covariance not factorizable even with jitter {tol.JITTER_STOP}"
    )


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Moments of num_samples sampled mode-coefficient paths, and the
    leading paths themselves.

    moments is (mean, second moment) of d = X - E X at every grid time,
    shapes (times, modes) and (times, modes, modes), over all num_samples
    samples; centring at the exact mean spares the variances any
    cancellation.  coeffs holds the first paths only, shape (kept,
    num_steps + 1, num_modes): the same rows whatever the count kept.
    channels holds the noise-weighted vertex traces v_k row-wise, and
    vertex values of the state are coeffs @ vertex_traces.
    cholesky_jitter is the diagonal jitter, relative to each mode's
    variance, that the innovation factor needed.
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
    num_samples: int
    moments: tuple[np.ndarray, np.ndarray]

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)

    def vertex_paths(self) -> np.ndarray:
        """State values at the vertices of the kept paths, shape (kept, steps + 1, n)."""
        return self.coeffs @ self.vertex_traces

    def analytic_mean(self, t: float) -> np.ndarray:
        """Exact mean at time t; an array of times gives one row per time."""
        return _exact_mean(self.lambdas, self.z0, t)

    def analytic_covariance(self, t: float) -> np.ndarray:
        """Exact covariance at time t; an array of times gives one per time."""
        return _covariance(self.lambdas, self.channels, t)


def simulate(
    eig: EigenSystem,
    noise: NoiseModel,
    z0_coeffs,
    horizon: float,
    num_steps: int,
    num_samples: int,
    seed: int = 42,
    num_modes: int | None = None,
    keep_paths: int | None = None,
) -> TrajectoryEnsemble:
    """Sample the first num_modes coefficients and sum their moments.

    Reproducibility contract: results are a pure function of
    (eigensystem, noise, z0, horizon, num_steps, num_samples, seed);
    keep_paths (default all) only sets how many leading paths coeffs
    holds.  Samples run serially in blocks of BLOCK_SAMPLES, the last one
    possibly partial.  Block j, of b samples, starts at z0 and draws from
    default_rng(SeedSequence(seed, spawn_key=(j,))) one
    standard_normal((b, k)) z per time step, setting
    x <- decay * x + z @ chol.T with chol the innovation Cholesky factor;
    d.sum(0) and d.T @ d of d = x - E x(t_i) are added to per-time sums,
    block after block, which become the moments once divided by
    num_samples.
    """
    _check_horizon(horizon)
    if num_steps < 1:
        raise ValueError("num_steps must be positive")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if keep_paths is not None and keep_paths < 0:
        raise ValueError("keep_paths must be nonnegative")
    k = _modes_in_play(eig, num_modes)
    z0 = _initial_coeffs(z0_coeffs, k)
    lambdas = np.asarray(eig.lambdas[:k], dtype=float)
    channels = _channels(eig, noise, k)

    times = np.linspace(0.0, horizon, num_steps + 1)
    dt = horizon / num_steps
    decay = np.exp(-lambdas * dt)
    chol, jitter = _innovation_cholesky(_covariance(lambdas, channels, dt))
    chol_t = np.ascontiguousarray(chol.T)
    mean = _exact_mean(lambdas, z0, times)

    keep = num_samples if keep_paths is None else min(keep_paths, num_samples)
    coeffs = np.empty((keep, num_steps + 1, k))
    coeffs[:, 0] = z0
    # every path starts on the exact mean: the t = 0 moments stay exactly 0
    first = np.zeros((num_steps + 1, k))
    second = np.zeros((num_steps + 1, k, k))
    for j, lo in enumerate(range(0, num_samples, BLOCK_SAMPLES)):
        b = min(BLOCK_SAMPLES, num_samples - lo)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        kept = coeffs[lo : lo + b]
        x = np.tile(z0, (b, 1))
        for i in range(1, num_steps + 1):
            x = decay * x + rng.standard_normal((b, k)) @ chol_t
            d = x - mean[i]
            first[i] += d.sum(axis=0)
            second[i] += d.T @ d
            kept[:, i] = x[: len(kept)]
    first /= num_samples
    second /= num_samples
    first.flags.writeable = second.flags.writeable = False  # shared by every reader

    return TrajectoryEnsemble(
        times=times,
        coeffs=coeffs,
        lambdas=lambdas,
        vertex_traces=eig.vertex_traces[:k],
        channels=channels,
        vertices=tuple(eig.graph.vertices),
        z0=z0,
        seed=int(seed),
        cholesky_jitter=jitter,
        num_samples=int(num_samples),
        moments=(first, second),
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
    sd = np.sqrt(var)
    # sqrt(var_k var_l + ana^2), formed without squaring: no overflow at any scale
    se = np.hypot(sd[:, :, None] * sd[:, None, :], ana) / np.sqrt(s)

    live = se > 0
    z = np.divide(np.abs(emp - ana), se, out=np.zeros_like(se), where=live)
    mean_se = np.sqrt(var / s)
    dlive = mean_se > 0  # like se: a variance that underflows here counts as zero
    mean_z = np.divide(np.abs(mean_dev), mean_se, out=np.zeros_like(var), where=dlive)
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
    is a log-log fit over the second half of the modes (-inf, written as
    null, when fewer than two are positive), and the series is called
    convergent when the increments decay faster than 1/k.
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
            "tail_slope": self.tail_slope if np.isfinite(self.tail_slope) else None,
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
        with np.errstate(over="ignore", invalid="ignore"):
            inc = (1.0 + lam) ** (2.0 * alpha) * var
        if not np.all(np.isfinite(inc)):
            raise ValueError(f"alphas too large: the weights overflow at alpha = {alpha:g}")
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
    elif any(e.potential != Coefficient.const(0.0) for e in eig.graph.edges):
        raise SpectralGapAmbiguousError(
            f"potential present but bottom eigenvalue {lam0} is below the "
            f"gap tolerance; refine the mesh to resolve the sign"
        )
    elif kernel_residual <= tol.TRACE_ZERO:
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
    """Long-format mode coefficients of the kept paths: one row per (sample, time, mode)."""
    count = len(ens.coeffs) if max_samples is None else min(max_samples, len(ens.coeffs))
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
            slope = repr(entry.tail_slope) if np.isfinite(entry.tail_slope) else ""
            for k, val in enumerate(entry.partial_sums, start=1):
                writer.writerow(
                    [repr(entry.alpha), k, repr(float(val)), slope]
                )
