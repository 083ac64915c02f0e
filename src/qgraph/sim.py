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
on shared edges.  Each step draws r <= k normals per sample through a
pivoted-Cholesky factor of the innovation's numerical rank.  Samples run
in blocks of BLOCK_SAMPLES, block j on its own RNG stream, a pure function
of (seed, j); the blocks run on one thread per CPU the process may use
(numpy's generator and BLAS release the GIL).  The moments about the exact
mean, which the covariance check and the summary read, are summed while
sampling, block after block in block order, so the bits do not depend on
the core count and memory does not grow with the sample count.  Only the
leading paths asked for are kept.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import tolerances as tol
from .control import (
    _channels,
    _check_horizon,
    _covariance,
    _decay,
    _initial_coeffs,
    _modes_in_play,
    _variance_sums,
)
from .errors import QGraphNumericalError, QGraphValidationError
from .noise import NoiseModel
from .spectral import EigenSystem, _integer, _write_csv

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
    "one standard_normal((samples, innovation_rank)) per step"
)


def _workers() -> int:
    """Threads simulate runs its blocks on: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _exact_mean(lambdas: np.ndarray, z0: np.ndarray, t) -> np.ndarray:
    return _decay(lambdas, np.asarray(t, dtype=float)[..., None]) * z0


def _pivoted_cholesky(a: np.ndarray, stop: float) -> np.ndarray:
    """Lower factor L, n x r, of a symmetric PSD matrix, L L^T = a up to the
    pivots left out: step j pivots on the largest remaining diagonal, less the
    squares of the columns before it, and the loop stops once that pivot is
    not above stop (Higham 1990; LAPACK dpstf2's order).  Rows come back in
    the input's order."""
    a = np.array(a, dtype=float)
    n = len(a)
    order, sums = np.arange(n), np.zeros(n)
    rank = 0
    for j in range(n):
        if j:
            sums[j:] += a[j:, j - 1] ** 2
        p = j + int(np.argmax(np.diagonal(a)[j:] - sums[j:]))
        pivot = a[p, p] - sums[p]
        if not pivot > stop:  # NaN stops too
            break
        for v in (a, a.T, sums, order):  # symmetric swap of j and p
            v[[j, p]] = v[[p, j]]
        a[j, j] = np.sqrt(pivot)
        a[j + 1 :, j] = (a[j + 1 :, j] - a[j + 1 :, :j] @ a[j, :j]) / a[j, j]
        rank = j + 1
    return np.tril(a[:, :rank])[np.argsort(order)]


def _innovation_factor(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Rank-revealing factor F, k x r, with F F^T the innovation covariance.

    The numpy loop _pivoted_cholesky on the correlation matrix D^(-1/2) cov
    D^(-1/2) of the modes with variance, stopped once no pivot exceeds
    INNOVATION_DROP, scaled back by D^(1/2): one large variance (the kernel
    mode at a long horizon) cannot swamp the others, and zero-variance modes
    keep zero rows.  Returns F and the dropped residual max |corr - F F^T|,
    enforced against the same tolerance: an indefinite input fails there.
    """
    d = np.diag(cov)
    live = d > 0
    if np.any(d < 0) or np.any(cov[~live]):  # PSD: zero variance, zero row
        raise QGraphNumericalError("innovation covariance is not positive semidefinite")
    sd = np.sqrt(d[live])
    corr = cov[np.ix_(live, live)] / np.outer(sd, sd)
    unit = _pivoted_cholesky(corr, tol.INNOVATION_DROP)
    dropped = float(np.max(np.abs(corr - unit @ unit.T), initial=0.0))
    if not dropped <= tol.INNOVATION_DROP:
        raise QGraphNumericalError("innovation covariance is not positive semidefinite: "
                                   f"dropped residual {dropped:.3g} > {tol.INNOVATION_DROP:g}")
    factor = np.zeros((len(d), unit.shape[1]), order="F")  # F.T is C-contiguous, for the draws
    factor[live] = sd[:, None] * unit
    return factor, dropped


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
    innovation_rank is r, the normals drawn per sample and step, and
    innovation_dropped the correlation residual its factor left out.
    """

    times: np.ndarray
    coeffs: np.ndarray
    lambdas: np.ndarray
    vertex_traces: np.ndarray
    channels: np.ndarray
    z0: np.ndarray
    seed: int
    innovation_rank: int
    innovation_dropped: float
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
    holds.  Samples run in blocks of BLOCK_SAMPLES, the last one possibly
    partial.  Block j, of b samples, starts at z0 and draws from
    default_rng(SeedSequence(seed, spawn_key=(j,))) one
    standard_normal((b, r)) z per time step, setting
    x <- decay * x + z @ F.T with F the k x r innovation factor; it
    returns the per-time sums ones(b) @ d and d.T @ d of
    d = x - E x(t_i), and writes its kept rows into coeffs.  The blocks
    run on a thread pool, one worker per available CPU and at most one
    block in flight per worker; the sums are added to the totals in block
    order, which become the moments once divided by num_samples.
    """
    _check_horizon(horizon)
    num_samples = _integer(num_samples, "num_samples", 1)
    keep = num_samples if keep_paths is None else min(_integer(keep_paths, "keep_paths", 0),
                                                      num_samples)
    seed = _integer(seed, "seed", 0)
    k = _modes_in_play(eig, num_modes)  # the paths take k max(k, keep) entries per step
    num_steps = _integer(num_steps, "num_steps", 1, k * max(k, keep))
    z0 = _initial_coeffs(z0_coeffs, k)
    lambdas = np.asarray(eig.lambdas[:k], dtype=float)
    channels = _channels(eig, noise, k)

    times = np.linspace(0.0, horizon, num_steps + 1)
    dt = horizon / num_steps
    decay = _decay(lambdas, dt)
    factor, dropped = _innovation_factor(_covariance(lambdas, channels, dt))
    mean = _exact_mean(lambdas, z0, times)

    coeffs = np.empty((keep, num_steps + 1, k))
    coeffs[:, 0] = z0
    ones = np.ones(BLOCK_SAMPLES)

    def block(j: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample block j from its own stream; its kept rows go to coeffs."""
        b = min(BLOCK_SAMPLES, num_samples - lo)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        kept = coeffs[lo : lo + b]
        x = np.tile(z0, (b, 1))
        # one set of step buffers per block: fresh ones per step page-fault at 50 modes
        z, step, d = np.empty((b, factor.shape[1])), np.empty((b, k)), np.empty((b, k))
        # every path starts on the exact mean: the t = 0 sums stay exactly 0
        first_j, second_j = np.zeros((num_steps + 1, k)), np.zeros((num_steps + 1, k, k))
        # errstate is context-local: a pool thread needs its own
        with np.errstate(over="ignore", invalid="ignore"):  # the sums are checked below
            for i in range(1, num_steps + 1):
                x *= decay
                x += np.matmul(rng.standard_normal(out=z), factor.T, out=step)
                np.subtract(x, mean[i], out=d)
                np.matmul(ones[:b], d, out=first_j[i])
                np.matmul(d.T, d, out=second_j[i])
                kept[:, i] = x[: len(kept)]
        return first_j, second_j

    first = np.zeros((num_steps + 1, k))
    second = np.zeros((num_steps + 1, k, k))
    workers = _workers()
    blocks = enumerate(range(0, num_samples, BLOCK_SAMPLES))
    with ThreadPoolExecutor(workers) as pool, np.errstate(over="ignore", invalid="ignore"):
        pending = deque(pool.submit(block, j, lo) for j, lo in islice(blocks, workers))
        while pending:
            # in block order, whichever finished first: the same bits at any worker count
            first_j, second_j = pending.popleft().result()
            first += first_j
            second += second_j
            del first_j, second_j  # freed before the next block starts
            pending.extend(pool.submit(block, j, lo) for j, lo in islice(blocks, 1))
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
        raise QGraphValidationError(
            "noise intensity and horizon too large: the sampled moments overflow")
    first /= num_samples
    second /= num_samples
    first.flags.writeable = second.flags.writeable = False  # shared by every reader

    return TrajectoryEnsemble(
        times=times,
        coeffs=coeffs,
        lambdas=lambdas,
        vertex_traces=eig.vertex_traces[:k],
        channels=channels,
        z0=z0,
        seed=seed,
        innovation_rank=factor.shape[1],
        innovation_dropped=dropped,
        num_samples=num_samples,
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

    def passed(self) -> bool:
        """Every deviation within 5 standard errors, and the zero entries zero."""
        return bool(self.max_cov_z <= 5.0 and self.max_mean_z <= 5.0 and self.zero_entries_ok)

    def to_json(self) -> dict:
        return {
            "num_samples": int(self.num_samples),
            "max_cov_z": float(self.max_cov_z),
            "max_cov_z_per_time": [float(x) for x in self.max_cov_z_per_time],
            "frac_within_3se": float(self.frac_within_3se),
            "max_mean_z": float(self.max_mean_z),
            "zero_entries_ok": bool(self.zero_entries_ok),
        }


def verify_covariance(ens: TrajectoryEnsemble) -> CovarianceReport:
    """Check the sampled ensemble against the exact Gaussian law.

    Covariances and means of the mode coefficients are compared at every
    grid time and the worst standardized deviation is reported.  Beside
    the moments it holds two arrays of their size: the exact covariances,
    overwritten by z, and the standard errors.
    """
    s = ens.num_samples
    mean_dev, emp = ens.moments
    ana = ens.analytic_covariance(ens.times)
    analytic_final = ana[-1].copy()
    var = np.diagonal(ana, axis1=1, axis2=2).copy()
    sd = np.sqrt(var)
    # sqrt(var_k var_l + ana^2), formed without squaring: no overflow at any scale
    se = np.multiply(sd[:, :, None], sd[:, None, :])
    np.hypot(se, ana, out=se)
    se /= np.sqrt(s)

    live = se > 0
    z = np.subtract(emp, ana, out=ana)
    np.abs(z, out=z)
    np.divide(z, se, out=z, where=live)
    np.copyto(z, 0.0, where=~live)
    mean_se = np.sqrt(var / s)
    dlive = mean_se > 0  # like se: a variance that underflows here counts as zero
    mean_z = np.divide(np.abs(mean_dev), mean_se, out=np.zeros_like(var), where=dlive)
    zero_ok = (np.all(np.abs(emp[~live]) <= tol.ZERO_MOMENT)
               and np.all(np.abs(mean_dev[~dlive]) <= tol.ZERO_MOMENT))
    num_live = np.count_nonzero(live)

    return CovarianceReport(
        times=ens.times,
        num_samples=s,
        max_cov_z=float(z.max()),
        max_cov_z_per_time=z.max(axis=(1, 2)),
        frac_within_3se=np.count_nonzero(live & (z <= 3.0)) / num_live if num_live else 1.0,
        max_mean_z=float(mean_z.max()),
        zero_entries_ok=bool(zero_ok),
        empirical_final=emp[-1],
        analytic_final=analytic_final,
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
        raise QGraphValidationError("alphas must be finite")
    k_total = _modes_in_play(eig, num_modes, least=2)
    lam = np.asarray(eig.lambdas[:k_total], dtype=float)
    channels = _channels(eig, noise, k_total)

    out = []
    for alpha in alphas:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = (1.0 + lam) ** (2.0 * alpha)
        if not np.all(np.isfinite(weights)):
            raise QGraphValidationError(
                f"alphas too large: the weights overflow at alpha = {alpha:g}")
        inc, sums = _variance_sums(lam, channels, horizon, weights)
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
    """Existence and uniqueness of a stationary law, with the reasoning made explicit.

    Any positive potential gives one, by exponential stability.  Without
    potential the constant mode is exactly neutral: if the noise feeds it,
    the kernel term of the variance sum grows linearly in the horizon and
    there is none; if not, the mean is conserved, one law per mean value.
    hs_partial_sums[i][k] is the cumulative variance sum over modes
    0..k at horizons[i].
    """

    exists: bool
    unique: bool
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
            "unique": "Yes" if self.unique else "No",
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
    """Decide existence and uniqueness of an invariant measure from the
    graph and the noise.

    A connected graph with c > 0 and p >= 0 has lambda_0 > 0 exactly when
    some potential value is positive, however small, so the rule reads the
    potential, not the computed lambda_0.  Without potential, the constant
    mode's noise-weighted traces decide: zero (to TRACE_ZERO) leaves the
    mean conserved, nonzero makes its variance grow linearly.
    """
    k_total = _modes_in_play(eig, num_modes)
    if not bool(eig.trusted[0]):
        raise QGraphNumericalError("bottom eigenvalue is outside the trusted range")
    horizons = tuple(float(t) for t in horizons)
    for t in horizons:
        _check_horizon(t)

    lam = np.asarray(eig.lambdas[:k_total], dtype=float)
    channels = _channels(eig, noise, k_total)
    terms, sums = _variance_sums(lam, channels, horizons)
    partial = tuple(tuple(float(x) for x in row) for row in sums)
    kernel_terms = tuple(float(x) for x in terms[:, 0])

    lam0 = float(lam[0])
    kernel_residual = float(np.linalg.norm(channels[0]))

    if any(max(e.potential.values) > 0 for e in eig.graph.edges):
        exists, unique, rule = True, True, "exponential-stability"
    elif kernel_residual <= tol.TRACE_ZERO:
        exists, unique, rule = True, False, "noise-invisible-to-kernel"
    else:
        exists, unique, rule = False, False, "kernel-mode-noise"

    return InvariantMeasureReport(
        exists=exists,
        unique=unique,
        rule=rule,
        lambda0=lam0,
        kernel_residual=kernel_residual,
        horizons=horizons,
        hs_partial_sums=partial,
        kernel_terms=kernel_terms,
        num_modes=k_total,
    )


def ensemble_to_csv(ens: TrajectoryEnsemble, path) -> None:
    """Long-format mode coefficients of the kept paths: one row per (sample, time, mode)."""
    times = [repr(t) for t in ens.times.tolist()]
    _write_csv(path, ["sample", "time", "mode", "value"], (
        "".join(f"{s},{t},{k},{v!r}\r\n" for t, row in zip(times, rows) for k, v in enumerate(row))
        for s, rows in enumerate(ens.coeffs.tolist())  # one sample's text at a time
    ))


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
    times = [repr(t) for t in ens.times.tolist()]
    _write_csv(path, ["time", "mode", "mean", "variance"], ["".join(
        f"{t},{k},{m!r},{v!r}\r\n"
        for t, means, variances in zip(times, mean.tolist(), var.tolist())
        for k, (m, v) in enumerate(zip(means, variances))
    )])


def profile_to_csv(entries: list[ProfileEntry], path) -> None:
    """Regularity table: one row per (alpha, K') partial sum."""
    slopes = [repr(e.tail_slope) if np.isfinite(e.tail_slope) else "" for e in entries]
    _write_csv(path, ["alpha", "K'", "partial_sum", "slope"], [
        "".join(f"{e.alpha!r},{k},{val!r},{slope}\r\n"
                for k, val in enumerate(e.partial_sums.tolist(), start=1))
        for e, slope in zip(entries, slopes)
    ])
