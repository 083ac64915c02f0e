"""Minimal-norm null control through vertex noise channels.

Steering the mode expansion of the state to zero at a horizon T reduces
to a finite moment problem: with per-mode channel vectors
w_k = Q^(1/2) (vertex traces of f_k), the control
u(s) = sum_k c_k exp(-lambda_k (T - s)) w_k reaches zero iff
G c = b, where b_k = exp(-lambda_k T) z0_k and the Gram matrix couples
channels through overlaps and exponential time weights.  G is
symmetric PSD and typically very ill conditioned, so it is inverted by
a scaled eigendecomposition with a relative spectral cutoff; what the
truncated solve cannot reach is reported, not hidden — the residual is
exactly the terminal state left over (up to sign).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import QGraphNumericalError, QGraphValidationError
from .noise import NoiseModel, _check_vertices
from .spectral import EigenSystem, _integer, _write_csv

__all__ = ["ControlDiagnostics", "ControlResult", "solve_null_control", "control_to_csv"]


@dataclass(frozen=True)
class ControlDiagnostics:
    gram_size: int
    gram_rank: int
    gram_truncated: bool
    condition: float
    residual_norm: float
    residual_above_tol: bool

    def to_json(self) -> dict:
        return {
            "gram_size": int(self.gram_size),
            "gram_rank": int(self.gram_rank),
            "gram_truncated": bool(self.gram_truncated),
            # inf when the truncation keeps nothing: JSON has no infinity
            "condition": self.condition if math.isfinite(self.condition) else None,
            "residual_norm": float(self.residual_norm),
            "residual_above_tol": bool(self.residual_above_tol),
        }


@dataclass(frozen=True)
class ControlResult:
    """Solution of the null-control moment problem on a time grid.

    control[i] is the vertex-space control vector at times[i]; the
    terminal coefficients are the mode amplitudes of the state at the
    horizon under this control (zero iff the moment equations were
    solved exactly).
    """

    times: np.ndarray
    control: np.ndarray
    coefficients: np.ndarray
    moment_rhs: np.ndarray
    residual: np.ndarray
    terminal_coefficients: np.ndarray
    control_norm: float
    uncontrolled_norm: float
    horizon: float
    diagnostics: ControlDiagnostics

    @property
    def terminal_norm(self) -> float:
        """Norm of the projected state at the horizon under this control."""
        return float(np.linalg.norm(self.terminal_coefficients))


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0):
        raise QGraphValidationError("horizon must be finite and positive")


def _eta(mu: np.ndarray, t) -> np.ndarray:
    """Integral of exp(-mu (t - s)) over [0, t], safe at mu = 0; broadcasts
    over t.  Where mu t underflows to 0 the integral is t, as at mu = 0."""
    mu = np.asarray(mu, dtype=float)
    live = mu * t > 0
    safe = np.where(live, mu, 1.0)
    return np.where(live, -np.expm1(-safe * t) / safe, t)


def _decay(lambdas: np.ndarray, t) -> np.ndarray:
    """exp(-lambda t); broadcasts over t.  At a huge horizon -lambda t
    overflows to -inf, where the decay is exactly 0."""
    with np.errstate(over="ignore"):
        return np.exp(-lambdas * t)


# -- the exact Gaussian law of the mode coefficients, shared with sim -------

def _modes_in_play(eig: EigenSystem, num_modes: int | None, least: int = 1) -> int:
    """The number of leading modes used, all of them when num_modes is None."""
    k = eig.num_modes if num_modes is None else _integer(num_modes, "num_modes")
    if k < least:
        raise QGraphValidationError(f"needs at least {least} modes, got {k}")
    if k > eig.num_modes:
        raise QGraphValidationError(f"num_modes must be at most {eig.num_modes}, got {k}")
    return k


def _initial_coeffs(z0_coeffs, k: int) -> np.ndarray:
    """Initial mode coefficients, zero-padded to length k."""
    z0 = np.asarray(z0_coeffs, dtype=float).ravel()
    if len(z0) > k:
        raise QGraphValidationError("z0 has more coefficients than modes in play")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(z0 @ z0):
            raise QGraphValidationError("z0 must be finite, with a finite squared norm")
    return np.pad(z0, (0, k - len(z0)))


def _channels(eig: EigenSystem, noise: NoiseModel, k: int) -> np.ndarray:
    """Channel vectors w_k of the first k modes, row-wise."""
    _check_vertices(eig.graph, noise)
    return eig.vertex_traces[:k] @ noise.q_sqrt


def _covariance(lambdas: np.ndarray, channels: np.ndarray, t) -> np.ndarray:
    """Covariance (w_k . w_l) eta(lambda_k + lambda_l, t) of the stochastic
    convolution, and the null-control Gram matrix at horizon t; exactly
    symmetric.  An array of times gives one matrix per time."""
    t = np.asarray(t, dtype=float)[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (channels @ channels.T) * _eta(lambdas[:, None] + lambdas[None, :], t)
    if not np.all(np.isfinite(cov)):
        raise QGraphValidationError("noise intensity and horizon too large: the covariance overflows")
    return cov


def _variance_sums(lambdas: np.ndarray, channels: np.ndarray, t, weights=1.0):
    """Weighted mode variances weights_k Var X_k(t), the diagonal of
    _covariance, and their partial sums over k, both along the last axis;
    an array of times, or of weights, adds leading axes."""
    var = np.diagonal(_covariance(lambdas, channels, t), axis1=-2, axis2=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights * var
        sums = np.cumsum(terms, axis=-1)
    if not np.all(np.isfinite(sums)):  # finite sums mean finite terms too
        raise QGraphValidationError(
            "noise intensity and horizon too large: the variance sum overflows")
    return terms, sums


def solve_null_control(
    eig: EigenSystem,
    noise: NoiseModel,
    z0_coeffs,
    horizon: float,
    num_modes: int | None = None,
    grid_points: int = 201,
) -> ControlResult:
    """Minimal-norm control steering the first num_modes modes to zero.

    z0_coeffs holds the initial state's coefficients in the eigenbasis
    (shorter vectors are zero-padded).  Ill conditioning of the Gram
    matrix is expected — modes whose traces the noise cannot see leave
    a genuinely unreachable component — and is reported through the
    diagnostics rather than raised.
    """
    _check_horizon(horizon)
    k_total = _modes_in_play(eig, num_modes)  # the grid's arrays take max(k, n) per point
    grid_points = _integer(grid_points, "grid_points", 2, max(k_total, eig.layout.n_vertices))
    z0 = _initial_coeffs(z0_coeffs, k_total)
    lambdas = eig.lambdas[:k_total]
    channels = _channels(eig, noise, k_total)
    b = _decay(lambdas, horizon) * z0
    gram = _covariance(lambdas, channels, horizon)

    # scaled spectral pseudo-inverse
    diag = np.diag(gram)
    scale = np.divide(1.0, np.sqrt(diag), out=np.ones_like(diag), where=diag > 0)
    gs = gram * scale[:, None] * scale[None, :]
    w, u = np.linalg.eigh(gs)
    w = np.maximum(w, 0.0)
    wmax = w[-1] if len(w) else 0.0
    keep = w > tol.GRAM_TRUNCATION * wmax
    rank = int(np.count_nonzero(keep))
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    times = np.linspace(0.0, horizon, grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        c = scale * (u @ (inv * (u.T @ (scale * b))))
        residual = gram @ c - b
        quad = float(c @ gram @ c)
        residual_norm = float(np.linalg.norm(residual))
        control = np.exp(-np.outer(horizon - times, lambdas)) @ (c[:, None] * channels)
    if not (np.isfinite(quad) and np.isfinite(residual_norm) and np.all(np.isfinite(control))):
        # the scaled coefficients grow like 1/T (a vanishing horizon) or with z0
        raise QGraphNumericalError(f"moment solve is not finite at horizon {horizon:g}")

    terminal = -residual
    control_norm = float(np.sqrt(max(quad, 0.0)))
    uncontrolled = float(np.linalg.norm(b))

    condition = float(wmax / w[keep].min()) if rank else np.inf
    diagnostics = ControlDiagnostics(
        gram_size=k_total,
        gram_rank=rank,
        gram_truncated=rank < k_total,
        condition=condition,
        residual_norm=residual_norm,
        residual_above_tol=residual_norm > tol.CONTROL_RESIDUAL * max(1.0, uncontrolled),
    )

    return ControlResult(
        times=times,
        control=control,
        coefficients=c,
        moment_rhs=b,
        residual=residual,
        terminal_coefficients=terminal,
        control_norm=control_norm,
        uncontrolled_norm=uncontrolled,
        horizon=float(horizon),
        diagnostics=diagnostics,
    )


def control_to_csv(result: ControlResult, vertices, path) -> None:
    _write_csv(path, ["t"] + [f"u_{v}" for v in vertices], ["".join(
        ",".join(map(repr, [t, *row])) + "\r\n"
        for t, row in zip(result.times.tolist(), result.control.tolist())
    )])
