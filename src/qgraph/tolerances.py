"""Numerical thresholds used across the package.

Every threshold that can affect a reported verdict lives here so run
manifests can record the complete set.
"""

# eigenpair residual: ||K f - lambda M f||_{M^-1} <= EIG_RESIDUAL * (1 + lambda)
EIG_RESIDUAL = 1e-8

# mass orthonormality of eigenvectors: |<f_j, f_k> - delta_jk|
ORTHONORMALITY = 1e-8

# relative gap below which two eigenvalues are placed in the same cluster
CLUSTER_GAP = 1e-6

# residual of the discrete boundary-pairing identity
ADJOINT_RESIDUAL = 1e-6

# vertex-trace magnitudes treated as zero (Hautus tests, witnesses)
TRACE_ZERO = 1e-6

# relative tolerance for the odd-integer length-ratio condition on stars
RATIONAL_RATIO = 1e-12

# spectral gap below which lambda_0 counts as zero
SPECTRAL_GAP = 1e-8

# a discrete mode is trusted when lambda * h_max^2 <= this
TRUSTED_LAMBDA_H2 = 0.1

# relative eigenvalue cutoff when inverting the moment-problem Gram matrix
GRAM_TRUNCATION = 1e-12

# moment residuals above this flag the control solve as unresolved
CONTROL_RESIDUAL = 1e-8

# symmetry and positivity checks on noise covariance matrices
NOISE_SYMMETRY = 1e-12
NOISE_EIG_FLOOR = -1e-12
NOISE_SQRT_CHECK = 1e-10

# Cholesky jitter escalation for per-step increment covariances
JITTER_START = 1e-14
JITTER_STOP = 1e-10


def as_dict() -> dict:
    """All thresholds keyed by name, for run manifests."""
    return {
        "eig_residual": EIG_RESIDUAL,
        "orthonormality": ORTHONORMALITY,
        "cluster_gap": CLUSTER_GAP,
        "adjoint_residual": ADJOINT_RESIDUAL,
        "trace_zero": TRACE_ZERO,
        "rational_ratio": RATIONAL_RATIO,
        "spectral_gap": SPECTRAL_GAP,
        "trusted_lambda_h2": TRUSTED_LAMBDA_H2,
        "gram_truncation": GRAM_TRUNCATION,
        "control_residual": CONTROL_RESIDUAL,
        "noise_symmetry": NOISE_SYMMETRY,
        "noise_eig_floor": NOISE_EIG_FLOOR,
        "noise_sqrt_check": NOISE_SQRT_CHECK,
        "jitter_start": JITTER_START,
        "jitter_stop": JITTER_STOP,
    }
