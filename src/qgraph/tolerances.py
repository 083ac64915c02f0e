"""Numerical thresholds used across the package.

Every threshold that can affect a reported verdict lives here so run
manifests can record the complete set.
"""

# eigenpair residual: ||K f - lambda M f||_{M^-1} <= EIG_RESIDUAL * (lambda + rho)
# with rho = max_i K_ii / M_ii (about 3 c / h^2 for P1), the operator's own
# scale, which roundoff follows; a (1 + lambda) scale fails valid fine meshes.
# Also the zero mode's roundoff: lambda_0 < -EIG_RESIDUAL * rho is rejected
EIG_RESIDUAL = 1e-8

# mass orthonormality of eigenvectors: max |<f_j, f_k> - delta_jk|
ORTHONORMALITY = 1e-8

# relative gap below which two eigenvalues are placed in the same cluster
CLUSTER_GAP = 1e-6

# vertex-trace magnitudes treated as zero (Hautus tests, witnesses)
TRACE_ZERO = 1e-6

# relative tolerance for the odd-integer length-ratio condition on stars
RATIONAL_RATIO = 1e-12

# odd-ratio search depth on stars: orders na, nb <= this, so a ratio that
# needs a deeper order leaves the verdict Unknown
RATIONAL_MAX_ORDER = 64

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

# sampled moments with zero exact standard error must be this small, or the
# covariance check reports zero_entries_ok false
ZERO_MOMENT = 1e-12

# pivoted-Cholesky stop on the per-step innovation correlation matrix, and
# the bound on the dropped residual max |corr - F F^T|
INNOVATION_DROP = 1e-14


def as_dict() -> dict:
    """All thresholds keyed by name, for run manifests."""
    return {
        "eig_residual": EIG_RESIDUAL,
        "orthonormality": ORTHONORMALITY,
        "cluster_gap": CLUSTER_GAP,
        "trace_zero": TRACE_ZERO,
        "rational_ratio": RATIONAL_RATIO,
        "rational_max_order": RATIONAL_MAX_ORDER,
        "spectral_gap": SPECTRAL_GAP,
        "trusted_lambda_h2": TRUSTED_LAMBDA_H2,
        "gram_truncation": GRAM_TRUNCATION,
        "control_residual": CONTROL_RESIDUAL,
        "noise_symmetry": NOISE_SYMMETRY,
        "noise_eig_floor": NOISE_EIG_FLOOR,
        "noise_sqrt_check": NOISE_SQRT_CHECK,
        "zero_moment": ZERO_MOMENT,
        "innovation_drop": INNOVATION_DROP,
    }
