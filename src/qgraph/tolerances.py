"""Numerical thresholds used across the package.

Every threshold that can affect a reported verdict lives here so run
manifests can record the complete set.
"""

# eigenpair residual: ||K f - lambda M f||_{M^-1} <= EIG_RESIDUAL * (lambda + rho)
# with rho = max_i K_ii / M_ii (about 3 c / h^2 for P1), the operator's own
# scale, which roundoff follows; a (1 + lambda) scale fails valid fine meshes.
# Also the zero mode's roundoff: lambda_0 < -EIG_RESIDUAL * rho is rejected
EIG_RESIDUAL = 1e-8

# spectrum slicing: a Newton step under SLICE_WINDOW relative to the value
# (or min c/length^2) converges, roots whose steps agree to it share a
# shift, and values that close form one cluster;
# slicing costs (n + m)^3 per shift, so larger graphs run Lanczos
SLICE_WINDOW = 1e-12
SLICE_MAX_ORDER = 64

# mass orthonormality of eigenvectors: max |<f_j, f_k> - delta_jk|
ORTHONORMALITY = 1e-8

# relative gap below which two eigenvalues are placed in the same cluster
CLUSTER_GAP = 1e-6

# noise-weighted trace residuals treated as zero (both Feller scans' witnesses)
TRACE_ZERO = 1e-6

# relative tolerance for the odd-integer length ratio of a pendant-edge pair
RATIONAL_RATIO = 1e-12

# odd-ratio search depth on pendant-edge pairs: orders na, nb <= this, so a
# ratio that needs a deeper order leaves the verdict Unknown
RATIONAL_MAX_ORDER = 64

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
    """All thresholds keyed by name, for run manifests: every upper-case
    constant above, in lower case."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
