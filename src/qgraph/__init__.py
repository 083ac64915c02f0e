"""Diffusion driven by vertex noise on metric graphs.

Tools for the operator picture (P1 discretization, eigensystems, vertex
traces, boundary pairing), exact analytic spectra for intervals and
Neumann stars, strong Feller verdicts, minimal-norm null control,
tree path decompositions, and exact-law Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .control import ControlDiagnostics, ControlResult, control_to_csv, solve_null_control
from .errors import (
    AsymmetricMatrixError,
    ConvergenceFailureError,
    CovarianceNotPSDError,
    InfeasiblePathUnionError,
    InvalidGraphError,
    InvalidPathUnionError,
    NotATreeError,
    NotPSDError,
    OmitNotBoundaryError,
    QGraphError,
    QGraphNumericalError,
    QGraphValidationError,
    RationalConditionFailedError,
    SameVertexError,
    SolveFailureError,
    SpectralGapAmbiguousError,
    SpectrumTooCoarseError,
    UnknownVertexError,
)
from .feller import (
    FellerVerdict,
    Witness,
    decide_feller,
    hautus_obstruction,
    rational_star_scan,
    sufficient_tree_rule,
)
from .graphs import (
    Coefficient,
    Edge,
    GraphClass,
    MetricGraph,
    classify,
    graph_from_dict,
    graph_to_dict,
    interval_graph,
    lasso_graph,
    load_graph,
    path_graph,
    save_graph,
    star_center,
    star_graph,
    unique_path,
    validate,
)
from .noise import NoiseModel, parse_noise
from .sim import (
    CovarianceReport,
    InvariantMeasureReport,
    ProfileEntry,
    TrajectoryEnsemble,
    ensemble_to_csv,
    invariant_measure_check,
    profile_to_csv,
    regularity_profile,
    simulate,
    summary_to_csv,
    verify_covariance,
)
from .spectral import (
    AnalyticMode,
    DiscreteOperator,
    EigenSystem,
    MeshLayout,
    adjoint_check,
    assemble,
    dirichlet_lift,
    eigensolve,
    interval_analytic,
    mode_to_csv,
    rational_star_mode,
    solve_spectrum,
    spectrum_to_csv,
    star_analytic,
    star_pair_modes,
)
from .treepaths import (
    DirectedPath,
    PathUnion,
    STActiveSet,
    path_union,
    path_union_from_dict,
    path_union_to_dict,
    st_active_set,
    verify_tf,
)

__all__ = [
    "__version__",
    # graphs
    "Coefficient", "Edge", "MetricGraph", "GraphClass",
    "validate", "classify", "unique_path",
    "graph_to_dict", "graph_from_dict", "load_graph", "save_graph",
    "interval_graph", "path_graph", "star_graph", "lasso_graph", "star_center",
    # spectral
    "MeshLayout", "DiscreteOperator", "EigenSystem", "AnalyticMode",
    "assemble", "eigensolve", "solve_spectrum",
    "star_analytic", "interval_analytic", "star_pair_modes", "rational_star_mode",
    "dirichlet_lift", "adjoint_check", "spectrum_to_csv", "mode_to_csv",
    # noise
    "NoiseModel", "parse_noise",
    # feller
    "FellerVerdict", "Witness",
    "decide_feller", "sufficient_tree_rule", "hautus_obstruction", "rational_star_scan",
    # control
    "ControlResult", "ControlDiagnostics", "solve_null_control", "control_to_csv",
    # tree paths
    "DirectedPath", "PathUnion", "STActiveSet",
    "path_union", "st_active_set", "verify_tf",
    "path_union_to_dict", "path_union_from_dict",
    # simulation
    "TrajectoryEnsemble", "simulate",
    "CovarianceReport", "verify_covariance",
    "ProfileEntry", "regularity_profile",
    "InvariantMeasureReport", "invariant_measure_check",
    "ensemble_to_csv", "summary_to_csv", "profile_to_csv",
    # errors
    "QGraphError", "QGraphValidationError", "QGraphNumericalError",
    "InvalidGraphError", "NotATreeError", "SameVertexError", "UnknownVertexError",
    "OmitNotBoundaryError", "InfeasiblePathUnionError", "InvalidPathUnionError",
    "NotPSDError", "AsymmetricMatrixError", "RationalConditionFailedError",
    "ConvergenceFailureError", "SolveFailureError",
    "CovarianceNotPSDError", "SpectralGapAmbiguousError", "SpectrumTooCoarseError",
]
