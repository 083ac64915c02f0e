"""Deciding the strong Feller property of the vertex-noise semigroup.

Three mechanisms are implemented.  A sufficient rule covers trees with
unit diffusion, one uniform constant potential, and diagonal noise
active at all boundary vertices save at most one.  Two scans look for
an eigenfunction whose noise-weighted vertex traces vanish, which rules
the property out, and both put the question to one test, _invisible.
The spectral scan (Hautus) tries every trusted eigenvalue cluster of a
computed eigensystem.  The pendant-pair scan tries every two pendant
edges with unit diffusion and zero potential that meet at one vertex:
when their lengths are in an odd-odd ratio, a cosine mode lives on the
pair alone and escapes any finite mesh.  Anything not settled by these
returns Unknown rather than a guess.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import tolerances as tol
from .errors import InvalidGraphError, QGraphNumericalError
from .graphs import Coefficient, MetricGraph
from .noise import NoiseModel, _check_vertices
from .spectral import EigenSystem, _build_layout, _check_num_modes, _pair_mode, solve_spectrum

__all__ = [
    "Witness",
    "FellerVerdict",
    "sufficient_tree_rule",
    "hautus_obstruction",
    "rational_star_scan",
    "decide_feller",
]

VERDICT_STRONG = "StrongFeller"
VERDICT_NOT = "NotStrongFeller"
VERDICT_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Witness:
    """A direction in an eigenspace invisible to the noise.

    traces is the combined mode's vertex trace vector (graph vertex
    order); residual is the norm of the noise square root applied to it.
    """

    eigenvalue: float
    multiplicity: int
    traces: np.ndarray
    residual: float
    cluster_index: int | None = None
    coefficients: np.ndarray | None = None
    mode_orders: tuple[int, int] | None = None
    edge_pair: tuple[str, str] | None = None

    def to_json(self) -> dict:
        out = {
            "eigenvalue": float(self.eigenvalue),
            "multiplicity": int(self.multiplicity),
            "traces": [float(x) for x in self.traces],
            "residual": float(self.residual),
        }
        if self.cluster_index is not None:
            out["cluster"] = int(self.cluster_index)
        if self.coefficients is not None:
            out["coeffs"] = [float(x) for x in self.coefficients]
        if self.mode_orders is not None:
            out["mode_orders"] = [int(x) for x in self.mode_orders]
        if self.edge_pair is not None:
            out["edge_pair"] = list(self.edge_pair)
        return out


@dataclass(frozen=True)
class FellerVerdict:
    verdict: str
    rule: str
    detail: str
    witness: Witness | None = None
    checked_clusters: int = 0

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "detail": self.detail,
            "witness": None if self.witness is None else self.witness.to_json(),
            "checked_clusters": int(self.checked_clusters),
        }


def sufficient_tree_rule(graph: MetricGraph, noise: NoiseModel) -> str | None:
    """Detail string when the tree sufficiency criterion applies, else None.

    Requirements: the graph is a tree with unit diffusion and one uniform
    constant potential p, the noise is diagonal, and every boundary
    vertex except at most one carries positive intensity.  The shift
    w = e^(pt) z maps controls to controls, so p = 0 covers any uniform
    p; no argument here covers a potential that varies.
    """
    _check_vertices(graph, noise)
    if not graph.is_tree:
        return None
    if any(e.diffusion != Coefficient.const(1.0) for e in graph.edges):
        return None
    levels = {p for e in graph.edges for p in e.potential.values}
    if len(levels) != 1:
        return None
    if not noise.is_diagonal:
        return None
    boundary = graph.boundary_vertices
    quiet = [v for v in boundary if noise.is_quiet(v)]
    if len(quiet) > 1:
        return None
    active = [v for v in boundary if v not in quiet]
    (p,) = levels
    return (
        f"tree with unit diffusion, diagonal noise active at "
        f"{len(active)}/{len(boundary)} boundary vertices"
        + (f" (quiet: {quiet[0]})" if quiet else "")
        + (f"; uniform potential {p:g}, shifted to 0 by e^(pt)" if p else "")
    )


def _invisible(noise: NoiseModel, traces: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The unit combination c of the columns of an n x d trace block that
    the noise sees least, with its residual ||Q^(1/2) T c||, or None when
    that residual exceeds TRACE_ZERO.

    The SVD is full: with more columns than vertices, the null directions
    of Q^(1/2) T are rows of vt that a reduced SVD leaves out.
    """
    w_mat = noise.q_sqrt @ traces
    coeff = np.linalg.svd(w_mat)[2][-1]
    residual = float(np.linalg.norm(w_mat @ coeff))
    return None if residual > tol.TRACE_ZERO else (coeff, residual)


def hautus_obstruction(eig: EigenSystem, noise: NoiseModel) -> Witness | None:
    """Scan trusted eigenvalue clusters for a noise-invisible direction.

    For each complete trusted cluster, the columns of T hold its vertex
    traces; the first cluster with a combination c of residual
    ||Q^(1/2) T c|| <= TRACE_ZERO gives the witness.
    """
    _check_vertices(eig.graph, noise)
    usable = eig.trusted_cluster_indices()
    if not usable:
        raise QGraphNumericalError("no complete trusted eigenvalue clusters")
    for ci in usable:
        found = _invisible(noise, eig.trace_matrix(ci))
        if found is None:
            continue
        coeff, residual = found
        a, b = eig.clusters[ci]
        return Witness(
            eigenvalue=eig.cluster_eigenvalue(ci),
            multiplicity=b - a,
            traces=eig.vertex_traces[a:b].T @ coeff,
            residual=residual,
            cluster_index=ci,
            coefficients=coeff,
        )
    return None


def _odd_ratio_orders(la: float, lb: float) -> tuple[int, int] | None:
    """Smallest (na, nb) with la/lb = (2 na + 1)/(2 nb + 1), if any, with
    both orders at most RATIONAL_MAX_ORDER."""
    ratio = la / lb
    for nb in range(tol.RATIONAL_MAX_ORDER + 1):
        target = ratio * (2 * nb + 1)
        na2 = round((target - 1.0) / 2.0)
        if na2 < 0 or na2 > tol.RATIONAL_MAX_ORDER:
            continue
        cand = 2 * na2 + 1
        if abs(cand - target) <= tol.RATIONAL_RATIO * abs(target):
            return na2, nb
    return None


def rational_star_scan(graph: MetricGraph, noise: NoiseModel) -> Witness | None:
    """Arithmetic search for two-edge eigenfunctions a mesh cannot see.

    Looks at every two pendant edges a and b, each with unit diffusion
    and zero potential, that meet at a common vertex u: a two-edge star
    inside the graph.  When la / lb is an odd-odd integer ratio, the
    cosine mode of _pair_mode on a and b, zero elsewhere, vanishes at u
    with balanced derivatives, so it is an eigenfunction whatever else
    meets u.  Its only nonzero traces sit at the two leaves; a mode the
    noise cannot see there is a genuine obstruction at any resolution.
    Returns the lowest such eigenvalue's witness.
    """
    _check_vertices(graph, noise)
    unit, zero = Coefficient.const(1.0), Coefficient.const(0.0)
    pendant = []  # (edge index, leaf, the other end)
    for j, e in enumerate(graph.edges):
        if e.diffusion == unit and e.potential == zero:
            for leaf, u in ((e.tail, e.head), (e.head, e.tail)):
                if graph.degree(leaf) == 1:
                    pendant.append((j, leaf, u))
                    break
    best: Witness | None = None
    for (a, va, u), (b, vb, ub) in combinations(pendant, 2):
        if u != ub:
            continue
        la, lb = graph.edges[a].length, graph.edges[b].length
        orders = _odd_ratio_orders(la, lb)
        if orders is None:
            continue
        mu, amp_a, amp_b = _pair_mode(la, lb, *orders)
        traces = np.zeros(graph.n)
        traces[graph.vertex_index[va]] = amp_a
        traces[graph.vertex_index[vb]] = amp_b
        found = _invisible(noise, traces[:, None])
        if found is not None and (best is None or mu < best.eigenvalue):
            best = Witness(
                eigenvalue=mu,
                multiplicity=1,
                traces=traces,
                residual=found[1],
                mode_orders=orders,
                edge_pair=(graph.edges[a].id, graph.edges[b].id),
            )
    return best


def decide_feller(
    graph: MetricGraph,
    noise: NoiseModel,
    eig: EigenSystem | None = None,
    elements_per_edge: int = 256,
    num_modes: int = 50,
) -> FellerVerdict:
    """Combine the sufficient rule, the spectral scan, and the pendant-pair scan.

    The sufficient rule fires first; otherwise an eigensystem (computed
    here unless supplied) is scanned for Hautus failures, then the
    pendant-edge pairs are checked arithmetically (rule rational-star,
    since each pair is a two-edge star).  Verdicts never guess: graphs
    outside all three mechanisms come back Unknown.  A supplied eig must
    have been solved on this graph (equal by value), or InvalidGraphError
    is raised before any rule runs; without one, elements_per_edge and
    num_modes are checked as solve_spectrum checks them, also when the
    sufficient rule answers without a solve.
    """
    if eig is None:
        _check_num_modes(_build_layout(graph, elements_per_edge), num_modes)
    elif eig.graph != graph:
        raise InvalidGraphError(["the eigensystem was solved on another graph"])
    detail = sufficient_tree_rule(graph, noise)
    if detail is not None:
        return FellerVerdict(verdict=VERDICT_STRONG, rule="thm-main", detail=detail)

    if eig is None:
        eig = solve_spectrum(graph, elements_per_edge, num_modes)
    checked = len(eig.trusted_cluster_indices())

    witness = hautus_obstruction(eig, noise)
    if witness is not None:
        return FellerVerdict(
            verdict=VERDICT_NOT,
            rule="hautus",
            detail=(
                f"eigenvalue cluster {witness.cluster_index} at "
                f"{witness.eigenvalue:.6g} (multiplicity {witness.multiplicity}) has "
                f"noise-weighted trace residual {witness.residual:.3g}"
            ),
            witness=witness,
            checked_clusters=checked,
        )

    star_witness = rational_star_scan(graph, noise)
    if star_witness is not None:
        na, nb = star_witness.mode_orders
        return FellerVerdict(
            verdict=VERDICT_NOT,
            rule="rational-star",
            detail=(
                f"edges {star_witness.edge_pair[0]} and {star_witness.edge_pair[1]} "
                f"have odd-ratio lengths ({2 * na + 1}:{2 * nb + 1}); the supported "
                f"cosine mode at eigenvalue {star_witness.eigenvalue:.6g} has zero "
                f"noise-weighted traces"
            ),
            witness=star_witness,
            checked_clusters=checked,
        )

    return FellerVerdict(
        verdict=VERDICT_UNKNOWN,
        rule="unknown",
        detail=(
            f"no obstruction among {checked} trusted clusters "
            f"(h_max = {eig.layout.h_max:.4g}) and the sufficiency criterion does not apply"
        ),
        checked_clusters=checked,
    )
