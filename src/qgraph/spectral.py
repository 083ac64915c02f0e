"""Discrete operators on metric graphs and their eigensystems.

The differential operator z -> (c z')' - p z acts edgewise subject to
continuity across vertices and a Kirchhoff balance of co-normal
derivatives.  Discretization is conforming P1 finite elements with one
shared unknown per vertex, which imposes continuity exactly and leaves
the Kirchhoff condition natural, so eigenpairs of the generalized
problem  stiffness f = lambda mass f  approximate the spectrum of the
(negated) operator: 0 <= lambda_0 <= lambda_1 <= ...

An exact analytic backend covers equilateral Neumann stars and the
single interval, including the cosine families supported on edge pairs
whose lengths have an odd-integer ratio.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import tolerances as tol
from .errors import (
    ConvergenceFailureError,
    InvalidGraphError,
    RationalConditionFailedError,
    SolveFailureError,
)
from .graphs import Coefficient, MetricGraph, interval_graph, star_graph, validate

__all__ = [
    "MeshLayout",
    "DiscreteOperator",
    "EigenSystem",
    "AnalyticMode",
    "assemble",
    "eigensolve",
    "solve_spectrum",
    "star_analytic",
    "interval_analytic",
    "star_pair_modes",
    "rational_star_mode",
    "dirichlet_lift",
    "adjoint_check",
    "spectrum_to_csv",
    "mode_to_csv",
]


@dataclass(frozen=True)
class MeshLayout:
    """Global dof layout: vertex dofs first, then edge-interior nodes.

    Edge j with N_j elements contributes N_j - 1 interior nodes; its
    endpoint nodes are the shared vertex dofs, which is what glues the
    edgewise P1 spaces into a continuous space on the graph.
    """

    n_vertices: int
    elements_per_edge: tuple[int, ...]
    lengths: tuple[float, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    interior_starts: tuple[int, ...]
    total_dof: int

    def h(self, j: int) -> float:
        return self.lengths[j] / self.elements_per_edge[j]

    @property
    def h_max(self) -> float:
        return max(self.h(j) for j in range(len(self.lengths)))

    def edge_dofs(self, j: int) -> np.ndarray:
        """Global indices of the N_j + 1 nodes along edge j, tail first."""
        nel = self.elements_per_edge[j]
        idx = np.empty(nel + 1, dtype=np.int64)
        idx[0] = self.tails[j]
        idx[-1] = self.heads[j]
        start = self.interior_starts[j]
        idx[1:-1] = np.arange(start, start + nel - 1)
        return idx

    def edge_coords(self, j: int) -> np.ndarray:
        return np.linspace(0.0, self.lengths[j], self.elements_per_edge[j] + 1)


def _build_layout(graph: MetricGraph, elements_per_edge: int) -> MeshLayout:
    n = graph.n
    tails = []
    heads = []
    starts = []
    offset = n
    for e in graph.edges:
        tails.append(graph.vertex_index[e.tail])
        heads.append(graph.vertex_index[e.head])
        starts.append(offset)
        offset += elements_per_edge - 1
    return MeshLayout(
        n_vertices=n,
        elements_per_edge=tuple([elements_per_edge] * graph.m),
        lengths=tuple(e.length for e in graph.edges),
        tails=tuple(tails),
        heads=tuple(heads),
        interior_starts=tuple(starts),
        total_dof=offset,
    )


@dataclass(frozen=True)
class DiscreteOperator:
    graph: MetricGraph
    layout: MeshLayout
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix

    @cached_property
    def shifted_lu(self):
        """Factorization of (mass + stiffness), used by the Dirichlet lift."""
        return spla.splu((self.mass + self.stiffness).tocsc())

    @cached_property
    def mass_lu(self):
        return spla.splu(self.mass.tocsc())


def assemble(graph: MetricGraph, elements_per_edge: int) -> DiscreteOperator:
    """P1 stiffness and mass matrices with shared vertex dofs.

    elements_per_edge is the number of mesh cells per edge (>= 2), so
    edge j has spacing h_j = length_j / elements_per_edge.  Variable
    coefficients are integrated by the midpoint rule per element;
    constant coefficients reproduce the classical stencils exactly.
    """
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    if elements_per_edge < 2:
        raise ValueError("elements_per_edge must be at least 2")

    layout = _build_layout(graph, elements_per_edge)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    k_vals: list[np.ndarray] = []
    m_vals: list[np.ndarray] = []

    for j, e in enumerate(graph.edges):
        idx = layout.edge_dofs(j)
        coords = layout.edge_coords(j)
        h = layout.h(j)
        mids = 0.5 * (coords[:-1] + coords[1:])
        c_mid = e.diffusion.at(mids, e.length)

        # stiffness: c-part from the midpoint rule (exact for constant c)
        k00 = c_mid / h
        k01 = -c_mid / h

        # potential term
        if e.potential.is_constant:
            pval = e.potential.constant_value
            p00 = np.full_like(c_mid, pval * h / 3.0)
            p01 = np.full_like(c_mid, pval * h / 6.0)
        else:
            p_mid = e.potential.at(mids, e.length)
            p00 = p_mid * h / 4.0
            p01 = p_mid * h / 4.0

        m00 = np.full_like(c_mid, h / 3.0)
        m01 = np.full_like(c_mid, h / 6.0)

        left = idx[:-1]
        right = idx[1:]
        rows.append(np.concatenate([left, right, left, right]))
        cols.append(np.concatenate([left, right, right, left]))
        k_vals.append(np.concatenate([k00 + p00, k00 + p00, k01 + p01, k01 + p01]))
        m_vals.append(np.concatenate([m00, m00, m01, m01]))

    r = np.concatenate(rows)
    c = np.concatenate(cols)
    shape = (layout.total_dof, layout.total_dof)
    stiffness = sp.coo_matrix((np.concatenate(k_vals), (r, c)), shape=shape).tocsr()
    mass = sp.coo_matrix((np.concatenate(m_vals), (r, c)), shape=shape).tocsr()
    return DiscreteOperator(graph=graph, layout=layout, stiffness=stiffness, mass=mass)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenpairs with vertex traces and multiplicity clusters.

    vectors holds one global nodal vector per row; vertex traces are the
    first n_vertices entries of each.  clusters are half-open index
    ranges grouping eigenvalues equal up to a relative gap.
    """

    graph: MetricGraph
    layout: MeshLayout
    lambdas: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[int, int], ...]
    trusted: np.ndarray
    source: str
    residuals: np.ndarray | None = None

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)

    @cached_property
    def vertex_traces(self) -> np.ndarray:
        return np.ascontiguousarray(self.vectors[:, : self.layout.n_vertices])

    @property
    def h_max(self) -> float:
        return self.layout.h_max

    def cluster_eigenvalue(self, ci: int) -> float:
        a, b = self.clusters[ci]
        return float(np.mean(self.lambdas[a:b]))

    def cluster_multiplicity(self, ci: int) -> int:
        a, b = self.clusters[ci]
        return b - a

    def trace_matrix(self, ci: int) -> np.ndarray:
        """n_vertices x multiplicity matrix of traces for one cluster."""
        a, b = self.clusters[ci]
        return self.vertex_traces[a:b].T.copy()

    def trusted_cluster_indices(self) -> list[int]:
        """Clusters whose every mode is trusted and whose multiplicity is
        certain (a cluster touching the truncation end may be cut off)."""
        out = []
        for ci, (a, b) in enumerate(self.clusters):
            if not bool(self.trusted[a:b].all()):
                continue
            if self.source == "fem" and b == self.num_modes:
                continue
            out.append(ci)
        return out

    def cluster_of_mode(self, k: int) -> int:
        for ci, (a, b) in enumerate(self.clusters):
            if a <= k < b:
                return ci
        raise IndexError(k)

    def edge_values(self, k: int) -> dict[str, np.ndarray]:
        """Nodal values of mode k along each edge, tail to head."""
        if not 0 <= k < self.num_modes:
            raise ValueError(f"mode index must lie in [0, {self.num_modes - 1}], got {k}")
        out = {}
        for j, e in enumerate(self.graph.edges):
            out[e.id] = self.vectors[k, self.layout.edge_dofs(j)].copy()
        return out


def _cluster_ranges(lambdas: np.ndarray) -> tuple[tuple[int, int], ...]:
    clusters = []
    start = 0
    for k in range(1, len(lambdas)):
        if lambdas[k] - lambdas[k - 1] > tol.CLUSTER_GAP * (1.0 + abs(lambdas[k])):
            clusters.append((start, k))
            start = k
    clusters.append((start, len(lambdas)))
    return tuple(clusters)


def eigensolve(op: DiscreteOperator, num_modes: int) -> EigenSystem:
    """Lowest eigenpairs of stiffness f = lambda mass f.

    One path at every size: shift-invert Lanczos (ARPACK) about a
    negative shift, so the singular p = 0 case stays factorizable,
    started from a fixed generic vector (standard normals from
    default_rng(0)).  The fixed start makes the result a pure function
    of the operator; a symmetric start such as all ones would miss the
    modes orthogonal to the graph's symmetric subspace.  Vectors come
    back mass-orthonormal; clusters are re-orthonormalized symmetrically
    for safety.  Accuracy guidance: keep num_modes well below the dof
    count (one order of magnitude).
    """
    dof = op.layout.total_dof
    if not 1 <= num_modes <= dof - 1:
        raise ValueError(f"num_modes must lie in [1, {dof - 1}]")

    try:
        w, v = spla.eigsh(
            op.stiffness,
            k=num_modes,
            M=op.mass,
            sigma=-1.0,
            which="LM",
            v0=np.random.default_rng(0).standard_normal(dof),
        )
    except spla.ArpackError as exc:
        raise ConvergenceFailureError(f"Lanczos iteration failed: {exc}") from exc
    order = np.argsort(w)
    w = w[order]
    v = v[:, order]

    # clamp the roundoff-negative zero mode
    if w[0] < -1e-6 * (1.0 + abs(w[-1])):
        raise ConvergenceFailureError(f"spurious negative eigenvalue {w[0]}")
    w = np.maximum(w, 0.0)

    clusters = _cluster_ranges(w)

    # symmetric re-orthonormalization inside each cluster (mass inner product)
    for a, b in clusters:
        if b - a < 2:
            continue
        block = v[:, a:b]
        gram = block.T @ (op.mass @ block)
        ew, eu = scipy.linalg.eigh(gram)
        if ew.min() <= 0:
            raise ConvergenceFailureError("degenerate cluster basis")
        v[:, a:b] = block @ (eu / np.sqrt(ew)) @ eu.T

    # residual norms in the inverse-mass metric
    residuals = np.empty(num_modes)
    for k in range(num_modes):
        r = op.stiffness @ v[:, k] - w[k] * (op.mass @ v[:, k])
        residuals[k] = float(np.sqrt(abs(r @ op.mass_lu.solve(r))))

    h_max = op.layout.h_max
    trusted = w * h_max**2 <= tol.TRUSTED_LAMBDA_H2

    return EigenSystem(
        graph=op.graph,
        layout=op.layout,
        lambdas=w,
        vectors=np.ascontiguousarray(v.T),
        clusters=clusters,
        trusted=trusted,
        source="fem",
        residuals=residuals,
    )


def solve_spectrum(graph: MetricGraph, elements_per_edge: int, num_modes: int) -> EigenSystem:
    """Assemble and solve in one step."""
    return eigensolve(assemble(graph, elements_per_edge), num_modes)


# -- analytic backends --------------------------------------------------------


@dataclass(frozen=True)
class AnalyticMode:
    """A cosine mode on a star: per-edge amplitudes of cos(sqrt(mu) x)."""

    eigenvalue: float
    amplitudes: np.ndarray
    traces: np.ndarray
    sign: int | None = None
    orders: tuple[int, int] | None = None


def _star_system_from_modes(
    graph: MetricGraph,
    length: float,
    modes: list[tuple[float, np.ndarray]],
    clusters: tuple[tuple[int, int], ...],
    elements_per_edge: int,
    source: str,
) -> EigenSystem:
    """Sample cosine modes with given per-edge amplitudes on a mesh."""
    layout = _build_layout(graph, elements_per_edge)
    num = len(modes)
    vectors = np.zeros((num, layout.total_dof))
    for k, (mu, amps) in enumerate(modes):
        root = np.sqrt(max(mu, 0.0))
        for j in range(graph.m):
            x = layout.edge_coords(j)
            vals = amps[j] * np.cos(root * x)
            idx = layout.edge_dofs(j)
            vectors[k, idx] = vals
        # pin exact zeros at the center for the antisymmetric families
        mu_ell = root * length / np.pi
        if abs(mu_ell - (round(mu_ell - 0.5) + 0.5)) < 1e-12 and mu > 0:
            vectors[k, 0] = 0.0
    lambdas = np.array([m[0] for m in modes])
    return EigenSystem(
        graph=graph,
        layout=layout,
        lambdas=lambdas,
        vectors=vectors,
        clusters=clusters,
        trusted=np.ones(num, dtype=bool),
        source=source,
    )


def star_analytic(
    n_edges: int,
    length: float,
    num_clusters: int,
    elements_per_edge: int = 32,
) -> EigenSystem:
    """Exact spectrum of the equilateral Neumann star (c = 1, p = 0).

    Distinct eigenvalues alternate between simple fully symmetric modes
    at (k pi / length)^2 and ((k + 1/2) pi / length)^2 families of
    multiplicity n_edges - 1 vanishing at the center; the constant mode
    sits at zero.  Multiple eigenvalues carry the edge-pair family of
    star_pair_modes: the j-th member has amplitude 1/sqrt(length) on the
    first edge and the negative of that on edge j + 1.  Each member is
    normalized but the family is not orthogonal (any two share the first
    edge, inner product 1/2), so cluster computations downstream must
    not assume orthonormality of this basis.
    """
    if n_edges < 2:
        raise ValueError("a star needs at least two edges")
    if num_clusters < 1:
        raise ValueError("num_clusters must be positive")
    graph = star_graph([length] * n_edges)
    ell = float(length)

    sym_amp = np.sqrt(2.0 / (n_edges * ell))

    modes: list[tuple[float, np.ndarray]] = []
    clusters: list[tuple[int, int]] = []

    # cluster 0: the constant mode
    const_amp = np.full(n_edges, 1.0 / np.sqrt(n_edges * ell))
    modes.append((0.0, const_amp))
    clusters.append((0, 1))

    emitted = 1
    j_anti = 0
    j_sym = 1
    while emitted < num_clusters:
        family = star_pair_modes(n_edges, ell, j_anti)
        mu_s = (j_sym * np.pi / ell) ** 2
        start = len(modes)
        if mu_s < family[0].eigenvalue:
            modes.append((mu_s, np.full(n_edges, sym_amp)))
            clusters.append((start, start + 1))
            j_sym += 1
        else:
            modes.extend((m.eigenvalue, m.amplitudes) for m in family)
            clusters.append((start, start + len(family)))
            j_anti += 1
        emitted += 1

    return _star_system_from_modes(
        graph, ell, modes, tuple(clusters), elements_per_edge, "analytic-star"
    )


def interval_analytic(
    length: float = 1.0,
    num_modes: int = 10,
    elements_per_edge: int = 64,
) -> EigenSystem:
    """Neumann modes of a single edge: lambda_k = (k pi / length)^2."""
    graph = interval_graph(length)
    ell = float(length)
    modes: list[tuple[float, np.ndarray]] = []
    for k in range(num_modes):
        if k == 0:
            amp = np.array([1.0 / np.sqrt(ell)])
        else:
            amp = np.array([np.sqrt(2.0 / ell)])
        modes.append(((k * np.pi / ell) ** 2, amp))
    clusters = tuple((k, k + 1) for k in range(num_modes))
    return _star_system_from_modes(
        graph, ell, modes, clusters, elements_per_edge, "analytic-interval"
    )


def star_pair_modes(n_edges: int, length: float, k: int) -> list[AnalyticMode]:
    """The raw edge-difference family at ((k + 1/2) pi / length)^2.

    The equal-length case of rational_star_mode: mode j carries cos
    profiles with amplitude +1/sqrt(length) on the first edge and
    -1/sqrt(length) on edge j + 1 (sign -1, orders (k, k)); each is
    normalized but the family is not orthogonal (any two share the
    first edge, inner product 1/2).  Traces vanish at the center exactly.
    """
    if n_edges < 2:
        raise ValueError("a star needs at least two edges")
    return [_pair_mode([length] * n_edges, 0, j, k, k) for j in range(1, n_edges)]


def _pair_mode(lengths, a: int, b: int, na: int, nb: int) -> AnalyticMode:
    ells = [float(x) for x in lengths]
    la, lb = ells[a], ells[b]
    ratio = la / lb
    target = (2 * na + 1) / (2 * nb + 1)
    if abs(ratio - target) > tol.RATIONAL_RATIO * abs(target):
        raise RationalConditionFailedError(
            f"length ratio {ratio} does not match odd ratio {2 * na + 1}/{2 * nb + 1}"
        )
    mu = ((nb + 0.5) * np.pi / lb) ** 2
    sign = -1 if (na - nb) % 2 == 0 else 1
    r = 1.0 / np.sqrt(0.5 * (la + lb))
    n = len(ells)
    amps = np.zeros(n)
    amps[a] = r
    amps[b] = sign * r
    traces = np.zeros(n + 1)
    traces[1 + a] = r
    traces[1 + b] = sign * r
    return AnalyticMode(
        eigenvalue=mu, amplitudes=amps, traces=traces, sign=sign, orders=(na, nb)
    )


def rational_star_mode(lengths, i: int, n1: int, ni: int) -> AnalyticMode:
    """Eigenfunction supported on the first edge and edge i of a star.

    Requires lengths[0] / lengths[i] = (2 n1 + 1)/(2 ni + 1); then
    mu = ((ni + 1/2) pi / lengths[i])^2 is an eigenvalue with a cosine
    profile on the two edges (relative sign fixed by order parity,
    opposite sign when n1 and ni share parity) and zero trace at the
    center, hence zero trace everywhere except the two boundary ends.
    Vertex order of the traces is (center, v1, ..., vN).
    """
    if not 0 < i < len(lengths):
        raise ValueError("i must index an edge other than the first")
    if n1 < 0 or ni < 0:
        raise ValueError("mode orders must be nonnegative")
    return _pair_mode(lengths, 0, i, n1, ni)


# -- boundary pairing ----------------------------------------------------------

def dirichlet_lift(op: DiscreteOperator, alpha: np.ndarray) -> np.ndarray:
    """Solve the weak form of (1 - A_max) z = 0 with boundary data alpha.

    alpha prescribes the Kirchhoff sums of co-normal derivatives taken
    into the edges; by the orientation of those derivatives the discrete
    right-hand side carries alpha with a minus sign at the vertex dofs.
    """
    n = op.layout.n_vertices
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n,):
        raise ValueError(f"alpha must have shape ({n},)")
    rhs = np.zeros(op.layout.total_dof)
    rhs[:n] = -alpha
    try:
        return op.shifted_lu.solve(rhs)
    except RuntimeError as exc:
        raise SolveFailureError(f"Dirichlet lift solve failed: {exc}") from exc


def adjoint_check(op: DiscreteOperator, alpha: np.ndarray, h: np.ndarray) -> float:
    """Residual of the identity pairing lifted boundary data against traces.

    For the lift z of alpha and any conforming h, the discrete pairing
    <(1 - A) z, h> must equal <alpha, -(h at vertices)>; the returned
    residual |pairing + alpha . traces(h)| vanishes up to solver
    roundoff, which realizes the adjoint relation between the control
    operator and the vertex trace map.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (op.layout.total_dof,):
        raise ValueError("h must be a global dof vector")
    z = dirichlet_lift(op, alpha)
    pairing = float(h @ ((op.mass + op.stiffness) @ z))
    n = op.layout.n_vertices
    return abs(pairing + float(np.asarray(alpha) @ h[:n]))


# -- exports -------------------------------------------------------------------

def spectrum_to_csv(eig: EigenSystem, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["k", "lambda", "cluster_id", "trusted"] + [
            f"trace_{v}" for v in eig.graph.vertices
        ]
        writer.writerow(header)
        for k in range(eig.num_modes):
            ci = eig.cluster_of_mode(k)
            row = [k, repr(float(eig.lambdas[k])), ci, int(bool(eig.trusted[k]))]
            row += [repr(float(t)) for t in eig.vertex_traces[k]]
            writer.writerow(row)


def mode_to_csv(eig: EigenSystem, k: int, path) -> None:
    values = eig.edge_values(k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "x", "value"])
        for j, e in enumerate(eig.graph.edges):
            coords = eig.layout.edge_coords(j)
            for x, val in zip(coords, values[e.id]):
                writer.writerow([e.id, repr(float(x)), repr(float(val))])
