"""Discrete operators on metric graphs and their eigensystems.

The differential operator z -> (c z')' - p z acts edgewise subject to
continuity across vertices and a Kirchhoff balance of co-normal
derivatives.  Discretization is conforming P1 finite elements with one
shared unknown per vertex, which imposes continuity exactly and leaves
the Kirchhoff condition natural, so eigenpairs of the generalized
problem  stiffness f = lambda mass f  approximate the spectrum of the
(negated) operator: 0 <= lambda_0 <= lambda_1 <= ...  Every edge has the
same element count, so the mesh is laid out once as two tables, each
edge's node dofs and coordinates (MeshLayout.nodes, .coords), which
assembly, the analytic systems and the exports index.  The eigensolve
seeds ARPACK's start and restart vectors, certifies its eigenvalue count
and re-solves once with k more Lanczos vectors when the count falls
short.

Every CSV table of the package is written by _write_csv (exports
section), the one place that knows the dialect.

The exact spectra of the equilateral Neumann star and of the interval are
written in closed form, amplitude * cos(sqrt(lambda) x) on each edge; on
the star, odd clusters hold the two-edge modes of _pair_mode.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # submodules named at each call load on first use, not at import

from . import tolerances as tol
from .errors import QGraphNumericalError
from .graphs import MetricGraph, interval_graph, star_graph

__all__ = [
    "MeshLayout",
    "DiscreteOperator",
    "EigenSystem",
    "assemble",
    "eigensolve",
    "solve_spectrum",
    "star_analytic",
    "interval_analytic",
    "spectrum_to_csv",
    "mode_to_csv",
]


@dataclass(frozen=True, eq=False)
class MeshLayout:
    """Global dof layout: vertex dofs first, then edge-interior nodes.

    Every edge has N = elements_per_edge elements.  Row j of nodes lists
    the global dofs of its N + 1 nodes, tail to head: the tail vertex dof,
    the edge's own N - 1 interior dofs, then the head vertex dof.  The
    shared vertex dofs glue the edgewise P1 spaces into a continuous space
    on the graph.  Row j of coords holds the same nodes' distances from
    the tail, np.linspace(0, length_j, N + 1).  Both arrays are read-only.
    """

    n_vertices: int
    elements_per_edge: int
    nodes: np.ndarray
    coords: np.ndarray

    @property
    def total_dof(self) -> int:
        return self.n_vertices + len(self.nodes) * (self.elements_per_edge - 1)

    @property
    def h_max(self) -> float:
        return float(np.max(self.coords[:, -1])) / self.elements_per_edge


def _build_layout(graph: MetricGraph, elements_per_edge: int) -> MeshLayout:
    if elements_per_edge < 2:
        raise ValueError("elements_per_edge must be at least 2")
    n, m, nel = graph.n, graph.m, elements_per_edge
    nodes = np.empty((m, nel + 1), dtype=np.int64)
    nodes[:, 0] = [graph.vertex_index[e.tail] for e in graph.edges]
    nodes[:, -1] = [graph.vertex_index[e.head] for e in graph.edges]
    nodes[:, 1:-1] = np.arange(n, n + m * (nel - 1)).reshape(m, nel - 1)
    coords = np.linspace(0.0, [e.length for e in graph.edges], nel + 1, axis=1)
    nodes.flags.writeable = coords.flags.writeable = False
    return MeshLayout(n_vertices=n, elements_per_edge=nel, nodes=nodes, coords=coords)


@dataclass(frozen=True)
class DiscreteOperator:
    graph: MetricGraph
    layout: MeshLayout
    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix


def assemble(graph: MetricGraph, elements_per_edge: int) -> DiscreteOperator:
    """P1 stiffness and mass matrices with shared vertex dofs.

    elements_per_edge is the number of mesh cells per edge (>= 2), so
    edge j has spacing h_j = length_j / elements_per_edge.  Both
    coefficients are taken at element midpoints: c by the midpoint rule,
    p through the consistent-mass stencil (h/3, h/6), so one rule serves
    constant and sampled coefficients and is exact for coefficients
    constant on each element.
    """
    layout = _build_layout(graph, elements_per_edge)
    h = layout.coords[:, -1:] / layout.elements_per_edge  # one spacing per edge
    mids = 0.5 * (layout.coords[:, :-1] + layout.coords[:, 1:])
    c_mid = np.array([e.diffusion.at(x, e.length) for e, x in zip(graph.edges, mids)])
    p_mid = np.array([e.potential.at(x, e.length) for e, x in zip(graph.edges, mids)])

    # stiffness: c-part from the midpoint rule (exact for constant c) plus
    # the potential term; extreme scales may overflow, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        k_diag = c_mid / h + p_mid * h / 3.0
        k_off = -c_mid / h + p_mid * h / 6.0
    m_diag = np.broadcast_to(h / 3.0, k_diag.shape)
    m_off = np.broadcast_to(h / 6.0, k_diag.shape)

    # COO entries edge by edge: each element's two diagonal entries, then its
    # two off-diagonal ones
    left, right = layout.nodes[:, :-1], layout.nodes[:, 1:]
    r = np.hstack([left, right, left, right]).ravel()
    c = np.hstack([left, right, right, left]).ravel()
    k_vals = np.hstack([k_diag, k_diag, k_off, k_off]).ravel()
    if not np.all(np.isfinite(k_vals)):
        raise ValueError("lengths and coefficients out of range: the stiffness overflows")
    m_vals = np.hstack([m_diag, m_diag, m_off, m_off]).ravel()
    shape = (layout.total_dof, layout.total_dof)
    stiffness = scipy.sparse.coo_matrix((k_vals, (r, c)), shape=shape).tocsr()
    mass = scipy.sparse.coo_matrix((m_vals, (r, c)), shape=shape).tocsr()
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

    def _cluster(self, ci: int) -> tuple[int, int]:
        if not 0 <= ci < len(self.clusters):
            raise ValueError(f"cluster index must lie in [0, {len(self.clusters) - 1}], got {ci}")
        return self.clusters[ci]

    def cluster_eigenvalue(self, ci: int) -> float:
        a, b = self._cluster(ci)
        return float(np.mean(self.lambdas[a:b]))

    def trace_matrix(self, ci: int) -> np.ndarray:
        """n_vertices x multiplicity matrix of traces for one cluster."""
        a, b = self._cluster(ci)
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

    def edge_values(self, k: int) -> dict[str, np.ndarray]:
        """Nodal values of mode k along each edge, tail to head."""
        if not 0 <= k < self.num_modes:
            raise ValueError(f"mode index must lie in [0, {self.num_modes - 1}], got {k}")
        return {e.id: self.vectors[k, idx] for e, idx in zip(self.graph.edges, self.layout.nodes)}


def _cluster_ranges(lambdas: np.ndarray) -> tuple[tuple[int, int], ...]:
    clusters = []
    start = 0
    for k in range(1, len(lambdas)):
        if lambdas[k] - lambdas[k - 1] > tol.CLUSTER_GAP * (1.0 + abs(lambdas[k])):
            clusters.append((start, k))
            start = k
    clusters.append((start, len(lambdas)))
    return tuple(clusters)


def _count_below(op: DiscreteOperator, sigma: float) -> int:
    """Eigenvalues below sigma, by Sylvester's law of inertia: K - sigma M
    has one negative pivot per eigenvalue under sigma."""
    try:
        lu = scipy.sparse.linalg.splu((op.stiffness - sigma * op.mass).tocsc(),
                                      diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular factor
        raise QGraphNumericalError(f"inertia factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise QGraphNumericalError("inertia factorization pivoted off the diagonal")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _check_num_modes(layout: MeshLayout, num_modes: int) -> None:
    """The eigensolve's bound on num_modes, which decide_feller checks too."""
    dof = layout.total_dof
    if not 1 <= num_modes <= dof - 1:
        raise ValueError(f"num_modes must lie in [1, {dof - 1}]")


def eigensolve(op: DiscreteOperator, num_modes: int) -> EigenSystem:
    """Lowest eigenpairs of stiffness f = lambda mass f.

    One path at every size: shift-invert Lanczos (ARPACK) about a
    negative shift, so the singular p = 0 case stays factorizable,
    started from a fixed generic vector (standard normals from
    default_rng(0)), with ARPACK's restart vectors drawn from rng=0.  The
    seeded start and restarts make the result a pure function of the
    operator; a symmetric start such as all ones would miss the modes
    orthogonal to the graph's symmetric subspace.  A lambda_0
    below -EIG_RESIDUAL rho, with rho = max K_ii/M_ii the operator's
    stiffness scale, is rejected; above it, negative roundoff is clamped
    to zero.  The count of eigenvalues below the last cluster is
    certified by the inertia of K - sigma M, with sigma in the gap below
    that cluster; a solve that misses some is repeated once, with k more
    Lanczos vectors than ARPACK's default max(2k + 1, 20) (k = num_modes),
    and fails if that one misses some too.  Every pair, as ARPACK returns
    it, must pass the residual and mass-orthonormality certificates
    (EIG_RESIDUAL and ORTHONORMALITY).
    Any failed certificate raises QGraphNumericalError.
    Accuracy guidance: keep num_modes well below the dof count (one
    order of magnitude).
    """
    _check_num_modes(op.layout, num_modes)
    dof = op.layout.total_dof

    # the operator's own stiffness scale rho bounds both the roundoff of a
    # zero mode, which is clamped, and the certified residuals
    with np.errstate(over="ignore", divide="ignore"):
        rho = float(np.max(op.stiffness.diagonal() / op.mass.diagonal()))
    if not 0 < rho < np.inf:
        raise QGraphNumericalError(f"stiffness scale max K_ii/M_ii = {rho} out of range")

    # ARPACK's default basis (2k + 1 Lanczos vectors, at least 20) can drop
    # members of a wide cluster: a solve that fails the count certificate
    # is repeated once, from the same start, with k vectors more
    v0 = np.random.default_rng(0).standard_normal(dof)
    for ncv in (None, min(max(2 * num_modes + 1, 20) + num_modes, dof)):
        try:
            w, v = scipy.sparse.linalg.eigsh(op.stiffness, k=num_modes, M=op.mass, sigma=-1.0,
                                             which="LM", v0=v0, ncv=ncv, rng=0)
        except RuntimeError as exc:  # an ArpackError, or the shift-invert factorization
            raise QGraphNumericalError(f"Lanczos iteration failed: {exc}") from exc
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        if w[0] < -tol.EIG_RESIDUAL * rho:
            raise QGraphNumericalError(f"spurious negative eigenvalue {w[0]}")
        w = np.maximum(w, 0.0)
        clusters = _cluster_ranges(w)
        last = clusters[-1][0]
        if not last:  # one cluster: nothing lies below it
            break
        sigma = 0.5 * (w[last - 1] + w[last])
        below = _count_below(op, sigma)
        if below == last:
            break
    else:
        raise QGraphNumericalError(
            f"{below} eigenvalues lie below {sigma:.6g} but the solve found {last}"
        )

    # certificates: residual norms in the inverse-mass metric against rho,
    # then mass orthonormality (by einsum: a threaded BLAS gemm wakes
    # threads that then slow the next solve)
    mv = op.mass @ v
    r = op.stiffness @ v - mv * w
    mass_lu = scipy.sparse.linalg.splu(op.mass.tocsc())
    residuals = np.sqrt(np.abs(np.einsum("ik,ik->k", r, mass_lu.solve(r))))
    excess = np.max(residuals / (tol.EIG_RESIDUAL * (w + rho)))
    if not excess <= 1.0:
        raise QGraphNumericalError(f"eigenpair residual {excess:.3g} times its bound")
    defect = np.max(np.abs(np.einsum("ik,il->kl", v, mv) - np.eye(num_modes)))
    if not defect <= tol.ORTHONORMALITY:
        raise QGraphNumericalError(f"eigenvectors not mass-orthonormal: defect {defect:.3g}")

    with np.errstate(over="ignore", invalid="ignore"):  # a huge cell trusts nothing
        trusted = w * np.square(op.layout.h_max) <= tol.TRUSTED_LAMBDA_H2

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


def _cosine_system(graph, lambdas, amplitudes, clusters, zero_center, elements_per_edge,
                   source) -> EigenSystem:
    """Sample amplitudes[k, j] cos(sqrt(lambdas[k]) x) on every edge j, with x
    measured from the tail.  The modes listed in zero_center vanish at
    vertex 0, so their trace there is set to exactly zero."""
    layout = _build_layout(graph, elements_per_edge)
    roots = np.sqrt(lambdas)
    vectors = np.zeros((len(lambdas), layout.total_dof))
    for amp, idx, x in zip(amplitudes.T, layout.nodes, layout.coords):
        vectors[:, idx] = amp[:, None] * np.cos(np.outer(roots, x))
    vectors[zero_center, 0] = 0.0
    return EigenSystem(graph=graph, layout=layout, lambdas=np.array(lambdas), vectors=vectors,
                       clusters=clusters, trusted=np.ones(len(lambdas), dtype=bool), source=source)


def star_analytic(
    n_edges: int,
    length: float,
    num_clusters: int,
    elements_per_edge: int = 32,
) -> EigenSystem:
    """Exact spectrum of the equilateral Neumann star (c = 1, p = 0).

    Cluster c sits at (c pi / (2 length))^2.  An even c holds one
    symmetric mode, the same cosine on every edge (the constant at c = 0).
    An odd c = 2k + 1 holds the n_edges - 1 pair modes _pair_mode(length,
    length, k, k): the j-th is 1/sqrt(length) cos on the first edge, its
    negative on edge j + 1, and zero at the center and elsewhere.  Each
    member is normalized but the family is not orthogonal (any two share
    the first edge, inner product 1/2), so cluster computations downstream
    must not assume orthonormality of this basis.
    """
    if n_edges < 2:
        raise ValueError("a star needs at least two edges")
    if num_clusters < 1:
        raise ValueError("num_clusters must be positive")
    graph = star_graph([length] * n_edges)
    ell = float(length)

    lambdas, amplitudes, clusters, zero_center = [], [], [], []
    for c in range(num_clusters):
        start = len(lambdas)
        if c % 2 == 0:
            amp = np.sqrt(2.0 / (n_edges * ell)) if c else 1.0 / np.sqrt(n_edges * ell)
            lambdas.append((c // 2 * np.pi / ell) ** 2)
            amplitudes.append(np.full(n_edges, amp))
        else:
            mu, amp_a, amp_b = _pair_mode(ell, ell, c // 2, c // 2)
            for j in range(1, n_edges):
                amps = np.zeros(n_edges)
                amps[0], amps[j] = amp_a, amp_b
                lambdas.append(mu)
                amplitudes.append(amps)
            zero_center.extend(range(start, len(lambdas)))
        clusters.append((start, len(lambdas)))

    return _cosine_system(graph, lambdas, np.array(amplitudes), tuple(clusters), zero_center,
                          elements_per_edge, "analytic-star")


def interval_analytic(
    length: float = 1.0,
    num_modes: int = 10,
    elements_per_edge: int = 64,
) -> EigenSystem:
    """Neumann modes of a single edge: lambda_k = (k pi / length)^2."""
    ell = float(length)
    lambdas = [(k * np.pi / ell) ** 2 for k in range(num_modes)]
    amplitudes = np.full((num_modes, 1), np.sqrt(2.0 / ell))
    amplitudes[:1] = 1.0 / np.sqrt(ell)  # the constant mode
    clusters = tuple((k, k + 1) for k in range(num_modes))
    return _cosine_system(interval_graph(length), lambdas, amplitudes, clusters, [],
                          elements_per_edge, "analytic-interval")


def _pair_mode(la: float, lb: float, na: int, nb: int) -> tuple[float, float, float]:
    """Eigenvalue and amplitudes of a Neumann star mode supported on two edges.

    The caller guarantees la / lb = (2 na + 1)/(2 nb + 1); then
    mu = ((nb + 1/2) pi / lb)^2 is an eigenvalue whose eigenfunction is
    amp cos(sqrt(mu) x) on the two edges, measured from each edge's
    boundary end, and zero elsewhere.  It vanishes at the center, and the
    amplitudes have opposite signs when na and nb share parity, so the
    derivatives balance there.  Returns (mu, amp_a, amp_b), normalized.
    """
    mu = ((nb + 0.5) * np.pi / lb) ** 2
    r = 1.0 / np.sqrt(0.5 * (la + lb))
    return mu, r, (-r if (na - nb) % 2 == 0 else r)


# -- exports -------------------------------------------------------------------

def _write_csv(path, header, chunks) -> None:
    """Write one CSV table: the header through the csv module, which quotes
    vertex and edge ids where they need it, then the chunks, each text of
    whole rows, every number written by repr and every row ended by CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(chunks)


def spectrum_to_csv(eig: EigenSystem, path) -> None:
    traces = eig.vertex_traces.tolist()
    lambdas = eig.lambdas.tolist()
    trusted = eig.trusted.tolist()
    header = ["k", "lambda", "cluster_id", "trusted"] + [f"trace_{v}" for v in eig.graph.vertices]
    _write_csv(path, header, ["".join(
        f"{k},{lambdas[k]!r},{ci},{int(trusted[k])}"
        + "".join(f",{t!r}" for t in traces[k]) + "\r\n"
        for ci, (a, b) in enumerate(eig.clusters)
        for k in range(a, b)
    )])


def mode_to_csv(eig: EigenSystem, k: int, path) -> None:
    values = eig.edge_values(k)
    chunks = []
    for e, xs in zip(eig.graph.edges, eig.layout.coords.tolist()):
        edge = io.StringIO()
        csv.writer(edge, lineterminator="").writerow([e.id, ""])  # the id as csv quotes it
        prefix = edge.getvalue()
        rows = zip(xs, values[e.id].tolist())
        chunks.append("".join(f"{prefix}{x!r},{v!r}\r\n" for x, v in rows))
    _write_csv(path, ["edge", "x", "value"], chunks)
