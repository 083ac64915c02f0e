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
slices the spectrum in closed form on small graphs whose c and p are
constant on every edge (_sliced_pairs, no scipy.sparse or scipy.linalg;
its docstring describes the refinement) and runs seeded ARPACK otherwise
(_lanczos_pairs).

Every CSV table of the package is written by _write_csv (exports
section), the one place that knows the dialect.

The exact spectra of the equilateral Neumann star and of the interval are
written in closed form, amplitude * cos(sqrt(lambda) x) on each edge; on
the star, odd clusters hold the two-edge modes of _pair_mode.
"""
from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # submodules named at each call load on first use, not at import

from . import tolerances as tol
from .errors import QGraphNumericalError, QGraphValidationError
from .graphs import MetricGraph, _parse, interval_graph, star_graph

__all__ = [
    "MeshLayout",
    "DiscreteOperator",
    "EigenSystem",
    "SolveRecord",
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
    on the graph.  Row j of coords holds the same nodes' distances from the
    tail, np.linspace(0, length_j, N + 1); h = coords[:, 1] = length / N.  All read-only.
    """

    n_vertices: int
    elements_per_edge: int
    total_dof: int
    nodes: np.ndarray
    coords: np.ndarray
    h: np.ndarray

    @property
    def h_max(self) -> float:
        return float(np.max(self.h))


def _integer(value, name: str, least: int | None = None, per: int = 0) -> int:
    """A count or index argument as an int (operator.index), at least least;
    value + 1 units of per float64 entries each must make arrays numpy can index."""
    try:
        value = operator.index(value)
    except TypeError:
        raise QGraphValidationError(f"{name} must be an integer, got {value!r:.40}") from None
    if least is not None and value < least:
        rule = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise QGraphValidationError(f"{name} must be {rule}")
    if 8 * per * (value + 1) > np.iinfo(np.intp).max:
        raise QGraphValidationError(f"{name} = {value} is too large: numpy cannot index its arrays")
    return value


# float64 entries in one row block of a pass over (rows x dof) arrays (about
# 256 KiB, within a core's L2): the stencils, _extend and the certificates
# hold one such block of temporaries instead of whole (modes x dof) arrays
ROW_BLOCK = 32768


def _row_blocks(rows: int, width: int) -> list[slice]:
    """range(rows) in slices of max(1, ROW_BLOCK // width) rows: one slice
    when the (rows x width) array fits in a block."""
    step = max(1, ROW_BLOCK // width)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def _mesh_size(graph: MetricGraph, elements_per_edge: int) -> tuple[int, int]:
    """N = elements_per_edge, checked, and the dof count n + m (N - 1), the one place it is counted."""
    nel = _integer(elements_per_edge, "elements_per_edge", 2, graph.m)
    return nel, graph.n + graph.m * (nel - 1)


def _build_layout(graph: MetricGraph, elements_per_edge: int) -> MeshLayout:
    (nel, dof), n, m = _mesh_size(graph, elements_per_edge), graph.n, graph.m
    nodes = np.empty((m, nel + 1), dtype=np.int64)
    nodes[:, 0] = [graph.vertex_index[e.tail] for e in graph.edges]
    nodes[:, -1] = [graph.vertex_index[e.head] for e in graph.edges]
    nodes[:, 1:-1] = np.arange(n, dof).reshape(m, nel - 1)
    coords = np.linspace(0.0, [e.length for e in graph.edges], nel + 1, axis=1)
    nodes.flags.writeable = coords.flags.writeable = False
    return MeshLayout(n, nel, dof, nodes, coords, h=coords[:, 1])


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """P1 element entries, one row per edge; the CSR matrices are built on
    first use, so a solve that never reads them never loads scipy.sparse."""

    graph: MetricGraph
    layout: MeshLayout
    k_diag: np.ndarray
    k_off: np.ndarray

    @cached_property
    def m_entries(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.broadcast_to(self.layout.h[:, None] / q, self.k_diag.shape) for q in (3.0, 6.0))

    stiffness = cached_property(lambda self: self._csr(self.k_diag, self.k_off))
    mass = cached_property(lambda self: self._csr(*self.m_entries))

    def _csr(self, diag, off):  # COO: each element's two diagonal entries, then two off
        left, right = self.layout.nodes[:, :-1], self.layout.nodes[:, 1:]
        rows, cols = np.hstack([left, right, left, right]), np.hstack([left, right, right, left])
        values = np.hstack([diag, diag, off, off])
        return scipy.sparse.coo_matrix((values.ravel(), (rows.ravel(), cols.ravel())),
                                       shape=(self.layout.total_dof,) * 2).tocsr()

    def apply(self, diag, off, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The matrix with element entries (diag, off) times each row of f,
        written into out (C order, f's shape; a new array by default).  The
        stencil runs on one block of _row_blocks rows at a time, so besides f
        and out it holds about one block, not another (rows x dof) array."""
        out = np.empty(f.shape) if out is None else out
        centre = diag[:, :-1] + diag[:, 1:]
        for rows in _row_blocks(*f.shape):
            self._stencil(diag, off, centre, f[rows], out[rows])
        return out

    def _stencil(self, diag, off, centre, f: np.ndarray, out: np.ndarray) -> None:
        """apply's stencil on one row block; its buffer is freed on return."""
        lay = self.layout
        n, tail, head = lay.n_vertices, lay.nodes[:, 0], lay.nodes[:, -1]
        u_t, u_h = f[:, tail], f[:, head]
        v = f[:, n:].reshape(len(f), len(lay.nodes), -1)  # rows x edges x interior nodes
        out[:, :n] = 0.0
        w = out[:, n:].reshape(v.shape)  # a view of out; each entry sums its three terms in order
        np.multiply(centre, v, out=w)
        w[..., 0] += off[:, 0] * u_t
        # one buffer for both neighbours' terms, summed in it and copied back:
        # numpy would copy a strided view of out that is added to in place
        inner = np.multiply(off[:, 1:-1], v[..., :-1])
        inner += w[..., 1:]
        w[..., 1:] = inner
        np.multiply(off[:, 1:-1], v[..., 1:], out=inner)
        inner += w[..., :-1]
        w[..., :-1] = inner
        w[..., -1] += off[:, -1] * u_h
        np.add.at(out, (slice(None), tail), diag[:, 0] * u_t + off[:, 0] * v[..., 0])
        np.add.at(out, (slice(None), head), diag[:, -1] * u_h + off[:, -1] * v[..., -1])

    @cached_property
    def _edge_data(self) -> tuple[np.ndarray, ...]:
        """c, p, h and c/h of each edge, for edgewise-constant coefficients."""
        c, h = np.array([e.diffusion.values[0] for e in self.graph.edges]), self.layout.h
        return c, np.array([e.potential.values[0] for e in self.graph.edges]), h, c / h

    @cached_property
    def _scales(self) -> tuple[float, float, float, np.ndarray]:
        """eigensolve's unit min c/length^2, resolution max h^2/c (at least c), rho and lumped mass."""
        c = np.array([e.diffusion.minimum() for e in self.graph.edges])
        with np.errstate(over="ignore", divide="ignore"):  # a huge cell trusts nothing
            return (float(np.min(c / self.layout.coords[:, -1]**2)), float(np.max(self.layout.h**2 / c)),
                    float(np.max(self._row_sums(self.k_diag) / self._row_sums(self.m_entries[0]))),
                    self._row_sums(*self.m_entries))

    def _row_sums(self, *tables) -> np.ndarray:
        """Each dof's row sum over the element tables (diag alone: the diagonal) in _stencil's order:
        a node adds each table's left then right entry, a vertex its tail ends then its head ends."""
        node = np.zeros((len(tables[0]), tables[0].shape[1] + 1))  # edges x nodes, tail to head
        for entries in tables:
            node[:, 1:] += entries  # each node's left element
            node[:, :-1] += entries  # then its right
        return np.bincount(self.layout.nodes.T.ravel(), node.T.ravel(), self.layout.total_dof)

    @cached_property
    def _scatter(self) -> np.ndarray:
        """Where _shift_system puts each edge's (t, t), (h, h), (t, h), (h, t),
        (y, t), (t, y), (y, h), (h, y), (y, y) entries, flat in its n + m
        square: t, h the edge's end vertices, y = n + j its border row."""
        n, m = self.layout.n_vertices, len(self.layout.nodes)
        tail, head, y = self.layout.nodes[:, 0], self.layout.nodes[:, -1], n + np.arange(m)
        return np.concatenate([r * (n + m) + q for r, q in [(tail, tail), (head, head), (tail, head),
                               (head, tail), (y, tail), (tail, y), (y, head), (head, y), (y, y)]])


def assemble(graph: MetricGraph, elements_per_edge: int) -> DiscreteOperator:
    """P1 stiffness and mass with shared vertex dofs.

    elements_per_edge is the number of mesh cells per edge (>= 2), so
    edge j has spacing h_j = length_j / elements_per_edge.  Both
    coefficients are taken at element midpoints: c by the midpoint rule,
    p through the consistent-mass stencil (h/3, h/6), so one rule serves
    constant and sampled coefficients and is exact for coefficients
    constant on each element.
    """
    layout = _build_layout(graph, elements_per_edge)
    h = layout.h[:, None]
    mids = 0.5 * (layout.coords[:, :-1] + layout.coords[:, 1:])
    c_mid = np.array([e.diffusion.at(x, e.length) for e, x in zip(graph.edges, mids)])
    p_mid = np.array([e.potential.at(x, e.length) for e, x in zip(graph.edges, mids)])

    # stiffness: c-part from the midpoint rule (exact for constant c) plus
    # the potential term; extreme scales may overflow, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        k_diag = c_mid / h + p_mid * h / 3.0
        k_off = -c_mid / h + p_mid * h / 6.0
    if not (np.all(np.isfinite(k_diag)) and np.all(np.isfinite(k_off))):
        raise QGraphValidationError("lengths and coefficients out of range: the stiffness overflows")
    return DiscreteOperator(graph=graph, layout=layout, k_diag=k_diag, k_off=k_off)


@dataclass(frozen=True)
class SolveRecord:
    """How eigensolve went: path ("sliced" or "lanczos"), attempts, inertia
    evaluations (calls; not the sliced vector pass) and their stacked shifts, count
    below the last cluster (None with one), largest residual ratio, orthonormality defect."""

    path: str
    attempts: int
    calls: int
    shifts: int
    count_below: int | None
    residual_ratio: float
    orthonormality_defect: float


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenpairs with vertex traces and multiplicity clusters.

    vectors holds one global nodal vector per row, its first n_vertices entries
    the vertex traces.  eigensolve's clusters are _spans at CLUSTER_GAP, and its
    trusted cut is lambda max h^2/c: no unit of length moves either.
    """

    graph: MetricGraph
    layout: MeshLayout
    lambdas: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[int, int], ...]
    trusted: np.ndarray
    source: str
    residuals: np.ndarray | None = None
    solve: SolveRecord | None = None  # eigensolve's; analytic systems have none

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)

    @cached_property
    def vertex_traces(self) -> np.ndarray:
        return np.ascontiguousarray(self.vectors[:, : self.layout.n_vertices])

    def _cluster(self, ci: int) -> tuple[int, int]:
        if not 0 <= _integer(ci, "cluster index") < len(self.clusters):
            raise QGraphValidationError(
                f"cluster index must lie in [0, {len(self.clusters) - 1}], got {ci}")
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
        return [ci for ci, (a, b) in enumerate(self.clusters)
                if self.trusted[a:b].all() and not (self.source == "fem" and b == self.num_modes)]

    def edge_values(self, k: int) -> dict[str, np.ndarray]:
        """Nodal values of mode k along each edge, tail to head."""
        if not 0 <= _integer(k, "mode index") < self.num_modes:
            raise QGraphValidationError(f"mode index must lie in [0, {self.num_modes - 1}], got {k}")
        return {e.id: self.vectors[k, idx] for e, idx in zip(self.graph.edges, self.layout.nodes)}


def _spans(values: np.ndarray, window: float, unit: float) -> tuple[tuple[int, int], ...]:
    """Half-open index ranges of the sorted values, each holding the values
    within window * max(|v|, unit) of its first value v: relative, floored at unit."""
    spans = [(0, 0)]
    while (first := spans[-1][1]) < len(values):
        bound = values[first] + window * max(abs(values[first]), unit)
        spans.append((first, first + int(np.count_nonzero(values[first:] <= bound))))
    return tuple(spans[1:])


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


# -- edgewise-constant graphs: spectrum slicing in closed form ----------------


def _shift_system(op: DiscreteOperator, sigma: np.ndarray, paired: bool = False):
    """K - sigma M reduced to the vertices and a border row per edge, at each
    shift: (count, B, parts) stacked over sigma; count plus B's negative
    inertia is the number of eigenvalues below the shift.

    Per edge of N elements the entries a = c/h + (p - sigma) h/3, b = -c/h
    + (p - sigma) h/6 give cos(theta) = -a/b; the interior block has
    ceil(N theta/pi) - 1 negative eigenvalues, and eliminating it leaves
    w [[cot N theta, -csc N theta], [-csc, cot]], w = -b sin(theta)
    (Wittrick & Williams, Q. J. Mech. Appl. Math. 24, 1971), hyperbolic
    below p and above p + 12 c/h^2.  Near a Dirichlet value (sin N theta =
    0) its huge part becomes the border row, so B stays bounded; else the
    row is decoupled above every eigenvalue.  parts rebuild interiors.
    With paired, sigma stacks two halves and the second takes the first's
    nearest Dirichlet index k, hence its border rows and signs s: its B is
    the same smooth function of sigma, valid while N theta/pi stays within
    1 of k, for difference quotients; its counts are then not counts."""
    c, p, h, c_h = op._edge_data
    n, m, big_n = op.layout.n_vertices, len(c), op.layout.elements_per_edge
    with np.errstate(all="ignore"):  # out-of-range scales are caught below
        zh6 = (sigma[:, None] - p) * (h / 6.0)
        a, b = c_h - 2.0 * zh6, -c_h - zh6
        prod = (3.0 * zh6) * (zh6 - 2.0 * c_h)  # (a + b)(a - b), no cancellation
        w, trig = np.sqrt(np.abs(prod)), prod < 0.0
        turns = big_n / np.pi * np.arctan2(w, a)  # N theta / pi, where trig
        k = np.rint(turns)
        if paired:
            k[len(k) // 2:] = k[:len(k) // 2]
        pole = trig & (k >= 1) & (k < big_n)  # the edges with a border row
        eps, gam = np.sin(np.pi * turns), np.cos(np.pi * turns)
        s = 1.0 - 2.0 * (k % 2)  # cos(k pi), the nearest Dirichlet value's pattern
        one_g = 1.0 + s * gam
        half = w * eps / (2.0 * one_g)
        diag = np.where(pole, -s * half, w * gam / eps)
        off = np.where(pole, -half, -w / eps)
        count = np.maximum(k - 1, 0)
        hyp = ~trig
        t, flip = np.zeros_like(w), np.zeros_like(trig)
        if hyp.any():  # hyperbolic edges: cosh(t) = |a/b|, |b| sinh(t) = w; floors keep t = 0, inf
            bb = np.maximum(np.abs(b), 1e-200)
            t = np.where(hyp, np.maximum(np.log1p(w * (w + np.abs(a) + bb) / ((np.abs(a) + bb) * bb)),
                                         1e-300), 0.0)
            flip = hyp & (a * b > 0.0)  # nodal values alternate in sign
            sh = bb * np.sinh(t)
            diag = np.where(hyp, np.sign(a) * sh / np.tanh(big_n * t), diag)
            off = np.where(hyp, np.where(flip, (-1.0) ** (big_n - 1), 1.0) * np.sign(b) * sh
                           / np.sinh(big_n * t), off)
            count = np.where(hyp, np.where(a < 0.0, big_n - 1, 0), count)
        scale = np.where(pole, np.sqrt(0.5 * w), 0.0)
        bound = 8.0 * (n + m) * np.max(np.abs(np.hstack([diag, off, scale, np.ones_like(w)])),
                                       axis=1, keepdims=True)
        weights = [diag, diag, off, off, scale, scale, -s * scale, -s * scale,
                   np.where(pole, -s * eps / one_g, bound)]
    size, shifts = n + m, len(sigma)
    matrix = np.bincount((op._scatter + size * size * np.arange(shifts)[:, None]).ravel(),
                         np.hstack(weights).ravel(), shifts * size * size)
    matrix = matrix.reshape(shifts, size, size)
    if not np.all(np.isfinite(matrix)):
        raise QGraphNumericalError("the vertex system overflows: coefficients out of range")
    parts = (trig, pole, np.pi / big_n * turns, eps, gam, s, one_g, scale, t, flip)
    return count.sum(axis=1).astype(int), matrix, parts


def _slice_count(op: DiscreteOperator, sigma) -> np.ndarray:
    """Eigenvalues below each shift in sigma, in closed form."""
    count, matrix, _ = _shift_system(op, np.atleast_1d(np.asarray(sigma, dtype=float)))
    return count + np.count_nonzero(np.linalg.eigvalsh(matrix) < 0.0, axis=1)


def _trig_tables(parts, at: slice, big_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The interior shapes at the shifts in rows at of parts, shifts x edges x
    nodes i = 1 .. N - 1: cos(i theta) and sin(i theta), or on a hyperbolic
    edge sinh((N - i) t)/sinh(N t) and sinh(i t)/sinh(N t) with its sign
    pattern, computed stably for large N t."""
    trig, _, theta, *_, t, flip = (q[at] for q in parts)
    i = np.arange(1, big_n)
    with np.errstate(all="ignore"):
        angle = theta[..., None] * i
        first_b, second_b = np.cos(angle), np.sin(angle, out=angle)
        hyp = ~trig
        if hyp.any():
            th = t[hyp][:, None]
            ratio = np.exp(th * (i - big_n)) * np.expm1(-2.0 * th * i) / np.expm1(-2.0 * big_n * th)
            ratio *= np.where(flip[hyp][:, None], (-1.0) ** (big_n - i), 1.0)
            first_b[hyp], second_b[hyp] = ratio[:, ::-1], ratio
    return first_b, second_b


def _extend(op: DiscreteOperator, parts, x: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Nodal vectors, one row each, from the columns x of B's null vectors,
    column v at the shift whose parts are row owner[v] of parts: the vertex
    values, and per edge the interior solution, its sine weight from the
    border value if bordered.  One block of _row_blocks rows at a time, the
    _trig_tables of the block's shifts are built (a cluster's blocks share
    them), each vector gathers its own shift's, and the interiors are summed
    in a block buffer and copied into the returned array, so besides it the
    pass holds a few blocks.  A small miss d of the head value is spread
    back as the ramp d i/N: a residual of order lambda d."""
    trig, pole, _, eps, gam, s, one_g, scale, *_ = parts  # shifts x edges
    lay = op.layout
    n, big_n = lay.n_vertices, lay.elements_per_edge
    u_t, u_h = x[lay.nodes[:, 0]].T, x[lay.nodes[:, -1]].T  # vectors x edges
    bordered, g, e = pole[owner], gam[owner], eps[owner]
    with np.errstate(all="ignore"):
        second = np.where(bordered, (s[owner] * e * u_t - x[n:].T / scale[owner]) / one_g[owner],
                          np.where(trig[owner], (u_h - g * u_t) / e, u_h))
        missed = np.where(bordered, u_h - g * u_t - e * second, 0.0)
    ramp = np.arange(1, big_n) / big_n
    f = np.empty((len(owner), lay.total_dof))
    f[:, :n] = x[:n].T
    tables = built = None
    for rows in _row_blocks(*f.shape):
        at = slice(owner[rows].min(), owner[rows].max() + 1)  # the block's shifts
        if at != built:
            tables = None  # the last block's tables are freed before these are built
            tables, built = _trig_tables(parts, at, big_n), at
        own = owner[rows] - at.start
        # numpy would copy a strided view of f that is added to in place
        interior = tables[0][own]  # vectors x edges x interior nodes
        interior *= u_t[rows, :, None]
        term = tables[1][own]  # one buffer for the sine and ramp terms
        term *= second[rows, :, None]
        interior += term
        interior += np.multiply(missed[rows, :, None], ramp, out=term)
        f[rows, n:] = interior.reshape(len(own), -1)
        del interior, term  # freed before the next block's are made
    return f


def _sliced_pairs(op: DiscreteOperator, num_modes: int):
    """Lowest eigenpairs by spectrum slicing.  Counts on a grid bracket each
    eigenvalue i; all are refined at once, one stacked _shift_system per round,
    from each bracket's lower end, whose count is known (the first at floor, a
    uniform potential's constant mode).  B's eigenvalues beta are sorted and
    fall as the shift grows, so between Dirichlet values root i is branch
    i - base, base the shift's Dirichlet count.  One rule steps every root: sort
    each branch's Newton crossing shift - beta/beta' (slopes z^T B' z; -inf
    where beta' >= 0 > beta, inf where beta' >= 0 <= beta) and take entry
    i - base, NaN where B has no such branch: from below the (i - count)-th
    crossing ahead, from above Newton on the root's branch unless the
    predictions cross out of branch order.  Counts narrow a root's bracket
    [lo, hi]; a step that leaves it (or NaN) is replaced by the midpoint, or by
    the geometric mean of max(lo, unit) and hi where hi exceeds 4 times that.
    A bracket's roots start at one shift, then share the step of their lowest
    member while their own steps agree to SLICE_WINDOW, so a multiple eigenvalue
    is refined once.  Slopes are forward differences, shift + nudge paired with
    shift in one call and taken in its border pattern, so each is the derivative
    of one smooth B, also where N theta/pi is a half-integer.  A root converges
    where its step is within SLICE_WINDOW, or at its shift where its branch
    exists and is zero to roundoff, |beta| <= 8 eps max|beta| (no step reaches
    the window where eps ||B|| exceeds it), and keeps only its value and that
    shift.  The values' _spans at SLICE_WINDOW are the clusters [a, b); one
    _shift_system and eigh at the clusters' first shifts give B's null vectors
    a - base .. b - base (a cluster wider than B raises) and the edge law for
    one _extend; Rayleigh-Ritz makes them mass-orthonormal.  Returns its inertia
    evaluations too (calls, shifts; not the vector pass)."""
    c, p, h, _ = op._edge_data
    lengths, unit = op.layout.coords[:, -1], op._scales[0]
    floor, ceiling = float(np.min(p)), float(np.max(p + 12.0 * c / h**2)) * (1 + 1e-9) + unit
    roots = np.arange(num_modes)
    # a grid in sqrt(sigma) up to a shift from Weyl's law, widened until num_modes lie below
    top = float(np.max(p)) + (np.pi * (num_modes + op.layout.n_vertices)
                              / np.sum(lengths / np.sqrt(c))) ** 2
    calls = shifts = 0
    while True:
        grid = floor + (min(top, ceiling) - floor) * (np.arange(1, 2 * num_modes + 9)
                                                      / (2 * num_modes + 8)) ** 2
        counts = _slice_count(op, grid)
        calls, shifts = calls + 1, shifts + len(grid)
        if top >= ceiling or counts[-1] >= num_modes:
            break
        top = floor + 4.0 * (top - floor)
    known = np.concatenate([[floor - unit], grid, [ceiling]])
    below = np.maximum.accumulate(np.concatenate([[0], counts, [op.layout.total_dof]]))
    group = np.searchsorted(below, roots, side="right")  # each root's bracket
    lo, hi = known[group - 1], known[group]
    sigma = np.maximum(lo, floor)  # the lower ends; a uniform potential's constant mode is floor

    value, converged = np.empty(num_modes), np.empty(num_modes)  # each root's, and its shift's
    todo, final = roots, np.zeros(num_modes, dtype=bool)
    for _ in range(200):
        if not len(todo):
            break
        fresh = np.concatenate([[True], np.diff(sigma[todo]) != 0.0])  # a run's roots adjoin
        shift, at = sigma[todo][fresh], np.cumsum(fresh) - 1  # one row per distinct shift
        k = len(shift)
        nudge = 1e-7 * np.maximum(np.abs(shift), unit)  # for the slopes' difference quotients
        pair = np.concatenate([shift, shift + nudge])  # one call, in shift's border pattern
        base, matrix, _ = _shift_system(op, pair, paired=True)
        calls, shifts = calls + 1, shifts + len(pair)
        beta, z = np.linalg.eigh(matrix[:k])
        slopes = (matrix[k:] - matrix[:k]) / nudge[:, None, None]
        rate = np.sum(z * (slopes @ z), axis=1)  # Hellmann-Feynman, per branch
        # from here on one row per root, at its shift
        shift, base, beta, rate = shift[at], base[at], beta[at], rate[at]
        below = base + np.count_nonzero(beta < 0.0, axis=1)
        lo = np.maximum(lo, np.where(below <= roots[:, None], shift, -np.inf).max(axis=1))
        hi = np.minimum(hi, np.where(below > roots[:, None], shift, np.inf).min(axis=1))
        own = (todo >= base) & (todo - base < beta.shape[1])  # B has the root's branch
        pick = np.arange(len(todo)), np.where(own, todo - base, 0)
        with np.errstate(all="ignore"):  # each branch's Newton crossing, -inf or inf if it rises
            cross = np.sort(np.where(rate < 0.0, shift[:, None] - beta / rate,
                                     np.where(beta < 0.0, -np.inf, np.inf)), axis=1)
        singular = np.abs(beta[pick]) <= 8.0 * np.finfo(float).eps * np.max(np.abs(beta), axis=1)
        step = np.where(own, np.where(singular, shift, cross[pick]), np.nan)  # singular to roundoff: shift
        done = final[todo] | (np.abs(step - shift)
                              <= tol.SLICE_WINDOW * np.maximum(np.abs(shift), unit))
        value[todo[done]] = np.where(final[todo[done]], shift[done], step[done])
        converged[todo[done]] = shift[done]
        todo, step = todo[~done], step[~done]
        low, high = lo[todo], hi[todo]
        final[todo] = ~(low < high)  # counts pin it: converge where it is
        step = np.where((low < step) & (step < high), step,
                        np.where(high > 4.0 * np.maximum(low, unit),
                                 np.sqrt(np.maximum(low, unit) * high), 0.5 * (low + high)))
        # a root follows the lowest member of its run: adjacent roots whose own steps agree
        apart = np.concatenate([[True], np.abs(np.diff(step)) > tol.SLICE_WINDOW
                                * np.maximum(np.abs(step[:-1]), unit)])
        lead = np.maximum.accumulate(np.where(apart, np.arange(len(todo)), 0))
        sigma[todo] = np.where(final[todo], step, step[lead])  # a pinned root keeps its own
    if len(todo):
        raise QGraphNumericalError(f"spectrum slicing left {len(todo)} of {num_modes} "
                                   "eigenvalues unresolved")

    spans = _spans(value, tol.SLICE_WINDOW, unit)
    first, end = np.array(spans).T  # each cluster's vectors: B's null vectors at its first shift
    base, matrix, parts = _shift_system(op, converged[first])
    if np.any(first < base) or np.any(end - base > matrix.shape[1]):
        raise QGraphNumericalError("a cluster of eigenvalues within slice_window needs more "
                                   "null vectors than its vertex system has branches")
    x = np.hstack([z[:, a - o:b - o] for z, a, b, o
                   in zip(np.linalg.eigh(matrix)[1], first, end, base)])
    f = _extend(op, parts, x, np.repeat(np.arange(len(spans)), end - first))
    product = op.apply(op.k_diag, op.k_off, f)  # one buffer: K f, then M f
    k_p = f @ product.T
    m_p = f @ op.apply(*op.m_entries, f, out=product).T
    del product  # so f and the returned vectors are the only (modes x dof) arrays left
    try:
        inv = np.linalg.inv(np.linalg.cholesky((m_p + m_p.T) / 2.0))
    except np.linalg.LinAlgError as exc:
        raise QGraphNumericalError(f"sliced eigenvectors are dependent: {exc}") from exc
    w, y = np.linalg.eigh(inv @ (k_p + k_p.T) @ inv.T / 2.0)
    return w, (inv.T @ y).T @ f, calls, shifts


def _lanczos_pairs(op: DiscreteOperator, num_modes: int, ncv: int | None
                   ) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """Lowest eigenpairs by shift-invert Lanczos (ARPACK) with ncv vectors
    about a negative shift, so p = 0 stays factorizable, started from
    default_rng(0) normals (all ones would miss modes orthogonal to the
    symmetric subspace) with restarts from rng=0.  (None, None) where ARPACK
    does not converge with its default ncv (None), for a wider re-solve."""
    v0 = np.random.default_rng(0).standard_normal(op.layout.total_dof)
    try:
        w, v = scipy.sparse.linalg.eigsh(op.stiffness, k=num_modes, M=op.mass, sigma=-1.0,
                                         which="LM", v0=v0, ncv=ncv, rng=0)
    except RuntimeError as exc:  # an ArpackError, or the shift-invert factorization
        if ncv is None and isinstance(exc, scipy.sparse.linalg.ArpackNoConvergence):
            return None, None
        raise QGraphNumericalError(f"Lanczos iteration failed: {exc}") from exc
    order = np.argsort(w)
    return w[order], v[:, order].T


def _check_num_modes(num_modes: int, dof: int) -> None:
    """The eigensolve's bound on num_modes, which needs only the dof count (_mesh_size)."""
    if not 1 <= _integer(num_modes, "num_modes") <= dof - 1:
        raise QGraphValidationError(f"num_modes must lie in [1, {dof - 1}]")


def eigensolve(op: DiscreteOperator, num_modes: int) -> EigenSystem:
    """Lowest eigenpairs of stiffness f = lambda mass f.

    The input picks the path.  With c and p constant on every edge and
    n + m <= SLICE_MAX_ORDER, closed-form slicing (_sliced_pairs): its
    count is exact, so it misses no member of a cluster, it has no random
    start and it loads neither scipy.sparse nor scipy.linalg.  Its cost
    grows as (n + m)^3 per shift, so larger graphs and sampled
    coefficients (no closed form) run seeded Lanczos.  A lambda_0
    below -EIG_RESIDUAL rho (rho = max K_ii/M_ii) is rejected, negative
    roundoff above it clamped to zero.  The inertia of K - sigma M (closed
    form, or splu), counted once per attempt, certifies the count below
    the last cluster; a Lanczos deficit, or an ARPACK run that does not
    converge, is solved once more with k more vectors than ARPACK's
    max(2k + 1, 20), k = num_modes, and a second such failure, a sliced
    deficit, or a sliced cluster wider than its vertex system raises.
    Each pair must pass the residual bound, ||r||_{M^-1}
    <= sqrt(3) ||r||_{L^-1} with L the lumped mass (L/3 <= M <= L; rho and
    L summed from the element tables, op._scales), and mass orthonormality,
    or QGraphNumericalError; both test the returned vectors v.  K v runs one
    block of _row_blocks rows at a time, each row's residual norm summed
    along the row; M v is kept whole for the Gram's one product.  Every pass over (num_modes x dof) arrays
    runs in such blocks (ROW_BLOCK float64 entries), so a sliced solve
    holds about two such arrays plus one block, and the block size
    changes no result.  Keep num_modes an order of magnitude below the dof
    count.  Its SolveRecord, EigenSystem.solve, says how it went.
    """
    _check_num_modes(num_modes, op.layout.total_dof)
    unit, resolution, rho, lumped = op._scales  # rho bounds a zero mode's roundoff and the residuals
    if not 0 < rho < np.inf:
        raise QGraphNumericalError(f"stiffness scale max K_ii/M_ii = {rho} out of range")

    sliced = (op.layout.n_vertices + len(op.layout.nodes) <= tol.SLICE_MAX_ORDER
              and all(e.diffusion.is_constant and e.potential.is_constant for e in op.graph.edges))
    wider = min(max(2 * num_modes + 1, 20) + num_modes, op.layout.total_dof)
    calls = shifts = 0
    for attempts, ncv in enumerate([None] if sliced else [None, wider], 1):
        w, v, calls, shifts = (_sliced_pairs(op, num_modes) if sliced  # eigsh counts no inertia
                               else (*_lanczos_pairs(op, num_modes, ncv), calls, shifts))
        if w is None:  # ARPACK did not converge: re-solved wider, as a deficit is
            continue
        if w[0] < -tol.EIG_RESIDUAL * rho:
            raise QGraphNumericalError(f"spurious negative eigenvalue {w[0]}")
        w = np.maximum(w, 0.0)
        clusters = _spans(w, tol.CLUSTER_GAP, unit)
        last = clusters[-1][0]
        if not last:  # with a single cluster nothing lies below it
            break
        sigma = 0.5 * (w[last - 1] + w[last])
        below = int(_slice_count(op, sigma)[0]) if sliced else _count_below(op, sigma)
        calls, shifts = calls + 1, shifts + 1
        if below == last:
            break
    else:
        raise QGraphNumericalError(
            f"{below} eigenvalues lie below {sigma:.6g} but the solve found {last}")

    # certificates, by stencils on the returned vectors: residual norms
    # against rho, one row block at a time, then mass orthonormality
    v = np.ascontiguousarray(v)
    mv = op.apply(*op.m_entries, v)
    residuals = np.empty(num_modes)
    for rows in _row_blocks(*v.shape):
        r = op.apply(op.k_diag, op.k_off, v[rows])
        r -= w[rows, None] * mv[rows]
        weighted = r / lumped
        weighted *= r  # summed along each row, so a row's norm is the same in any block
        residuals[rows] = np.sqrt(3.0 * weighted.sum(axis=1))
        del r, weighted  # freed before the next block's are made
    excess = np.max(residuals / (tol.EIG_RESIDUAL * (w + rho)))
    if not excess <= 1.0:
        raise QGraphNumericalError(f"eigenpair residual {excess:.3g} times its bound")
    defect = np.max(np.abs(v @ mv.T - np.eye(num_modes)))
    if not defect <= tol.ORTHONORMALITY:
        raise QGraphNumericalError(f"eigenvectors not mass-orthonormal: defect {defect:.3g}")

    with np.errstate(over="ignore", invalid="ignore"):  # a huge cell trusts nothing
        trusted = w * resolution <= tol.TRUSTED_LAMBDA_H2

    return EigenSystem(
        graph=op.graph,
        layout=op.layout,
        lambdas=w,
        vectors=v,
        clusters=clusters,
        trusted=trusted,
        source="fem",
        residuals=residuals,
        solve=SolveRecord("sliced" if sliced else "lanczos", attempts, calls, shifts, last or None,
                          float(excess), float(defect)),
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
    if _integer(n_edges, "n_edges") < 2:
        raise QGraphValidationError("a star needs at least two edges")
    _integer(num_clusters, "num_clusters", 1)
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
    with _parse(open, path, "w", newline="", encoding="utf-8") as fh:
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
    chunks, x_text = [], {}  # each distinct coordinate row's repr text, shared by equal edges
    for e, xs in zip(eig.graph.edges, eig.layout.coords):
        edge = io.StringIO()
        csv.writer(edge, lineterminator="").writerow([e.id, ""])  # the id as csv quotes it
        prefix = edge.getvalue()
        key = xs.tobytes()
        if key not in x_text:
            x_text[key] = list(map(repr, xs.tolist()))
        rows = zip(x_text[key], values[e.id].tolist())
        chunks.append("".join(f"{prefix}{x},{v!r}\r\n" for x, v in rows))
    _write_csv(path, ["edge", "x", "value"], chunks)
