import csv
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import qgraph as qg
from qgraph import spectral
from qgraph import tolerances as tol
from qgraph.cli import main
from qgraph.spectral import _pair_mode, assemble, eigensolve

PI2 = np.pi**2


def _path_order_permutation(op):
    """Permutation taking the vertex-first dof order to left-to-right order
    along a single edge (tail, interiors..., head)."""
    return op.layout.nodes[0]


def test_assemble_interval_tridiag_two_elements():
    """Classical textbook stencil for one edge, two elements of size 1/2."""
    g = qg.interval_graph(1.0)
    op = assemble(g, 2)
    perm = _path_order_permutation(op)
    k = op.stiffness.toarray()[np.ix_(perm, perm)]
    expected = (1.0 / 0.5) * np.array(
        [
            [1.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 1.0],
        ]
    )
    np.testing.assert_allclose(k, expected, atol=1e-14)
    m = op.mass.toarray()[np.ix_(perm, perm)]
    h = 0.5
    expected_m = (h / 6.0) * np.array(
        [
            [2.0, 1.0, 0.0],
            [1.0, 4.0, 1.0],
            [0.0, 1.0, 2.0],
        ]
    )
    np.testing.assert_allclose(m, expected_m, atol=1e-14)


def test_star_dof_count():
    n = 16
    op = assemble(qg.star_graph([1.0, 1.0, 1.0]), n)
    assert op.layout.total_dof == 3 * (n - 1) + 4


def test_layout_tables():
    """Each edge's row of nodes runs tail, interiors, head; the loop's two
    ends are one dof.  Both tables are read-only."""
    lay = assemble(qg.lasso_graph(), 4).layout
    assert lay.nodes.tolist() == [[0, 2, 3, 4, 0], [0, 5, 6, 7, 1]]
    assert np.array_equal(lay.coords[0], np.linspace(0.0, 1.0, 5))
    assert lay.total_dof == 8
    with pytest.raises(ValueError):
        lay.nodes[0, 1] = 1
    with pytest.raises(ValueError):
        lay.coords[0, 1] = 0.5


def test_constant_potential_adds_mass():
    g0 = qg.star_graph([1.0, 0.7, 1.3], p=0.0)
    g1 = qg.star_graph([1.0, 0.7, 1.3], p=1.0)
    k0 = assemble(g0, 8)
    k1 = assemble(g1, 8)
    np.testing.assert_allclose(
        k1.stiffness.toarray(), (k0.stiffness + k0.mass).toarray(), atol=1e-14
    )


def test_potential_quadrature_is_one_rule():
    """A potential assembles the same operator however it is written, and a
    profile constant on each element is integrated exactly."""
    const = assemble(qg.interval_graph(1.0, p=0.5), 8).stiffness
    cells = assemble(qg.interval_graph(1.0, p=qg.Coefficient.cell_samples([0.5] * 4)), 8)
    assert np.array_equal(const.toarray(), cells.stiffness.toarray())

    # u = x is exact in P1, so u' (K_p - K_0) u must equal the integral of p x^2
    values = [0.5, 1.0, 0.25, 2.0]
    op_p = assemble(qg.interval_graph(1.0, p=qg.Coefficient.cell_samples(values)), 8)
    op_0 = assemble(qg.interval_graph(1.0), 8)
    u = np.zeros(op_p.layout.total_dof)
    u[op_p.layout.nodes[0]] = op_p.layout.coords[0]
    exact = sum(v * ((i + 1) ** 3 - i**3) / (3 * 4**3) for i, v in enumerate(values))
    assert u @ ((op_p.stiffness - op_0.stiffness) @ u) == pytest.approx(exact, rel=1e-14)


def test_assembled_matrices_symmetric_and_psd(star3):
    op = assemble(star3, 32)
    k = op.stiffness.toarray()
    m = op.mass.toarray()
    np.testing.assert_allclose(k, k.T, atol=1e-14)
    np.testing.assert_allclose(m, m.T, atol=1e-14)
    assert np.linalg.eigvalsh(m).min() > 0
    assert np.linalg.eigvalsh(k).min() > -1e-12


def _reference_matrices(graph, nel):
    """Element-by-element P1 assembly, one edge at a time, entries in the
    same order as assemble: the reference its tables must reproduce."""
    entries = []
    offset = graph.n
    for e in graph.edges:
        idx = [graph.vertex_index[e.tail], *range(offset, offset + nel - 1),
               graph.vertex_index[e.head]]
        offset += nel - 1
        x = np.linspace(0.0, e.length, nel + 1)
        h = e.length / nel
        mids = 0.5 * (x[:-1] + x[1:])
        c, p = e.diffusion.at(mids, e.length), e.potential.at(mids, e.length)
        kd, ko = c / h + p * h / 3.0, -c / h + p * h / 6.0
        md, mo = np.full(nel, h / 3.0), np.full(nel, h / 6.0)
        left, right = idx[:-1], idx[1:]
        entries.append((left + right + left + right, left + right + right + left,
                        np.concatenate([kd, kd, ko, ko]), np.concatenate([md, md, mo, mo])))
    rows, cols, k, m = (np.concatenate(part) for part in zip(*entries))
    return (sp.coo_matrix((k, (rows, cols)), shape=(offset, offset)).tocsr(),
            sp.coo_matrix((m, (rows, cols)), shape=(offset, offset)).tocsr())


@pytest.mark.parametrize("graph", [
    qg.lasso_graph(),
    qg.path_graph([1e-3, 2.0]),
    qg.star_graph([3.0, 1.0, 1.0], p=1.0),
    qg.path_graph([1.0, 0.6], c=[qg.Coefficient.linear_samples([1.0, 2.0, 1.5]), 0.7],
                  p=[qg.Coefficient.cell_samples([0.5, 1.0, 0.25, 2.0]), 0.0]),
], ids=["lasso", "tiny-edge", "star-p1", "sampled"])
@pytest.mark.parametrize("nel", [2, 3, 16, 257])
def test_assembly_matches_edgewise_reference(graph, nel):
    """The table-driven assembly gives the edgewise loop's matrices bit for bit."""
    op = assemble(graph, nel)
    for got, ref in zip((op.stiffness, op.mass), _reference_matrices(graph, nel)):
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))


def test_interval_fem_eigenvalues():
    g = qg.interval_graph(1.0)
    eig = qg.solve_spectrum(g, 128, 6)
    for k in range(6):
        # P1 eigenvalue error is about (k pi h)^2 / 12 relative
        np.testing.assert_allclose(eig.lambdas[k], k**2 * PI2, rtol=2e-3, atol=1e-8)
    # endpoint traces of the cosine modes have magnitude sqrt(2)
    for k in range(1, 5):
        np.testing.assert_allclose(abs(eig.vertex_traces[k, 0]), np.sqrt(2.0), rtol=1e-3)


def test_interval_eigenvalue_convergence_is_second_order():
    g = qg.interval_graph(1.0)
    errs = []
    for n in (16, 32, 64):
        eig = qg.solve_spectrum(g, n, 3)
        errs.append(abs(eig.lambdas[2] - 4 * PI2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_star_fem_clusters(star3_eig):
    """Alternating simple symmetric and double antisymmetric eigenvalues."""
    eig = star3_eig
    assert [b - a for a, b in eig.clusters[:4]] == [1, 2, 1, 2]
    np.testing.assert_allclose(eig.cluster_eigenvalue(0), 0.0, atol=1e-9)
    # cluster at pi^2/4 with multiplicity exactly 2
    np.testing.assert_allclose(eig.cluster_eigenvalue(1), PI2 / 4, rtol=1e-4)
    # simple symmetric mode at pi^2
    np.testing.assert_allclose(eig.cluster_eigenvalue(2), PI2, rtol=1e-4)
    np.testing.assert_allclose(eig.cluster_eigenvalue(3), 9 * PI2 / 4, rtol=5e-4)


def test_star_fem_antisym_center_traces(star3_eig):
    tm = star3_eig.trace_matrix(1)
    assert tm.shape == (4, 2)
    assert np.linalg.norm(tm[0]) <= 1e-6  # row of the center vertex
    assert np.linalg.matrix_rank(tm, tol=1e-8) <= 2


def test_eigensolve_invariants_on_assorted_graphs():
    """Residual and orthonormality certificates, ordering, nonnegativity."""
    for g in [qg.star_graph([1.0, 1.5, 0.5]), qg.path_graph([0.8, 1.2]), qg.lasso_graph(1.0, 0.6),
              qg.star_graph([1.0, 1.0], p=0.3)]:
        op = assemble(g, 48)
        eig = eigensolve(op, 10)
        assert np.all(np.diff(eig.lambdas) >= -1e-10)
        assert eig.lambdas[0] >= -1e-12
        assert eig.solve.path == "sliced" and eig.solve.residual_ratio <= 1.0
        assert eig.solve.orthonormality_defect <= tol.ORTHONORMALITY
        np.testing.assert_allclose(eig.vectors @ op.mass @ eig.vectors.T, np.eye(10), atol=1e-8)


def _perturb(v):
    return v + 1e-6 * np.random.default_rng(0).standard_normal(v.shape)


def _scale_first(v):
    v = v.copy()
    v[:, 0] *= 1.0 + 1e-6
    return v


def _sampled(graph):
    """The same operator with c given as two equal samples on every edge:
    sampled coefficients, so the eigensolve takes its Lanczos path."""
    flat = qg.Coefficient.linear_samples([1.0, 1.0])
    return qg.MetricGraph(vertices=graph.vertices, edges=tuple(
        qg.Edge(e.id, e.tail, e.head, e.length, flat, e.potential) for e in graph.edges))


def _exits_3(tmp_path, capsys, graph, argv, message):
    """At the command line the failure exits 3 with one error line and no manifest."""
    qg.save_graph(graph, tmp_path / "graph.json")
    assert main(["spectrum", "--graph", str(tmp_path / "graph.json"), *argv,
                 "--out", str(tmp_path / "spectrum.csv")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"numerical failure: {message}")
    assert len(err.splitlines()) == 1 and not list(tmp_path.glob("*.manifest.json"))
    return err


@pytest.mark.parametrize("tamper,check", [(_perturb, "residual"),
                                          (_scale_first, "orthonormal")],
                         ids=["residual", "orthonormality"])
def test_eigensolve_enforces_certificates(tmp_path, monkeypatch, capsys, tamper, check):
    """Lanczos eigenpairs off by 1e-6 fail their certificate: in the library a
    QGraphNumericalError, at the command line exit 3 and no manifest."""
    eigsh = spla.eigsh

    def tampered(*args, **kwargs):
        w, v = eigsh(*args, **kwargs)
        return w, tamper(v)

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", tampered)
    g = _sampled(qg.interval_graph(1.0))
    with pytest.raises(qg.QGraphNumericalError, match=check):
        qg.solve_spectrum(g, 32, 4)
    assert check in _exits_3(tmp_path, capsys, g, ["--mesh", "32", "--modes", "4"], "")


@pytest.mark.parametrize("tamper,check", [(lambda v: _perturb(v.T).T, "eigenpair residual"),
                                          (lambda v: _scale_first(v.T).T, "eigenvectors not")],
                         ids=["residual", "orthonormality"])
def test_sliced_eigenpairs_enforce_certificates(tmp_path, monkeypatch, capsys, tamper, check):
    """The closed-form path's pairs pass the same certificates: vectors off
    by 1e-6 fail them, in the library and at the command line."""
    sliced = spectral._sliced_pairs
    monkeypatch.setattr(spectral, "_sliced_pairs",
                        lambda op, k: (lambda w, v, *n: (w, tamper(v), *n))(*sliced(op, k)))
    g = qg.star_graph([1.0, 1.0, 1.0])
    with pytest.raises(qg.QGraphNumericalError, match=check):
        qg.solve_spectrum(g, 32, 6)
    _exits_3(tmp_path, capsys, g, ["--mesh", "32", "--modes", "6"], check)


def test_zero_mode_roundoff_is_clamped():
    """A 1e-5 edge beside a 2.0 edge: the zero mode comes back from Lanczos
    as a roundoff negative far below the operator's scale, and is clamped.
    The closed-form path has no negative roundoff: its zero mode is the
    energy of a nearly constant vector, orders of magnitude below the
    next eigenvalue."""
    for mesh, modes in ((1024, 1), (1024, 2), (4096, 2)):
        eig = qg.solve_spectrum(_sampled(qg.path_graph([1e-5, 2.0])), mesh, modes)
        assert eig.lambdas[0] == 0.0
    for mesh in (1024, 4096):
        eig = qg.solve_spectrum(qg.path_graph([1e-5, 2.0]), mesh, 2)
        assert 0.0 <= eig.lambdas[0] <= 1e-15 * eig.lambdas[1]


def test_negative_eigenvalue_on_operator_scale_exits_3(tmp_path, monkeypatch, capsys):
    """lambda_0 = -1e-6 rho lies beyond roundoff of a zero mode: exit 3, on
    the Lanczos path and on the closed-form path."""
    eigsh = spla.eigsh

    def shifted(a, **kwargs):
        w, v = eigsh(a, **kwargs)
        w[np.argmin(w)] = -1e-6 * np.max(a.diagonal() / kwargs["M"].diagonal())
        return w, v

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", shifted)
    _exits_3(tmp_path, capsys, _sampled(qg.interval_graph(1.0)), ["--mesh", "32", "--modes", "4"],
             "spurious negative eigenvalue")

    sliced = spectral._sliced_pairs

    def lowered(op, k):
        w, v, *n = sliced(op, k)
        return np.concatenate([[-1e-6 * 3.0 * 32**2], w[1:]]), v, *n

    monkeypatch.setattr(spectral, "_sliced_pairs", lowered)
    _exits_3(tmp_path, capsys, qg.interval_graph(1.0), ["--mesh", "32", "--modes", "4"],
             "spurious negative eigenvalue")


def test_missed_eigenvalue_exits_3(tmp_path, monkeypatch, capsys):
    """With 60 Lanczos vectors on both attempts (the default is 2k + 1 =
    101, the re-solve 3k + 1 = 151) ARPACK drops a member of a 9-fold
    cluster of the 10-star with sampled coefficients, and every pair it
    returns still passes the residual and orthonormality certificates; the
    inertia count below the last cluster catches the gap twice: exit 3."""
    eigsh = spla.eigsh
    monkeypatch.setattr("scipy.sparse.linalg.eigsh",
                        lambda a, **kw: eigsh(a, **{**kw, "ncv": 60}))
    star10 = _sampled(qg.star_graph([1.0] * 10))
    with pytest.raises(qg.QGraphNumericalError, match="50 eigenvalues lie below .* found 49"):
        qg.solve_spectrum(star10, 256, 50)
    _exits_3(tmp_path, capsys, star10, ["--mesh", "256", "--modes", "50"],
             "50 eigenvalues lie below")


def test_sliced_count_deficit_exits_3(tmp_path, monkeypatch, capsys):
    """A slicing result missing one member of a 9-fold cluster of the
    10-star (forced) fails the closed-form count certificate, with the
    Lanczos path's message: exit 3."""
    sliced = spectral._sliced_pairs
    monkeypatch.setattr(spectral, "_sliced_pairs", lambda op, k: (
        lambda w, v, *n: (np.delete(w, 1), np.delete(v, 1, axis=0), *n))(*sliced(op, k)))
    with pytest.raises(qg.QGraphNumericalError,
                       match=r"^41 eigenvalues lie below \S+ but the solve found 40$"):
        qg.solve_spectrum(qg.star_graph([1.0] * 10), 256, 50)
    _exits_3(tmp_path, capsys, qg.star_graph([1.0] * 10), ["--mesh", "256", "--modes", "50"],
             "41 eigenvalues lie below")


# equilateral stars whose (n - 1)-fold clusters single-vector Lanczos cuts
# short: the first eight recover in its re-solve, the last eight did not
RE_SOLVED = [(20, 32, 20), (20, 128, 20), (20, 64, 60), (10, 16, 40), (30, 32, 60),
             (4, 32, 4), (5, 16, 4), (6, 16, 4)]
LANCZOS_MISSED = [(13, 16, 12), (18, 16, 12), (19, 16, 12), (19, 32, 12), (20, 16, 12),
                  (22, 32, 11), (23, 64, 9), (26, 16, 12)]


def _check_star_clusters(eig, n, mesh, modes):
    """Every cluster of the n-star is complete and sits at its P1 value."""
    sizes, c = [], 0
    while sum(sizes) < modes:
        sizes.append(min(1 + (n - 2) * (c % 2), modes - sum(sizes)))
        c += 1
    assert [b - a for a, b in eig.clusters] == sizes
    exact = np.array([(c / 2) ** 2 * PI2 for c, size in enumerate(sizes) for _ in range(size)])
    h = 1.0 / mesh
    p1 = 6.0 / h**2 * (1.0 - np.cos(np.sqrt(exact) * h)) / (2.0 + np.cos(np.sqrt(exact) * h))
    assert np.all(np.abs(eig.lambdas - p1) <= 1e-6 * np.maximum(exact, 1.0))


@pytest.mark.parametrize("n,mesh,modes", RE_SOLVED + LANCZOS_MISSED)
def test_wide_clusters_are_re_solved(n, mesh, modes):
    """The closed-form count misses no member of a wide cluster."""
    _check_star_clusters(qg.solve_spectrum(qg.star_graph([1.0] * n), mesh, modes), n, mesh, modes)


@pytest.mark.parametrize("n,mesh,modes", RE_SOLVED + [(3, 512, 20)])
def test_lanczos_re_solve_recovers_wide_clusters(n, mesh, modes):
    """With sampled coefficients the first Lanczos solve of the RE_SOLVED
    stars falls short of the count, and the re-solve with k more vectors
    recovers every member; the 3-star's first solve is already whole.
    Each attempt counts K - sigma M once."""
    eig = qg.solve_spectrum(_sampled(qg.star_graph([1.0] * n)), mesh, modes)
    attempts = 2 if (n, mesh, modes) in RE_SOLVED else 1
    assert (eig.solve.path, eig.solve.attempts, eig.solve.calls) == ("lanczos", attempts, attempts)
    _check_star_clusters(eig, n, mesh, modes)


@pytest.mark.parametrize("mesh,modes", [(256, 30), (64, 6)])
def test_repeated_solves_are_identical(mesh, modes):
    """The eigensystem is a pure function of its input, also inside the
    9-fold clusters of the 10-star: on the closed-form path, and on the
    Lanczos path with its seeded start and restarts (at mesh 64 with 6
    modes ARPACK restarts)."""
    for g in (qg.star_graph([1.0] * 10), _sampled(qg.star_graph([1.0] * 10))):
        first = qg.solve_spectrum(g, mesh, modes)
        second = qg.solve_spectrum(g, mesh, modes)
        assert first.layout.total_dof == 10 * mesh + 1
        assert max(b - a for a, b in first.clusters) == min(9, modes - 1)
        assert np.array_equal(first.lambdas, second.lambdas)
        assert np.array_equal(first.vectors, second.vectors)


@pytest.mark.parametrize("block", [1, 10**12], ids=["one-row", "all-rows"])
@pytest.mark.parametrize("sampled", [False, True], ids=["sliced", "lanczos"])
def test_row_blocks_change_no_result(monkeypatch, block, sampled):
    """The row-block rule of the passes over (modes x dof) arrays changes
    nothing: one row per block and all rows in one block give the default's
    (two blocks here) eigenpairs, clusters and residuals, bit for bit, on
    the closed-form path and on the Lanczos path."""
    star = qg.star_graph([1.0] * 10)
    graph = _sampled(star) if sampled else star
    reference = qg.solve_spectrum(graph, 128, 30)
    assert len(spectral._row_blocks(30, reference.layout.total_dof)) == 2
    monkeypatch.setattr(spectral, "ROW_BLOCK", block)
    eig = qg.solve_spectrum(graph, 128, 30)
    assert eig.solve.path == ("lanczos" if sampled else "sliced")
    assert eig.clusters == reference.clusters
    for name in ("lambdas", "vectors", "residuals"):
        assert np.array_equal(getattr(eig, name), getattr(reference, name)), name


@pytest.mark.parametrize("graph,mesh,modes", [(qg.star_graph([1.0] * 10), 256, 50),
                                               (qg.path_graph([1.0, 0.7, 1.3, 0.9, 1.1]), 512, 30)],
                         ids=["10-star", "5-path"])
def test_eigensolve_peak_memory_is_bounded(graph, mesh, modes):
    """The eigensolve streams its passes over (modes x dof) arrays in row
    blocks, so its traced peak stays within 3.5 such arrays: about two of
    them (the vectors and one product) plus a few blocks."""
    op = assemble(graph, mesh)
    tracemalloc.start()
    try:
        eigensolve(op, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * modes * op.layout.total_dof * 8


def _p1_dirichlet(c, p, length, mesh, k):
    """The k-th Dirichlet eigenvalue of one edge's interior block."""
    h = length / mesh
    cos = np.cos(k * np.pi / mesh)
    return p + 6.0 * c / h**2 * (1.0 - cos) / (2.0 + cos)


@st.composite
def _constant_graphs(draw):
    """Small edgewise-constant graphs: loops, repeated edges, p > 0, and
    lengths 1 and 1 + 1e-8, whose Dirichlet values nearly coincide."""
    n = draw(st.integers(2, 4))
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]  # a spanning tree
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for j, (a, b) in enumerate(ends):
        length = draw(st.sampled_from([1.0, 1.0 + 1e-8, 0.6, 1.7]))
        c = draw(st.sampled_from([1.0, 0.5, 2.0]))
        p = draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
        edges.append(qg.Edge(f"e{j}", vertices[a], vertices[b], length,
                             qg.Coefficient.const(c), qg.Coefficient.const(p)))
    return qg.MetricGraph(vertices=tuple(vertices), edges=tuple(edges))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(graph=_constant_graphs(), mesh=st.integers(2, 12), data=st.data())
def test_closed_form_count_matches_the_inertia_count(graph, mesh, data):
    """The closed-form count equals _count_below's splu inertia of K - sigma M,
    at shifts across the whole spectrum, below p, and on and next to the
    edges' Dirichlet values; where sigma is an eigenvalue to within 1e-9
    either count may fall on either side."""
    op = assemble(graph, mesh)
    edge = data.draw(st.sampled_from(graph.edges))
    c, p = edge.diffusion.values[0], edge.potential.values[0]
    dirichlet = _p1_dirichlet(c, p, edge.length, mesh, data.draw(st.integers(1, mesh - 1)))
    top = max(e.potential.values[0] + 12.0 * e.diffusion.values[0] * (mesh / e.length) ** 2
              for e in graph.edges)
    sigma = data.draw(st.one_of(
        st.floats(-1.0, 1.05 * top),
        st.sampled_from([dirichlet, dirichlet * (1 + 1e-12), dirichlet * (1 - 1e-12),
                         dirichlet * (1 + 1e-9), dirichlet * (1 - 1e-9), p, 0.5 * p])))
    lam = np.linalg.eigvalsh(np.linalg.solve(np.linalg.cholesky(op.mass.toarray()),
                                             np.linalg.solve(np.linalg.cholesky(op.mass.toarray()),
                                                             op.stiffness.toarray()).T))
    slack = 1e-9 * max(abs(sigma), 1.0)
    low, high = np.count_nonzero(lam < sigma - slack), np.count_nonzero(lam < sigma + slack)
    closed = int(spectral._slice_count(op, sigma)[0])
    assert low <= closed <= high
    try:
        inertia = spectral._count_below(op, sigma)
    except qg.QGraphNumericalError:  # splu met an exactly singular pivot
        return
    assert low <= inertia <= high
    if low == high:
        assert closed == inertia


@settings(derandomize=True, max_examples=80, deadline=None)
@given(graph=_constant_graphs(), mesh=st.sampled_from([64, 256, 1024]), data=st.data())
def test_closed_form_count_matches_the_inertia_count_on_fine_meshes(graph, mesh, data):
    """At the meshes commands solve on, where N theta/pi is large and shifts
    near Dirichlet values round hardest, the closed-form count equals the
    splu inertia count.  splu's unpivoted inertia is itself unreliable
    within about 1e-9 of a multiple eigenvalue, so it is read 1e-6 either
    side of sigma: where the two agree, no eigenvalue lies between them
    and the closed form must match; else it must lie between them."""
    op = assemble(graph, mesh)
    edge = data.draw(st.sampled_from(graph.edges))
    c, p = edge.diffusion.values[0], edge.potential.values[0]
    k = data.draw(st.sampled_from([1, 2, mesh // 2, mesh - 2, mesh - 1]))
    dirichlet = _p1_dirichlet(c, p, edge.length, mesh, k)
    top = max(e.potential.values[0] + 12.0 * e.diffusion.values[0] * (mesh / e.length) ** 2
              for e in graph.edges)
    sigma = data.draw(st.one_of(
        st.floats(-1.0, 1.05 * top),
        st.floats(-1.0, 2000.0),
        st.sampled_from([dirichlet, dirichlet * (1 + 1e-12), dirichlet * (1 - 1e-12),
                         dirichlet * (1 + 1e-9), dirichlet * (1 - 1e-9), p, 0.5 * p])))
    slack = 1e-6 * max(abs(sigma), 1.0)
    low, high = spectral._count_below(op, sigma - slack), spectral._count_below(op, sigma + slack)
    closed = int(spectral._slice_count(op, sigma)[0])
    assert low <= closed <= high
    if low == high:
        assert closed == low


@settings(derandomize=True, max_examples=150, deadline=None)
@given(graph=_constant_graphs(), mesh=st.integers(2, 12), data=st.data())
def test_sliced_eigenvalues_match_a_dense_solve(graph, mesh, data):
    """The members of a multiple eigenvalue share one refinement, yet
    distinct near-coincident roots (lengths 1 and 1 + 1e-8) stay apart:
    every sliced eigenvalue is within 1e-10 of a dense generalized solve of
    the assembled K and M, and each gap of the sliced values has the dense
    count below its midpoint."""
    op = assemble(graph, mesh)
    num_modes = data.draw(st.integers(1, op.layout.total_dof - 1))
    lam = eigensolve(op, num_modes).lambdas
    dense = sla.eigh(op.stiffness.toarray(), op.mass.toarray(), eigvals_only=True)
    assert np.all(np.abs(lam - dense[:num_modes]) <= 1e-10 * np.maximum(dense[:num_modes], 1.0))
    for k in np.flatnonzero(np.diff(lam) > 4e-10 * np.maximum(lam[1:], 1.0)) + 1:
        assert np.count_nonzero(dense < 0.5 * (lam[k - 1] + lam[k])) == k


@pytest.mark.parametrize("n,mesh,modes,most", [(10, 64, 50, 191), (3, 1024, 20, 125)])
def test_multiple_eigenvalues_are_refined_once(n, mesh, modes, most):
    """The 9-fold clusters of the 10-star share one shift per round (722
    shifts when each member was refined on its own), and at the star's
    anti-symmetric eigenvalues, where N theta/pi is a half-integer, the
    slope's nudged shift keeps the shift's own border pattern, so one
    _shift_system call per round serves it (422 shifts when these roots
    bisected, 196 and 129 with a second call for a slope from below)."""
    eig = qg.solve_spectrum(qg.star_graph([1.0] * n), mesh, modes)
    assert eig.solve.shifts <= most
    _check_star_clusters(eig, n, mesh, modes)


@pytest.mark.parametrize("lengths,mesh,modes,most", [
    ([1.0] * 3, 128, 10, 5), ([1.0] * 3, 128, 12, 5), ([1.0] * 3, 128, 16, 6),
    ([3.0, 1.0, 1.0], 256, 50, 8), ([1.0] * 3, 512, 20, 5)])
def test_brackets_start_at_their_counted_end(lengths, mesh, modes, most):
    """Each grid bracket's refinement starts at its lower end, whose count
    is known, so Newton advances from below instead of bisecting toward a
    grid point just under the star's doublets (16-18 _shift_system calls
    per solve when brackets started inside them), and each refinement
    round makes one call (6-10 per solve, the grid's and the count
    certificate's included, with a second call for a slope from below).
    The cases are the feller, control and invariant solves of the
    analysis benchmark and the README's 3-star at mesh 512."""
    graph = qg.star_graph(lengths)
    eig = qg.solve_spectrum(graph, mesh, modes)
    assert eig.solve.calls <= most
    if len(set(lengths)) == 1:
        _check_star_clusters(eig, len(lengths), mesh, modes)
    else:
        op = assemble(graph, mesh)
        dense = sla.eigh(op.stiffness.toarray(), op.mass.toarray(), eigvals_only=True,
                         subset_by_index=[0, modes - 1])
        assert np.all(np.abs(eig.lambdas - dense) <= 1e-10 * np.maximum(dense, 1.0))


def test_lasso_root_follows_its_neighbours_shift():
    """Roots share a shift only while their own Newton steps agree to
    SLICE_WINDOW: the lasso's root 11, whose first step (369.13) is far from
    root 10's (355.95), parts from it in its first round, where counts alone
    kept it on root 10's shift for rounds 0-3 (10 calls at each mesh, 261,
    257 and 265 shifts).  Each parted root refines on its own shift, so the
    shifts rise by 6 while the calls fall to 8, at the spectrum benchmark's
    meshes 256 and 1024 too."""
    for mesh, most in [(128, 267), (256, 263), (1024, 271)]:
        solve = qg.solve_spectrum(qg.lasso_graph(1.0, 0.8), mesh, 24).solve
        assert solve.calls <= 8 and solve.shifts <= most


@pytest.mark.parametrize("edges,sliced", [(30, True), (32, False)])
def test_large_graphs_run_lanczos(edges, sliced):
    """Slicing's cost grows as (n + m)^3 per shift: an edgewise-constant
    graph with a vertex system above SLICE_MAX_ORDER runs Lanczos."""
    graph = qg.path_graph([1.0] * edges)
    assert (graph.n + graph.m <= tol.SLICE_MAX_ORDER) == sliced
    eig = qg.solve_spectrum(graph, 16, 8)
    assert eig.solve.path == ("sliced" if sliced else "lanczos")
    x = np.arange(8) * np.pi / edges / 16  # sqrt(lambda) h, for the interval's P1 values
    assert np.allclose(eig.lambdas, 6.0 * 16**2 * (1.0 - np.cos(x)) / (2.0 + np.cos(x)),
                       rtol=1e-9, atol=1e-12)


def test_constant_kernel_mode(star3_eig):
    """p = 0 on a connected graph: lambda_0 = 0 simple, eigenfunction constant."""
    v0 = star3_eig.vectors[0]
    assert star3_eig.clusters[0] == (0, 1)
    assert np.ptp(v0) <= 1e-6 * np.abs(v0).max()


def test_positive_potential_shifts_bottom():
    g = qg.star_graph([1.0, 1.0, 1.0], p=1.0)
    eig = qg.solve_spectrum(g, 64, 4)
    np.testing.assert_allclose(eig.lambdas[0], 1.0, rtol=1e-10)


def test_weyl_growth_bracket(interval_eig):
    lam = interval_eig.lambdas
    ks = np.arange(1, len(lam))
    ratio = lam[1:] / ks**2
    np.testing.assert_allclose(ratio, PI2, rtol=1e-12)


def test_trusted_range_marks_coarse_modes():
    g = qg.interval_graph(1.0)
    eig = qg.solve_spectrum(g, 8, 8)  # deliberately coarse
    assert bool(eig.trusted[0])
    assert not bool(eig.trusted[-1])
    # trusted clusters exclude anything touching the last computed mode
    assert (len(eig.clusters) - 1) not in eig.trusted_cluster_indices()


def test_variable_diffusion_matches_constant_when_flat():
    flat = qg.interval_graph(1.0, c=2.0)
    sampled = qg.graph_from_dict(
        {
            "vertices": ["v0", "v1"],
            "edges": [
                {
                    "id": "e1",
                    "tail": "v0",
                    "head": "v1",
                    "length": 1.0,
                    "c": {"samples": [2.0, 2.0, 2.0], "grid": "uniform"},
                    "p": 0.0,
                }
            ],
        }
    )
    k1 = assemble(flat, 16).stiffness.toarray()
    k2 = assemble(sampled, 16).stiffness.toarray()
    np.testing.assert_allclose(k1, k2, atol=1e-14)


def test_diffusion_scaling():
    """c -> 4c scales the whole spectrum by 4 on a p = 0 graph."""
    e1 = qg.solve_spectrum(qg.interval_graph(1.0, c=1.0), 64, 5)
    e4 = qg.solve_spectrum(qg.interval_graph(1.0, c=4.0), 64, 5)
    np.testing.assert_allclose(e4.lambdas[1:], 4 * e1.lambdas[1:], rtol=1e-10)


# -- analytic systems ----------------------------------------------------------


def test_star_analytic_eigenvalues_and_traces(star3_analytic):
    eig = star3_analytic
    np.testing.assert_allclose(eig.lambdas[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(eig.lambdas[1], PI2 / 4)
    np.testing.assert_allclose(eig.lambdas[2], PI2 / 4)
    # pinned trace pattern at (vc, v1, v2, v3)
    np.testing.assert_allclose(eig.vertex_traces[1], [0.0, 1.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(eig.vertex_traces[2], [0.0, 1.0, 0.0, -1.0], atol=1e-15)
    # constant mode trace 1/sqrt(N ell)
    np.testing.assert_allclose(eig.vertex_traces[0], np.full(4, 1 / np.sqrt(3.0)))


def test_star_analytic_center_zero_is_exact(star3_analytic):
    assert np.all(star3_analytic.vertex_traces[1:3, 0] == 0.0)


def test_star_analytic_family_overlap_is_half():
    """Members of one antisymmetric family share the first edge: <g1, g2> = 1/2."""
    eig = qg.star_analytic(3, 1.0, num_clusters=2, elements_per_edge=256)
    op = assemble(eig.graph, 256)
    g1, g2 = eig.vectors[1], eig.vectors[2]
    overlap = g1 @ (op.mass @ g2)
    assert overlap == pytest.approx(0.5, abs=2e-4)
    assert g1 @ (op.mass @ g1) == pytest.approx(1.0, abs=2e-4)


def test_star_pair_modes_scale_invariance():
    """Cluster 3 of the 4-star holds the k = 1 pair modes; each one's leaf
    traces are its edge amplitudes, since x = 0 is the leaf end."""
    for ell in (0.5, 1.0, 2.0):
        eig = qg.star_analytic(4, ell, num_clusters=4)
        a, b = eig.clusters[3]
        assert b - a == 3
        for j in range(3):
            np.testing.assert_allclose(eig.lambdas[a + j], (1.5 * np.pi / ell) ** 2)
            traces = eig.vertex_traces[a + j]  # (vc, v1, v2, v3, v4)
            np.testing.assert_allclose(traces[1], np.sqrt(1 / ell))
            np.testing.assert_allclose(traces[j + 2], -np.sqrt(1 / ell))


@pytest.mark.parametrize("n_edges", [2, 3, 4, 5, 6])
def test_star_analytic_closed_form(n_edges):
    """Cluster c sits at (c pi / 2 ell)^2 with multiplicity 1 for even c and
    n - 1 for odd c; the center trace is exactly zero on odd clusters only."""
    for ell in (0.37, 1.0, 2.5):
        eig = qg.star_analytic(n_edges, ell, num_clusters=40)
        assert [b - a for a, b in eig.clusters] == [1, n_edges - 1] * 20
        for c, (a, b) in enumerate(eig.clusters):
            exact = (c * np.pi / (2 * ell)) ** 2
            assert np.all(np.abs(eig.lambdas[a:b] - exact) <= 1e-15 * exact)
            center = eig.vertex_traces[a:b, 0]
            assert np.all(center == 0.0) if c % 2 else np.all(center != 0.0)


def test_pair_mode_is_a_normalized_eigenfunction():
    """On a two-edge star with lengths (2 na + 1) s and (2 nb + 1) s, the
    mode amp cos(sqrt(mu) x) vanishes at the center, its derivatives
    balance there, it has unit norm, and the amplitudes have opposite
    signs exactly when na - nb is even."""
    for s in (0.3, 1.0):
        for na in range(9):
            for nb in range(9):
                la, lb = (2 * na + 1) * s, (2 * nb + 1) * s
                mu, amp_a, amp_b = _pair_mode(la, lb, na, nb)
                k = np.sqrt(mu)
                for amp, ell in ((amp_a, la), (amp_b, lb)):
                    assert abs(amp * np.cos(k * ell)) <= 1e-12 * abs(amp)
                # Kirchhoff: the derivatives leaving the center sum to zero
                flux = amp_a * np.sin(k * la) + amp_b * np.sin(k * lb)
                assert abs(flux) <= 1e-12 * abs(amp_a)
                assert 0.5 * (amp_a**2 * la + amp_b**2 * lb) == pytest.approx(1.0, rel=1e-14)
                assert (amp_a * amp_b < 0) == ((na - nb) % 2 == 0)


def test_star_analytic_n2_matches_interval():
    """A 2-star of unit edges is an interval of length 2 folded at the middle."""
    st = qg.star_analytic(2, 1.0, num_clusters=6)
    iv = qg.interval_analytic(2.0, num_modes=6)
    np.testing.assert_allclose(st.lambdas[:6], iv.lambdas[:6], atol=1e-10)


def test_interval_analytic_traces(interval_eig):
    np.testing.assert_allclose(interval_eig.vertex_traces[0], [1.0, 1.0])
    for k in range(1, 6):
        np.testing.assert_allclose(interval_eig.vertex_traces[k, 0], np.sqrt(2.0))
        np.testing.assert_allclose(
            interval_eig.vertex_traces[k, 1], np.sqrt(2.0) * (-1.0) ** k
        )
        np.testing.assert_allclose(interval_eig.lambdas[k], k**2 * PI2)


@pytest.mark.parametrize("build", [
    lambda m: assemble(qg.star_graph([1.0, 1.0, 1.0]), m),
    lambda m: qg.star_analytic(3, 1.0, 2, elements_per_edge=m),
    lambda m: qg.interval_analytic(1.0, 3, elements_per_edge=m),
], ids=["assemble", "star_analytic", "interval_analytic"])
@pytest.mark.parametrize("mesh", [0, 1])
def test_every_layout_needs_two_elements_per_edge(build, mesh):
    with pytest.raises(ValueError, match="at least 2"):
        build(mesh)


def test_analytic_matches_fem_interval():
    fem = qg.solve_spectrum(qg.interval_graph(1.0), 256, 6)
    ana = qg.interval_analytic(1.0, num_modes=6)
    np.testing.assert_allclose(fem.lambdas, ana.lambdas, rtol=1e-3, atol=1e-8)


# -- rational two-edge modes ---------------------------------------------------


def test_rational_mode_equal_lengths_reduces_to_pair():
    # equal orders share parity: opposite signs, the equilateral pattern
    g = qg.star_graph([1.0, 1.0, 1.0])
    w = qg.rational_star_scan(g, qg.NoiseModel.from_diagonal(g, {"v3": 1.0}))
    assert w.mode_orders == (0, 0)
    np.testing.assert_allclose(w.eigenvalue, PI2 / 4)
    assert w.traces[1] == -w.traces[2] != 0.0


def test_rational_mode_sign_parity():
    # orders 1 and 0 differ in parity: the same sign at both ends
    g = qg.star_graph([3.0, 1.0])
    w = qg.rational_star_scan(g, qg.NoiseModel.zero(g))
    assert w.mode_orders == (1, 0)
    assert w.traces[1] == w.traces[2] != 0.0


# -- exports -------------------------------------------------------------------


def test_spectrum_csv(tmp_path, star3_eig):
    path = tmp_path / "spec.csv"
    qg.spectrum_to_csv(star3_eig, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "lambda", "cluster_id", "trusted",
                       "trace_vc", "trace_v1", "trace_v2", "trace_v3"]
    assert len(rows) == 1 + star3_eig.num_modes
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-9)


def test_mode_csv(tmp_path, star3_eig):
    path = tmp_path / "mode.csv"
    qg.mode_to_csv(star3_eig, 1, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge", "x", "value"]
    edges = {r[0] for r in rows[1:]}
    assert edges == {"e1", "e2", "e3"}


def test_ten_star_clusters_match_p1_values():
    """The unit 10-star at mesh 256: clusters of 1, 9, 1, 9, ... at the P1
    values of the exact k^2 pi^2 (simple) and (k + 1/2)^2 pi^2 (9-fold)."""
    eig = qg.solve_spectrum(qg.star_graph([1.0] * 10), 256, 50)
    assert [b - a for a, b in eig.clusters] == [1, 9] * 5
    exact = np.array([(k / 2) ** 2 * PI2 for k in range(10) for _ in range(1 + 8 * (k % 2))])
    h = 1.0 / 256
    p1 = 6.0 / h**2 * (1.0 - np.cos(np.sqrt(exact) * h)) / (2.0 + np.cos(np.sqrt(exact) * h))
    assert np.all(np.abs(eig.lambdas - p1) <= 1e-6 * np.maximum(exact, 1.0))


def _reference_spectrum_csv(eig, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda", "cluster_id", "trusted"]
                        + [f"trace_{v}" for v in eig.graph.vertices])
        for k in range(eig.num_modes):
            cluster = next(ci for ci, (a, b) in enumerate(eig.clusters) if a <= k < b)
            row = [k, repr(float(eig.lambdas[k])), cluster,
                   int(bool(eig.trusted[k]))]
            writer.writerow(row + [repr(float(t)) for t in eig.vertex_traces[k]])


def _reference_mode_csv(eig, k, path):
    values = eig.edge_values(k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "x", "value"])
        for j, e in enumerate(eig.graph.edges):
            for x, val in zip(eig.layout.coords[j], values[e.id]):
                writer.writerow([e.id, repr(float(x)), repr(float(val))])


def test_csv_writers_match_csv_module(tmp_path, star3_analytic):
    """The spectrum and mode writers give csv.writer's bytes, quoting included."""
    c1, c0 = qg.Coefficient.const(1.0), qg.Coefficient.const(0.0)
    g = qg.MetricGraph(
        vertices=("x,y", 'q"v', "w"),
        edges=(qg.Edge("a,b", "x,y", 'q"v', 1.0, c1, c0),
               qg.Edge('say "hi"', 'q"v', "w", 0.7, c1, c0),
               qg.Edge("e3", "w", "x,y", 1.3, c1, c0)),
    )
    written = []
    # the star [1, 0.5, 1] has two edges of equal length, which share their x text
    for eig in (qg.solve_spectrum(g, 16, 8), star3_analytic,
                qg.solve_spectrum(qg.star_graph([1.0, 0.5, 1.0]), 16, 8)):
        for writer, reference, args in (
            (qg.spectrum_to_csv, _reference_spectrum_csv, ()),
            (qg.mode_to_csv, _reference_mode_csv, (3,)),
        ):
            writer(eig, *args, tmp_path / "new.csv")
            reference(eig, *args, tmp_path / "ref.csv")
            written.append((tmp_path / "new.csv").read_bytes())
            assert written[-1] == (tmp_path / "ref.csv").read_bytes()
    assert b',"trace_x,y","trace_q""v",' in written[0]
    assert b'\r\n"a,b",0.0,' in written[1] and b'\r\n"say ""hi""",0.0,' in written[1]


def test_mode_index_out_of_range(tmp_path, star3_eig):
    for k in (-1, star3_eig.num_modes):
        with pytest.raises(ValueError, match="mode index"):
            star3_eig.edge_values(k)
        with pytest.raises(ValueError, match="mode index"):
            qg.mode_to_csv(star3_eig, k, tmp_path / "mode.csv")
    assert not (tmp_path / "mode.csv").exists()


def test_cluster_index_out_of_range(star3_eig):
    last = len(star3_eig.clusters) - 1
    for ci in (-1, last + 1):
        message = rf"cluster index must lie in \[0, {last}\], got {ci}$"
        for method in (star3_eig.cluster_eigenvalue, star3_eig.trace_matrix):
            with pytest.raises(ValueError, match=message):
                method(ci)
