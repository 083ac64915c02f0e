import json

import numpy as np
import pytest

import qgraph as qg
from qgraph.noise import NoiseModel, parse_noise


def test_from_diagonal_ordering(star3):
    nm = NoiseModel.from_diagonal(star3, {"v1": 1.0, "v2": 0.5})
    # vertex order follows the graph declaration order (vc first)
    np.testing.assert_allclose(np.diag(nm.q), [0.0, 1.0, 0.5, 0.0])
    np.testing.assert_allclose(nm.q_sqrt @ nm.q_sqrt, nm.q, atol=1e-12)
    assert nm.is_diagonal


def test_quiet_and_zero(star3):
    nm = NoiseModel.from_diagonal(star3, {"v1": 2.0})
    assert nm.is_quiet("v2") and nm.is_quiet("vc")
    assert not nm.is_quiet("v1")
    z = NoiseModel.zero(star3)
    assert not np.any(z.q) and z.is_diagonal


def test_unknown_vertex(star3):
    with pytest.raises(qg.QGraphValidationError, match="unknown vertex in noise spec: 'bogus'"):
        NoiseModel.from_diagonal(star3, {"bogus": 1.0})


def test_from_matrix_full(star3):
    q = np.array(
        [
            [2.0, 0.5, 0.0, 0.0],
            [0.5, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    nm = NoiseModel.from_matrix(star3, q)
    assert not nm.is_diagonal
    np.testing.assert_allclose(nm.q_sqrt @ nm.q_sqrt, q, atol=1e-12)
    # the root is itself symmetric PSD
    np.testing.assert_allclose(nm.q_sqrt, nm.q_sqrt.T, atol=1e-12)
    assert np.linalg.eigvalsh(nm.q_sqrt).min() >= -1e-12


def test_from_matrix_rejects_not_psd(star3):
    q = np.eye(4)
    q[0, 1] = q[1, 0] = -2.0
    with pytest.raises(qg.QGraphValidationError, match="noise matrix has negative eigenvalue"):
        NoiseModel.from_matrix(star3, q)


def test_from_matrix_rejects_asymmetric(star3):
    q = np.eye(4)
    q[0, 1] = 0.3
    with pytest.raises(qg.QGraphValidationError, match="noise matrix is not symmetric"):
        NoiseModel.from_matrix(star3, q)


def test_from_matrix_rejects_bad_shape(star3):
    with pytest.raises(qg.QGraphValidationError, match=r"^noise matrix must be 4x4 for this graph$"):
        NoiseModel.from_matrix(star3, np.eye(3))


@pytest.mark.parametrize("matrix", [[[1, 0, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, "x"]]],
                         ids=["ragged", "not-a-number"])
def test_from_matrix_names_the_shape_rule(matrix):
    """A ragged or non-numeric matrix is rejected by the n x n rule, not by
    numpy's own message."""
    with pytest.raises(qg.QGraphValidationError,
                       match=r"^noise matrix must be 3x3 numbers for this graph$"):
        NoiseModel.from_matrix(qg.star_graph([1.0, 1.0]), matrix)


def test_rejects_non_finite_intensities(star3):
    with pytest.raises(qg.QGraphValidationError, match="non-finite"):
        NoiseModel.from_diagonal(star3, {"v1": float("nan")})
    q = np.eye(4)
    q[2, 2] = np.inf
    with pytest.raises(qg.QGraphValidationError, match="non-finite"):
        NoiseModel.from_matrix(star3, q)


@pytest.mark.parametrize("spec", [
    {"type": "diagonal"},
    {"type": "full"},
    {"type": "diagonal", "q": [1.0]},
    {"type": "full", "matrix": {"v1": 1.0}},
    [{"type": "diagonal", "q": {"v1": 1.0}}],
    "diagonal",
    {"type": "full", "matrix": [[1, 0], [1]]},
])
def test_parse_noise_malformed_json(tmp_path, star3, spec):
    p = tmp_path / "noise.json"
    p.write_text(json.dumps(spec))
    with pytest.raises(qg.QGraphValidationError):
        parse_noise(str(p), star3)


@pytest.mark.parametrize("matrix", [[[1, 0], [1]], [[1, 0, 0, 0]] * 3 + [[1, 0, 0]]],
                         ids=["ragged", "short-last-row"])
def test_parse_noise_names_the_row_rule(tmp_path, star3, matrix):
    """A ragged full matrix is rejected by the rule it breaks, not by
    numpy's shape message."""
    p = tmp_path / "noise.json"
    p.write_text(json.dumps({"type": "full", "matrix": matrix}))
    with pytest.raises(qg.QGraphValidationError,
                       match=r"^malformed full noise data: every row of the matrix "
                             r"must hold 4 entries$"):
        parse_noise(str(p), star3)


def test_parse_noise_shorthand(star3):
    nm = parse_noise("diag:v1=1,v2=0.5", star3)
    assert nm.is_diagonal
    np.testing.assert_array_equal(np.diag(nm.q), [0.0, 1.0, 0.5, 0.0])


def test_parse_noise_json_diagonal(tmp_path, star3):
    spec = {"type": "diagonal", "q": {"v1": 1.0, "v3": 2.0}}
    p = tmp_path / "noise.json"
    p.write_text(json.dumps(spec))
    nm = parse_noise(str(p), star3)
    np.testing.assert_allclose(np.diag(nm.q), [0.0, 1.0, 0.0, 2.0])


def test_parse_noise_json_full(tmp_path, star3):
    spec = {"type": "full", "matrix": np.eye(4).tolist()}
    p = tmp_path / "noise.json"
    p.write_text(json.dumps(spec))
    nm = parse_noise(str(p), star3)
    np.testing.assert_allclose(nm.q, np.eye(4))


def test_parse_noise_full_not_psd(tmp_path):
    g = qg.interval_graph()
    spec = {"type": "full", "matrix": [[1.0, -2.0], [-2.0, 1.0]]}
    p = tmp_path / "noise.json"
    p.write_text(json.dumps(spec))
    with pytest.raises(qg.QGraphValidationError, match="noise matrix has negative eigenvalue -1"):
        parse_noise(str(p), g)


def test_sqrt_matches_scipy_on_random_psd(star3, rng):
    a = rng.standard_normal((4, 4))
    q = a @ a.T
    nm = NoiseModel.from_matrix(star3, q)
    np.testing.assert_allclose(nm.q_sqrt @ nm.q_sqrt, q, atol=1e-10)
    w = np.linalg.eigvalsh(nm.q_sqrt)
    np.testing.assert_allclose(np.sort(w**2), np.sort(np.linalg.eigvalsh(q)), atol=1e-10)


@pytest.fixture(scope="module")
def star_eig():
    return qg.solve_spectrum(qg.star_graph([1.0, 1.0, 1.0]), 64, 8)


@pytest.mark.parametrize("call", [
    lambda eig, nm: qg.simulate(eig, nm, [1.0], 1.0, 10, 10),
    lambda eig, nm: qg.solve_null_control(eig, nm, [1.0], 1.0),
    lambda eig, nm: qg.regularity_profile(eig, nm, 1.0, [0.0]),
    lambda eig, nm: qg.invariant_measure_check(eig, nm),
    lambda eig, nm: qg.hautus_obstruction(eig, nm),
    lambda eig, nm: qg.rational_star_scan(eig.graph, nm),
    lambda eig, nm: qg.sufficient_tree_rule(eig.graph, nm),
], ids=["simulate", "control", "regularity", "invariant", "hautus", "rational-star", "tree-rule"])
def test_noise_for_another_graph_is_rejected(star_eig, call):
    """A noise model of a path with as many vertices as the star has the
    right shape but other vertex names: every consumer refuses it."""
    other = NoiseModel.from_diagonal(qg.path_graph([1.0, 1.0, 1.0]), {"v0": 1.0})
    with pytest.raises(qg.InvalidGraphError, match="different vertex"):
        call(star_eig, other)
