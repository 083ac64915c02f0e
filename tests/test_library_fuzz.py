"""Malformed arguments at the public library entry points: whatever the
input, the only exceptions that escape are the package's own (QGraphError),
and an OSError for a file that is not there.  Arguments of the wrong Python
type (a string where an eigensystem is expected) are out of scope."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgraph as qg

EDGE_CASES = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 1e307]
# counts that are negative, too small, not integers, or too large for numpy to index
BAD_COUNTS = [-1, 0, 1, 2.5, 3.0, np.float64(4.0), 2**61, 2**63 - 1, 2**64]
TEMPLATES = {
    "interval": qg.interval_graph(),
    "path": qg.path_graph([0.5, 1.0]),
    "star": qg.star_graph([1.0, 1.0, 1.0]),
    "lasso": qg.lasso_graph(1.0, 0.8),
}
BUILDERS = {
    "interval": lambda lengths, c, p: qg.interval_graph(*lengths[:1], c=c, p=p),
    "path": qg.path_graph,
    "star": qg.star_graph,
    "lasso": lambda lengths, c, p: qg.lasso_graph(*lengths[:2], c=c, p=p),
}
EIGS = {name: qg.solve_spectrum(graph, 8, 6) for name, graph in TEMPLATES.items()}
NOISES = {name: qg.NoiseModel.from_diagonal(graph, {graph.vertices[-1]: 1.0})
          for name, graph in TEMPLATES.items()}
GRAPH = ("lengths", "c", "p")
# each entry point and the arguments it reads, any two of which a call may get wrong
ENTRY_POINTS = {
    "build": GRAPH,
    "assemble": GRAPH + ("mesh",),
    "solve_spectrum": GRAPH + ("mesh", "modes"),
    "decide_feller": GRAPH + ("mesh", "modes", "noise", "q"),
    "simulate": ("num_modes", "horizon", "z0", "steps", "samples", "seed", "keep", "noise"),
    "regularity_profile": ("num_modes", "horizon", "alphas", "noise"),
    "invariant_measure_check": ("num_modes", "horizon", "noise"),
    "solve_null_control": ("num_modes", "horizon", "z0", "grid", "noise"),
    "from_diagonal": ("q",),
    "from_matrix": ("matrix",),
    "parse_noise": ("q",),
    "trace_matrix": ("index",),
    "edge_values": ("index",),
}


def _coefficient(value):
    """A drawn coefficient: a number, a per-edge list, or (kind, samples)."""
    if isinstance(value, tuple):
        kind, samples = value
        return (qg.Coefficient.linear_samples if kind == "linear"
                else qg.Coefficient.cell_samples)(samples)
    return value


@st.composite
def calls(draw):
    """The arguments of one public call, at most two of them malformed."""
    entry = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    odd = draw(st.sets(st.sampled_from(ENTRY_POINTS[entry]), max_size=2))

    def pick(field, usual, unusual):
        return draw(unusual if field in odd else usual)

    finite = st.floats(0.1, 10.0)
    edge = st.sampled_from(EDGE_CASES)
    count = st.sampled_from(BAD_COUNTS)
    name = draw(st.sampled_from(sorted(TEMPLATES)))
    graph = TEMPLATES[name]
    a = {"entry": entry, "graph": name}
    a["lengths"] = pick("lengths", st.lists(st.floats(0.5, 2.0), min_size=graph.m,
                                            max_size=graph.m),
                        st.lists(st.one_of(edge, st.floats(0.5, 2.0)), max_size=4))
    for key, usual, kind in (("c", 1.0, "linear"), ("p", 0.0, "cells")):
        a[key] = pick(key, st.just(usual), st.one_of(
            edge, st.just([usual] * (graph.m + 1)),
            st.tuples(st.just(kind), st.lists(st.one_of(edge, finite), max_size=3))))
    a["mesh"] = pick("mesh", st.integers(4, 10), count)
    a["modes"] = pick("modes", st.integers(2, 5), st.sampled_from(BAD_COUNTS + [10**6]))
    a["num_modes"] = pick("num_modes", st.sampled_from([None, 2, 6]), count)
    a["horizon"] = pick("horizon", finite, edge)
    a["z0"] = pick("z0", st.lists(st.floats(-10.0, 10.0), max_size=3),
                   st.one_of(st.lists(edge, min_size=1, max_size=3), st.just([1.0] * 10)))
    a["alphas"] = pick("alphas", st.lists(st.floats(-1.0, 1.0), max_size=2),
                       st.lists(st.one_of(edge, st.floats(-1e3, 1e3)), min_size=1, max_size=2))
    a["steps"] = pick("steps", st.integers(1, 4), count)
    a["samples"] = pick("samples", st.integers(1, 20),
                        st.sampled_from([-1, 0, 2.5, np.float64(4.0)]))
    a["seed"] = pick("seed", st.integers(0, 3), st.sampled_from([-1, -(2**70), 1.5]))
    a["keep"] = pick("keep", st.sampled_from([None, 0, 3]), st.sampled_from([-1, 2.5]))
    a["grid"] = pick("grid", st.integers(2, 9), count)
    a["index"] = pick("index", st.integers(0, 2), st.sampled_from([-1, 99, 1.5, 2**64]))
    # noise on another graph, whose vertices differ from this one's
    a["noise"] = pick("noise", st.just(name),
                      st.sampled_from(["path", "star"] if name != "path" else ["star"]))
    vertex = pick("q", st.sampled_from(graph.vertices), st.sampled_from(["v9", "vc", "v0"]))
    a["q"] = {vertex: pick("q", st.floats(0.0, 10.0), edge)}
    n = graph.n
    size = pick("matrix", st.just(n), st.sampled_from([n - 1, n + 1]))
    matrix = np.eye(size).tolist()
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    matrix[i][j] = pick("matrix", st.just(matrix[i][j]), edge)
    a["matrix"] = matrix
    return a


def _call(a):
    """Make the call a describes; the graph builders run inside it too."""
    name, entry = a["graph"], a["entry"]
    eig, noise = EIGS[name], NOISES[a["noise"]]

    def build():
        return BUILDERS[name](a["lengths"], _coefficient(a["c"]), _coefficient(a["p"]))

    if entry == "build":
        build()
    elif entry == "assemble":
        qg.assemble(build(), a["mesh"])
    elif entry == "solve_spectrum":
        qg.solve_spectrum(build(), a["mesh"], a["modes"])
    elif entry == "decide_feller":
        graph = build()
        noise = noise if a["noise"] != name else qg.NoiseModel.from_diagonal(graph, a["q"])
        qg.decide_feller(graph, noise, elements_per_edge=a["mesh"], num_modes=a["modes"])
    elif entry == "simulate":
        qg.simulate(eig, noise, a["z0"], a["horizon"], a["steps"], a["samples"], seed=a["seed"],
                    num_modes=a["num_modes"], keep_paths=a["keep"])
    elif entry == "regularity_profile":
        qg.regularity_profile(eig, noise, a["horizon"], a["alphas"], num_modes=a["num_modes"])
    elif entry == "invariant_measure_check":
        qg.invariant_measure_check(eig, noise, horizons=[1.0, a["horizon"]],
                                   num_modes=a["num_modes"])
    elif entry == "solve_null_control":
        qg.solve_null_control(eig, noise, a["z0"], a["horizon"], num_modes=a["num_modes"],
                              grid_points=a["grid"])
    elif entry == "from_diagonal":
        qg.NoiseModel.from_diagonal(TEMPLATES[name], a["q"])
    elif entry == "from_matrix":
        qg.NoiseModel.from_matrix(TEMPLATES[name], a["matrix"])
    elif entry == "parse_noise":
        spec = "diag:" + ",".join(f"{v}={x!r}" for v, x in a["q"].items())
        qg.parse_noise(spec, TEMPLATES[name])
    elif entry == "trace_matrix":
        eig.trace_matrix(a["index"])
    else:
        eig.edge_values(a["index"])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(calls())
def test_only_package_errors_escape(a):
    try:
        _call(a)
    except qg.QGraphError:
        pass


STAR = TEMPLATES["star"]
STAR_EIG, STAR_NOISE = EIGS["star"], NOISES["star"]
PROBES = {
    "solve_spectrum mesh 1": lambda: qg.solve_spectrum(STAR, 1, 3),
    "solve_spectrum mesh 2.5": lambda: qg.solve_spectrum(STAR, 2.5, 3),
    "solve_spectrum modes 0": lambda: qg.solve_spectrum(STAR, 8, 0),
    "solve_spectrum modes 10**6": lambda: qg.solve_spectrum(STAR, 8, 10**6),
    "assemble mesh 2**63 - 1": lambda: qg.assemble(STAR, 2**63 - 1),
    "decide_feller mesh 0": lambda: qg.decide_feller(STAR, STAR_NOISE, elements_per_edge=0),
    "simulate samples 0": lambda: qg.simulate(STAR_EIG, STAR_NOISE, [], 1.0, 3, 0),
    "simulate steps 0": lambda: qg.simulate(STAR_EIG, STAR_NOISE, [], 1.0, 0, 4),
    "simulate seed -1": lambda: qg.simulate(STAR_EIG, STAR_NOISE, [], 1.0, 3, 4, seed=-1),
    "solve_null_control horizon nan":
        lambda: qg.solve_null_control(STAR_EIG, STAR_NOISE, [1.0], math.nan),
    "solve_null_control horizon -1":
        lambda: qg.solve_null_control(STAR_EIG, STAR_NOISE, [1.0], -1.0),
    "solve_null_control z0 nan":
        lambda: qg.solve_null_control(STAR_EIG, STAR_NOISE, [math.nan], 1.0),
    "solve_null_control grid 1":
        lambda: qg.solve_null_control(STAR_EIG, STAR_NOISE, [1.0], 1.0, grid_points=1),
    "regularity_profile alpha nan":
        lambda: qg.regularity_profile(STAR_EIG, STAR_NOISE, 1.0, [math.nan]),
    "invariant_measure_check horizon -1":
        lambda: qg.invariant_measure_check(STAR_EIG, STAR_NOISE, horizons=[-1.0]),
    "trace_matrix 1.5": lambda: STAR_EIG.trace_matrix(1.5),
    "edge_values -1": lambda: STAR_EIG.edge_values(-1),
    "star_graph c of wrong length": lambda: qg.star_graph([1.0, 1.0], c=[1.0]),
    "linear_samples of one node": lambda: qg.Coefficient.linear_samples([1.0]),
    "parse_noise diag:v1": lambda: qg.parse_noise("diag:v1", STAR),
    "from_matrix 3x3 on 4 vertices": lambda: qg.NoiseModel.from_matrix(STAR, np.eye(3)),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_malformed_probes_raise_the_validation_family(probe):
    with pytest.raises(qg.QGraphValidationError):
        probe()


def test_missing_file_stays_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        qg.load_graph(tmp_path / "missing.json")
    with pytest.raises(FileNotFoundError):
        qg.parse_noise(str(tmp_path / "missing.json"), STAR)
