"""Fuzzed command lines through `main()`: every run ends in exit code 0, 2
or 3 without an exception, and whatever it writes is finite."""
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import qgraph as qg
from qgraph.cli import main

EDGE_CASES = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300,
                              1e307, 5e307])
TEMPLATES = {
    "interval": qg.interval_graph(),
    "path": qg.path_graph([0.5, 1.0]),
    "star": qg.star_graph([1.0, 1.0, 1.0]),
    "lasso": qg.lasso_graph(1.0, 0.8),
}
# each run makes at most two of these inputs odd, so most runs get past validation
FIELDS = ("length", "c", "p", "noise", "mesh", "modes", "horizon", "alphas", "z0")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _floats(values) -> str:
    return ",".join(repr(x) for x in values)


def _entries(draw, pairs, repeat) -> str:
    """KEY=VALUE items with distinct keys; when repeat draws True, the first
    item is given twice."""
    items = draw(st.lists(pairs, max_size=3, unique_by=lambda kv: kv[0]))
    if items and draw(repeat):
        items.append(items[0])
    return ",".join(f"{k}={x!r}" for k, x in items)


@st.composite
def runs(draw):
    """(graph dict, noise spec or JSON payload, argv without paths)."""
    odd = draw(st.sets(st.sampled_from(FIELDS), max_size=2))

    def pick(field, usual, unusual):
        return unusual if field in odd else usual

    graph = qg.graph_to_dict(TEMPLATES[draw(st.sampled_from(sorted(TEMPLATES)))])
    edge = draw(st.sampled_from(graph["edges"]))
    for key in ("length", "c", "p"):
        unusual = st.one_of(EDGE_CASES, st.floats(1e-3, 1e3), st.booleans(),
                            st.sampled_from(["1.0", "0", "nan"]))
        edge[key] = draw(pick(key, st.just(edge[key]), unusual))

    vertices = graph["vertices"]
    if draw(st.booleans()):
        names = pick("noise", st.sampled_from(vertices), st.sampled_from(vertices + ["v9"]))
        values = pick("noise", st.floats(0.0, 10.0), EDGE_CASES)
        noise = "diag:" + _entries(draw, st.tuples(names, values),
                                   pick("noise", st.just(False), st.booleans()))
    else:
        n = len(vertices)
        size = draw(pick("noise", st.just(n), st.sampled_from([n - 1, n + 1])))
        matrix = [[0.0] * size for _ in range(size)]
        for i in range(size):
            matrix[i][i] = draw(st.floats(0.0, 10.0))
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        matrix[i][j] = draw(pick("noise", st.just(matrix[i][j]), EDGE_CASES))
        noise = {"type": "full", "matrix": matrix}

    command = draw(st.sampled_from(["spectrum", "feller", "control", "invariant", "simulate"]))
    argv = [command,
            "--mesh", draw(pick("mesh", st.integers(6, 12).map(str),
                                st.sampled_from(["-1", "0", "1", "many"]))),
            "--modes", draw(pick("modes", st.integers(3, 6).map(str),
                                 st.sampled_from(["-1", "0", "40", "1.5"])))]
    horizon = draw(pick("horizon", st.floats(0.1, 10.0), EDGE_CASES))
    if command in ("control", "simulate"):
        argv += ["--horizon", repr(horizon)]
        pairs = st.tuples(pick("z0", st.integers(0, 2), st.integers(-1, 50)),
                          pick("z0", st.floats(-10.0, 10.0), EDGE_CASES))
        argv += ["--z0", _entries(draw, pairs, pick("z0", st.just(False), st.booleans()))]
    if command == "control":
        argv += ["--grid", "5"]
    if command == "invariant":
        argv += ["--horizons", _floats(draw(st.lists(st.just(horizon), min_size=1, max_size=2)))]
    if command == "simulate":
        alpha = pick("alphas", st.floats(-1.0, 1.0), st.one_of(EDGE_CASES, st.floats(-1e3, 1e3)))
        argv += ["--alphas", _floats(draw(st.lists(alpha, max_size=2))),
                 "--samples", "20", "--steps", "3"]
    return graph, noise, argv


def _reject(constant: str):
    raise AssertionError(f"JSON output holds {constant}")


def _check_finite(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=_reject)
    else:
        assert not NON_FINITE.search(text), f"{path.name} holds a non-finite value"


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(runs())
def test_fuzzed_runs_exit_cleanly_and_write_finite_output(run):
    graph, noise, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "graph.json").write_text(json.dumps(graph), encoding="utf-8")
        suffix = "json" if argv[0] in ("feller", "invariant") else "csv"
        argv = argv + ["--graph", str(d / "graph.json"), "--manifest", str(d / "run.json"),
                       "--out", str(d / f"out.{suffix}")]
        if argv[0] != "spectrum":
            if isinstance(noise, dict):
                (d / "noise.json").write_text(json.dumps(noise), encoding="utf-8")
                noise = str(d / "noise.json")
            argv += ["--noise", noise]
        if argv[0] == "simulate":
            argv += ["--summary-out", str(d / "summary.csv"),
                     "--profile-out", str(d / "profile.csv")]
        if argv[0] == "control":
            argv += ["--report", str(d / "report.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a malformed flag
                rc = exc.code
        assert rc in (0, 2, 3), argv
        assert "Traceback" not in err.getvalue()
        for path in d.iterdir():
            if path.name not in ("graph.json", "noise.json"):
                _check_finite(path)
