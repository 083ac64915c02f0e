import json

import numpy as np
import pytest

import qgraph as qg
from qgraph.cli import _parse_z0, main


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def interval_file(workdir):
    path = workdir / "interval.json"
    qg.save_graph(qg.interval_graph(), path)
    return str(path)


@pytest.fixture()
def star_file(workdir):
    path = workdir / "star.json"
    qg.save_graph(qg.star_graph([1.0, 1.0, 1.0]), path)
    return str(path)


def test_parse_z0_forms():
    assert _parse_z0("0=1.0,3=-0.5", 4) == [1.0, 0.0, 0.0, -0.5]
    assert _parse_z0("2=0.25", 4) == [0.0, 0.0, 0.25]
    assert _parse_z0("", 4) == []
    with pytest.raises(ValueError):
        _parse_z0("1.0", 4)
    with pytest.raises(ValueError):
        _parse_z0("-1=2.0", 4)
    with pytest.raises(ValueError, match=r"z0 mode index must lie in \[0, 3\], got 4"):
        _parse_z0("4=1.0", 4)


def test_spectrum_command(workdir, star_file, capsys):
    out = workdir / "spectrum.csv"
    mode_out = workdir / "mode3.csv"
    rc = main([
        "spectrum", "--graph", star_file, "--mesh", "64", "--modes", "8",
        "--out", str(out), "--mode-out", f"3:{mode_out}",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "modes: 8" in text and "lambda_0" in text
    header = out.read_text().splitlines()[0]
    assert header == "k,lambda,cluster_id,trusted,trace_vc,trace_v1,trace_v2,trace_v3"
    assert mode_out.read_text().splitlines()[0] == "edge,x,value"
    manifest = json.loads((workdir / "spectrum.csv.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert len(manifest["tolerances"]) == 16
    assert manifest["tolerances"]["rational_max_order"] == 64
    assert set(manifest["versions"]) == {"qgraph", "numpy", "scipy", "python"}
    assert manifest["config"]["mesh"] == 64


def test_feller_command_verdicts(workdir, star_file, capsys):
    out = workdir / "verdict.json"
    rc = main([
        "feller", "--graph", star_file, "--noise", "diag:v1=1",
        "--mesh", "48", "--modes", "8", "--out", str(out),
    ])
    assert rc == 0
    assert "verdict: NotStrongFeller" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "NotStrongFeller"
    assert payload["rule"] == "hautus"
    assert "witness" in payload

    rc = main(["feller", "--graph", star_file, "--noise", "diag:v1=1,v2=1",
               "--mesh", "48", "--modes", "8"])
    assert rc == 0
    assert "verdict: StrongFeller" in capsys.readouterr().out

    # the 3:1 pendant pair of a [3, 1, 1] star: the witness names its edges and mode orders
    qg.save_graph(qg.star_graph([3.0, 1.0, 1.0]), workdir / "star311.json")
    rc = main(["feller", "--graph", "star311.json", "--noise", "diag:v3=1",
               "--mesh", "48", "--modes", "8", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rule"] == "rational-star"
    assert payload["witness"]["edge_pair"] == ["e1", "e2"]
    assert payload["witness"]["mode_orders"] == [1, 0]


def test_control_command(workdir, interval_file, capsys):
    out = workdir / "control.csv"
    report = workdir / "control.json"
    rc = main([
        "control", "--graph", interval_file, "--noise", "diag:v1=1",
        "--z0", "1=1.0,2=0.5", "--mesh", "64", "--modes", "10",
        "--horizon", "1.0", "--grid", "101",
        "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "control L2 norm:" in text
    assert out.read_text().splitlines()[0] == "t,u_v0,u_v1"
    payload = json.loads(report.read_text())
    assert payload["diagnostics"]["residual_norm"] <= 1e-8
    assert payload["uncontrolled_norm"] > 0


def test_st_active_command(workdir, star_file, capsys):
    out = workdir / "paths.json"
    rc = main(["st-active", "--graph", star_file, "--omit", "v1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sources:" in text and "active boundary set:" in text
    payload = json.loads(out.read_text())
    assert payload["i_star"] == sorted(["v2", "v3"])
    assert payload["j_star"] == []
    assert payload["violations"] == []
    assert "numerics" not in json.loads((workdir / "paths.json.manifest.json").read_text())


@pytest.mark.parametrize("path,argv", [
    ("sliced", ["spectrum"]), ("sliced", ["control", "--noise", "diag:v1=1", "--z0", "1=1"]),
    ("sliced", ["invariant", "--noise", "diag:v1=1"]), ("lanczos", ["spectrum"]),
    ("sliced", ["simulate", "--noise", "diag:v1=1", "--samples", "20", "--steps", "4"])])
def test_solving_manifests_record_the_solve(workdir, capsys, path, argv):
    """Each solving command's manifest says how its eigensolve went."""
    c = 1.0 if path == "sliced" else qg.Coefficient.linear_samples([1.0, 1.0])  # no closed form
    qg.save_graph(qg.star_graph([1.0] * 3, c=c), "star.json")
    assert main([*argv, "--graph", "star.json", "--mesh", "64", "--modes", "8",
                 "--manifest", "m.json"]) == 0
    manifest = json.loads((workdir / "m.json").read_text())
    numerics, limit = manifest["numerics"], manifest["tolerances"]["orthonormality"]
    assert (numerics["path"], numerics["total_dof"], numerics["h_max"]) == (path, 193, 1 / 64)
    assert numerics["residual_ratio"] <= 1.0 and numerics["orthonormality_defect"] <= limit


def test_invariant_command(workdir, interval_file, capsys):
    rc = main(["invariant", "--graph", interval_file, "--noise", "diag:v1=1",
               "--mesh", "64", "--modes", "8", "--horizons", "1,2,4"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "invariant measure exists: No" in text
    assert "unique: No\nrule: kernel-mode-noise" in text
    manifest = json.loads((workdir / "qgraph-invariant.manifest.json").read_text())
    assert manifest["exists"] is False and manifest["unique"] is False

    # a noise matrix with coupling is recorded whole
    matrix = [[1.0, 0.5], [0.5, 1.0]]
    (workdir / "noise_full.json").write_text(json.dumps({"type": "full", "matrix": matrix}))
    rc = main(["invariant", "--graph", interval_file, "--noise", "noise_full.json",
               "--mesh", "64", "--modes", "8"])
    assert rc == 0
    manifest = json.loads((workdir / "qgraph-invariant.manifest.json").read_text())
    assert manifest["noise"] == {"type": "full", "matrix": matrix}


def test_simulate_command_and_reproducibility(workdir, interval_file, capsys):
    summary_a = workdir / "a.csv"
    profile = workdir / "profile.csv"
    argv = [
        "simulate", "--graph", interval_file, "--noise", "diag:v1=1",
        "--mesh", "32", "--modes", "6", "--steps", "16", "--samples", "300",
        "--seed", "7", "--alphas", "0.0", "--profile-out", str(profile),
    ]
    rc = main(argv + ["--summary-out", str(summary_a)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sampled 300 paths of 6 modes (16 steps)" in text
    assert "covariance check over 17 grid times" in text
    assert "alpha=0" in text
    first = summary_a.read_bytes()
    rc = main(argv + ["--summary-out", str(summary_a)])
    assert rc == 0
    capsys.readouterr()
    assert summary_a.read_bytes() == first
    assert profile.read_text().splitlines()[0] == "alpha,K',partial_sum,slope"
    manifest = json.loads((workdir / "qgraph-simulate.manifest.json").read_text())
    assert "backend" not in manifest
    assert "cholesky_jitter" not in manifest
    assert manifest["innovation_rank"] == 6  # dt = 1/16 resolves all six directions
    assert 0.0 <= manifest["innovation_dropped"] <= manifest["tolerances"]["innovation_drop"]
    assert manifest["rng"] == (
        "block j of 1024 samples: SeedSequence(seed, spawn_key=(j,)) + PCG64, "
        "one standard_normal((samples, innovation_rank)) per step"
    )


def test_simulate_keeps_only_the_csv_paths(workdir, interval_file, capsys, monkeypatch):
    kept = []

    def spy(*args, **kwargs):
        ens = qg.simulate(*args, **kwargs)
        kept.append(len(ens.coeffs))
        return ens

    monkeypatch.setattr("qgraph.cli.simulate", spy)
    argv = ["simulate", "--graph", interval_file, "--noise", "diag:v1=1", "--mesh", "8",
            "--modes", "2", "--steps", "3", "--samples", "40", "--alphas", ""]
    assert main(argv + ["--summary-out", "summary.csv"]) == 0
    assert main(argv + ["--out", "paths.csv", "--csv-samples", "3"]) == 0
    capsys.readouterr()
    assert kept == [0, 3]
    rows = (workdir / "paths.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 4 * 2
    assert {row.split(",")[0] for row in rows[1:]} == {"0", "1", "2"}
    manifest = json.loads((workdir / "paths.csv.manifest.json").read_text())
    assert manifest["covariance_check"]["num_samples"] == 40


def test_simulate_reproducible_on_ten_edge_star(workdir, capsys):
    """Equal seeds give equal bytes on a 9-fold degenerate spectrum (dof 2561)."""
    star10 = workdir / "star10.json"
    qg.save_graph(qg.star_graph([1.0] * 10), star10)
    argv = [
        "simulate", "--graph", str(star10), "--noise", "diag:v1=1,v2=0.5",
        "--mesh", "256", "--modes", "30", "--steps", "8", "--samples", "300",
        "--seed", "11", "--alphas", "",
    ]
    assert main(argv + ["--summary-out", "a.csv"]) == 0
    assert main(argv + ["--summary-out", "b.csv"]) == 0
    capsys.readouterr()
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


@pytest.mark.parametrize("flag,value", [("--horizon", "nan"), ("--horizon", "inf"),
                                        ("--z0", "0=nan")])
def test_simulate_rejects_non_finite_input(workdir, interval_file, capsys, flag, value):
    rc = main([
        "simulate", "--graph", interval_file, "--noise", "diag:v1=1",
        "--mesh", "16", "--modes", "4", "--steps", "4", "--samples", "10",
        flag, value,
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (workdir / "qgraph-simulate.manifest.json").exists()


@pytest.fixture()
def malformed_files(workdir):
    inf_length = qg.graph_to_dict(qg.interval_graph())
    inf_length["edges"][0]["length"] = float("inf")
    nan_coefficient = qg.graph_to_dict(qg.interval_graph())
    nan_coefficient["edges"][0]["c"] = {"samples": [1.0, float("nan"), 1.0]}
    other_grid = qg.graph_to_dict(qg.interval_graph())
    other_grid["edges"][0]["c"] = {"samples": [1.0, 2.0], "grid": "other"}
    overflowing = qg.graph_to_dict(qg.interval_graph(length=1e300, p=1e300))
    # numeric fields must be JSON numbers: not booleans, not strings
    not_numbers = {}
    for name, key, value in [("bool_length", "length", True), ("string_length", "length", "1.0"),
                             ("bool_c", "c", True), ("string_p", "p", "0"),
                             ("string_sample", "c", {"samples": [1.0, "2", 1.0]}),
                             ("huge_int_length", "length", 10**400)]:
        not_numbers[f"{name}.json"] = qg.graph_to_dict(qg.interval_graph())
        not_numbers[f"{name}.json"]["edges"][0][key] = value
    payloads = {
        **not_numbers,
        "inf_length.json": inf_length,
        "overflowing.json": overflowing,
        "nan_coefficient.json": nan_coefficient,
        "other_grid.json": other_grid,
        "noise_without_q.json": {"type": "diagonal"},
        "noise_list.json": [1.0, 0.0],
        "noise_nan_matrix.json": {"type": "full", "matrix": [[float("nan"), 0.0], [0.0, 1.0]]},
        "noise_bool_q.json": {"type": "diagonal", "q": {"v1": True}},
        "noise_bool_matrix.json": {"type": "full", "matrix": [[True, 0.0], [0.0, 1.0]]},
        "noise_string_matrix.json": {"type": "full", "matrix": [["1", 0.0], [0.0, 1.0]]},
        # a key the format does not define is an error, not ignored
        "noise_extra_key.json": {"type": "diagonal", "q": {"v1": 1.0}, "matrix": [[1.0]]},
        "noise_full_with_q.json": {"type": "full", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                   "q": {"v1": 1.0}},
        # q must be a JSON object, matrix a JSON array of arrays
        "noise_list_q.json": {"type": "diagonal", "q": []},
        "noise_object_matrix.json": {"type": "full", "matrix": {"a": 1}},
        "noise_flat_matrix.json": {"type": "full", "matrix": [1, 2]},
    }
    # arrays must be JSON arrays, edges JSON objects, and every key one the format
    # defines; a string or an object of vertices would iterate as the names a and b
    ab = {"vertices": ["a", "b"], "edges": [{"id": "e1", "tail": "a", "head": "b", "length": 1}]}
    for name, key, value in [("string_vertices", "vertices", "ab"),
                             ("object_vertices", "vertices", {"a": 1, "b": 2}),
                             ("object_edges", "edges", {"e1": ab["edges"][0]}),
                             ("string_edge", "edges", ["e1"]),
                             ("top_level_key", "name", "ab")]:
        payloads[f"{name}.json"] = {**ab, key: value}
    # "potential" written for the edge key "p", "grids" for the coefficient key "grid"
    potential_key, coefficient_key = (qg.graph_to_dict(qg.interval_graph()) for _ in range(2))
    potential_key["edges"][0]["potential"] = potential_key["edges"][0].pop("p")
    coefficient_key["edges"][0]["c"] = {"samples": [1.0, 2.0], "grids": "uniform"}
    payloads.update({"potential_key.json": potential_key, "coefficient_key.json": coefficient_key})
    # ids must be JSON strings: a number, a boolean or null is not coerced
    for name, index, value in [("int_vertex", 1, 1), ("bool_vertex", 1, True),
                               ("null_edge_id", None, None)]:
        data = qg.graph_to_dict(qg.interval_graph())
        if index is None:
            data["edges"][0]["id"] = value
        else:
            data["vertices"][index] = data["edges"][0]["head"] = value
        payloads[f"{name}.json"] = data
    for name, payload in payloads.items():
        (workdir / name).write_text(json.dumps(payload))
    # a key given twice, which json alone would resolve to its last value
    (workdir / "repeated_length.json").write_text(
        '{"vertices": ["v0", "v1"], "edges": [{"id": "e1", "tail": "v0", "head": "v1", '
        '"length": 1.0, "length": 2.0}]}'
    )
    (workdir / "noise_repeated_q.json").write_text(
        '{"type": "diagonal", "q": {"v1": 1.0, "v1": 0.0}}'
    )
    # files that are not JSON, not UTF-8, or nested deeper than json can decode
    for prefix in ("", "noise_"):
        (workdir / f"{prefix}not_json.json").write_text("{not json")
        (workdir / f"{prefix}latin1.json").write_bytes('{"vertices": ["\xe9"]}'.encode("latin-1"))
        (workdir / f"{prefix}deep.json").write_text("[" * 100000 + "]" * 100000)


EXACT_STDERR = {
    "other_grid.json": "invalid graph: unsupported coefficient grid 'other'",
    "noise_list_q.json": "malformed diagonal noise data: q must be a JSON object, got []",
    "noise_object_matrix.json":
        "malformed full noise data: matrix must be a JSON array of arrays, got {'a': 1}",
    "noise_flat_matrix.json":
        "malformed full noise data: matrix must be a JSON array of arrays, got [1, 2]",
    "not_json.json": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "noise_not_json.json":
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "latin1.json": "'utf-8' codec can't decode byte 0xe9 in position 15: invalid continuation byte",
    "noise_latin1.json":
        "'utf-8' codec can't decode byte 0xe9 in position 15: invalid continuation byte",
}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--graph", "inf_length.json"],
    ["spectrum", "--graph", "nan_coefficient.json"],
    # finite input whose stiffness, squared norm or covariance overflows
    ["spectrum", "--graph", "overflowing.json"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "0=1e300"],
    ["invariant", "--graph", "interval.json", "--noise", "diag:v1=1e300", "--horizons", "1e300"],
    ["invariant", "--graph", "interval.json", "--noise", "diag:v1=1", "--horizons", "nan"],
    ["invariant", "--graph", "interval.json", "--noise", "diag:v1=1", "--horizons", "1,inf"],
    ["invariant", "--graph", "interval.json", "--noise", "diag:v1=nan"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_without_q.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_list.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_nan_matrix.json"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "1=1",
     "--horizon", "nan"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "0=nan"],
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=1", "--alphas", "nan",
     "--samples", "10", "--steps", "4"],
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=1", "--alphas", "1e300",
     "--samples", "10", "--steps", "4"],
    ["spectrum", "--graph", "interval.json", "--mode-out", "4:m.csv"],
    ["spectrum", "--graph", "interval.json", "--mode-out=-1:m.csv"],
    # finite input whose variance partial sums or sampled moments overflow
    ["invariant", "--graph", "interval.json", "--noise", "diag:v1=5e307", "--mesh", "16",
     "--modes", "8", "--horizons", "3.5", "--out", "inv.json"],
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=5e307", "--mesh", "16",
     "--modes", "8", "--horizon", "3.5", "--alphas", "0", "--profile-out", "prof.csv",
     "--samples", "50", "--steps", "4"],
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=5e307", "--mesh", "16",
     "--modes", "8", "--horizon", "3.5", "--alphas", "", "--summary-out", "summary.csv",
     "--samples", "50", "--steps", "4"],
    # repeated entries
    ["invariant", "--graph", "interval.json", "--noise", "diag:v1=1,v1=0,v0=1"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "1=1,1=2"],
    # numeric fields that are not JSON numbers
    ["spectrum", "--graph", "bool_length.json"],
    ["spectrum", "--graph", "string_length.json"],
    ["spectrum", "--graph", "bool_c.json"],
    ["spectrum", "--graph", "string_p.json"],
    ["spectrum", "--graph", "string_sample.json"],
    ["spectrum", "--graph", "huge_int_length.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_bool_q.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_bool_matrix.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_string_matrix.json"],
    # ids that are not JSON strings, and repeated keys
    ["spectrum", "--graph", "int_vertex.json"],
    ["spectrum", "--graph", "bool_vertex.json"],
    ["spectrum", "--graph", "null_edge_id.json"],
    ["spectrum", "--graph", "repeated_length.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_repeated_q.json"],
    # arrays that are not arrays, and keys the formats do not define
    *(pytest.param(["spectrum", "--graph", f"{name}.json"], id=name)
      for name in ("string_vertices", "object_vertices", "object_edges", "string_edge",
                   "top_level_key", "potential_key", "coefficient_key")),
    ["invariant", "--graph", "interval.json", "--noise", "noise_extra_key.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_full_with_q.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_list_q.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_object_matrix.json"],
    ["invariant", "--graph", "interval.json", "--noise", "noise_flat_matrix.json"],
    # a mesh or mode count no solve could take, also where the tree rule
    # answers without a solve
    ["feller", "--graph", "interval.json", "--noise", "diag:v1=1", "--mesh", "1"],
    ["feller", "--graph", "interval.json", "--noise", "diag:v1=1", "--modes", "0"],
    # a coefficient profile on a grid other than the uniform one
    pytest.param(["spectrum", "--graph", "other_grid.json"], id="other-grid"),
    # requests too large to allocate: each fails at its first allocation
    ["spectrum", "--graph", "interval.json", "--mesh", "100000000000"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "1=1",
     "--grid", "1000000000000"],
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=1", "--steps", "1000000000000",
     "--samples", "2"],
    # counts whose arrays numpy cannot index: rejected before any allocation
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=1",
     "--steps", "9223372036854775806"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "1=1",
     "--grid", "9223372036854775807"],
    ["spectrum", "--graph", "interval.json", "--mesh", "9223372036854775807"],
    ["simulate", "--graph", "interval.json", "--noise", "diag:v1=1",
     "--steps", "10000000000000000000"],
    ["control", "--graph", "interval.json", "--noise", "diag:v1=1",
     "--modes", "100000000000000000000", "--z0", "99999999999999999999=1"],
    # files that are not UTF-8 JSON, as a graph and as noise
    *(pytest.param(["spectrum", "--graph", f"{name}.json"], id=name)
      for name in ("not_json", "latin1", "deep")),
    *(pytest.param(["invariant", "--graph", "interval.json", "--noise", f"noise_{name}.json"],
                   id=f"noise_{name}") for name in ("not_json", "latin1", "deep")),
], ids=lambda argv: " ".join(argv[3:]))
def test_non_finite_or_malformed_input_exits_2(workdir, interval_file, malformed_files,
                                               capsys, argv):
    before = set(workdir.iterdir())
    # defaults first, so that a mesh or mode count in argv wins
    rc = main(argv[:1] + ["--mesh", "16", "--modes", "4"] + argv[1:])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # rejected before any work is reported or written
    assert out == "" and set(workdir.iterdir()) == before
    # the message reaches stderr as raised, not wrapped in a second one, and
    # names the broken rule, not an exception repr
    for name, message in EXACT_STDERR.items():
        if name in argv:
            assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["control", "--noise", "diag:v1=1", "--z0", "1:1"],
    ["simulate", "--noise", "diag:v1=1", "--z0", "x=1"],
    ["simulate", "--noise", "diag:v1=1", "--alphas", "0,a"],
    ["invariant", "--noise", "diag:v1=1", "--horizons", "1,T"],
    ["control", "--noise", "diag:v1=1", "--z0", "1000000000000=1"],
    ["spectrum", "--modes", "4", "--mode-out", "3"],
    ["spectrum", "--modes", "4", "--mode-out", "x:m.csv"],
], ids=lambda argv: " ".join(argv[3:]))
def test_string_arguments_are_parsed_before_the_eigensolve(workdir, interval_file, capsys,
                                                           monkeypatch, argv):
    def no_solve(*args):
        raise AssertionError("eigensolve reached before the arguments were parsed")

    monkeypatch.setattr("qgraph.cli.solve_spectrum", no_solve)
    assert main(argv[:1] + ["--graph", interval_file] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_arpack_failure_exits_3(workdir, capsys):
    """A zero-length scale breaks ARPACK itself: a numerical failure, not a crash."""
    tiny = workdir / "tiny.json"
    qg.save_graph(qg.interval_graph(length=1e-300), tiny)
    rc = main(["spectrum", "--graph", str(tiny), "--mesh", "8", "--modes", "3"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # c = 1e300 on every edge: the shift-invert factorization is exactly singular
    ["spectrum", "--graph", "stiff_star.json", "--mesh", "8", "--modes", "4"],
    # an edge of length 1e300: the stiffness scale 3 c / h^2 underflows to zero
    ["spectrum", "--graph", "long_interval.json", "--mesh", "4", "--modes", "2"],
    # the scaled moment solve grows like 1/T and overflows (z0 on the simple
    # constant mode, which v1 sees whatever basis a multiple eigenvalue gets)
    ["control", "--graph", "star.json", "--noise", "diag:v1=1", "--z0", "0=1",
     "--horizon", "1e-320", "--mesh", "8", "--modes", "4", "--report", "report.json"],
], ids=["singular-factor", "stiffness-scale", "control-overflow"])
def test_numerical_failures_exit_3(workdir, star_file, capsys, argv):
    qg.save_graph(qg.star_graph([1.0, 1.0, 1.0], c=1e300), workdir / "stiff_star.json")
    qg.save_graph(qg.interval_graph(length=1e300), workdir / "long_interval.json")
    rc = main(argv)
    assert rc == 3
    out, err = capsys.readouterr()
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert out == "" and not (workdir / "report.json").exists()
    assert not list(workdir.glob("*.manifest.json"))


def test_indefinite_innovation_exits_3(workdir, interval_file, capsys, monkeypatch):
    """An innovation covariance the pivoted factor cannot reproduce is a
    numerical failure, reported in one line."""
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    monkeypatch.setattr("qgraph.sim._covariance", lambda lam, ch, t: indefinite)
    rc = main(["simulate", "--graph", interval_file, "--noise", "diag:v1=1", "--mesh", "8",
               "--modes", "2", "--steps", "3", "--samples", "4", "--alphas", ""])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "not positive semidefinite" in err


def test_undefined_statistics_are_written_as_null(workdir, interval_file, capsys):
    """Without noise the control Gram matrix keeps no direction, and two modes
    leave one tail increment: no condition number, no slope, and no Infinity."""
    assert main(["control", "--graph", interval_file, "--noise", "diag:", "--z0", "1=1",
                 "--mesh", "8", "--modes", "4", "--report", "report.json"]) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["diagnostics"]["condition"] is None
    assert main(["simulate", "--graph", interval_file, "--noise", "diag:v1=1", "--mesh", "8",
                 "--modes", "2", "--steps", "4", "--samples", "10", "--alphas", "0",
                 "--profile-out", "profile.csv", "--manifest", "sim.json"]) == 0
    capsys.readouterr()
    manifest = json.loads((workdir / "sim.json").read_text())
    assert manifest["profile"][0]["tail_slope"] is None
    rows = (workdir / "profile.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["", ""]


@pytest.mark.parametrize("exc, rc, prefix", [
    pytest.param(np.linalg.LinAlgError("Singular matrix"), 3, "numerical failure: ",
                 id="LinAlgError"),
    pytest.param(qg.QGraphNumericalError("no certificate"), 3, "numerical failure: ",
                 id="QGraphNumericalError"),
    pytest.param(qg.QGraphValidationError("bad request"), 2, "error: ",
                 id="QGraphValidationError"),
    pytest.param(qg.InvalidGraphError(["edge 'e1': nonpositive length", "disconnected"]), 2,
                 "error: ", id="InvalidGraphError"),
    # a ValueError outside the validation family is a fault of the program
    pytest.param(ValueError("bad value"), 3, "numerical failure: ", id="ValueError"),
    pytest.param(MemoryError("no room"), 2, "error: ", id="MemoryError"),
    pytest.param(FileNotFoundError("no such file"), 2, "error: ", id="OSError"),
])
def test_exception_family_exit_codes(workdir, interval_file, capsys, monkeypatch,
                                     exc, rc, prefix):
    """main maps each exception family to one exit code and one stderr line
    that carries the message as raised."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("qgraph.cli.solve_spectrum", fail)
    assert main(["spectrum", "--graph", interval_file, "--mesh", "8", "--modes", "2"]) == rc
    assert capsys.readouterr() == ("", f"{prefix}{exc}\n")
    assert not list(workdir.glob("*.manifest.json"))


def test_parser_is_built_once(workdir, interval_file, capsys, monkeypatch):
    def fail():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr("qgraph.cli.build_parser", fail)
    assert main(["spectrum", "--graph", interval_file, "--mesh", "8", "--modes", "2"]) == 0
    capsys.readouterr()


def test_runs_in_one_process_do_not_leak(workdir, interval_file, capsys):
    spectrum = ["spectrum", "--graph", interval_file, "--mesh", "8", "--modes", "2"]
    assert main(spectrum + ["--manifest", "fresh.json"]) == 0
    assert main(["simulate", "--graph", interval_file, "--noise", "diag:v1=1",
                 "--mesh", "8", "--modes", "2", "--steps", "4", "--samples", "10",
                 "--manifest", "sim.json"]) == 0
    assert main(spectrum + ["--manifest", "after.json"]) == 0
    capsys.readouterr()
    fresh, sim, after = (json.loads((workdir / name).read_text())
                         for name in ("fresh.json", "sim.json", "after.json"))
    assert after["config"].keys() == fresh["config"].keys()
    assert {k: v for k, v in after["config"].items() if k != "manifest"} == \
        {k: v for k, v in fresh["config"].items() if k != "manifest"}
    assert "noise" not in after and "noise" not in fresh
    assert sim["noise"] == {"type": "diagonal", "q": {"v1": 1.0}}
    assert "seed" in sim["config"] and "seed" not in after["config"]


def test_validation_exit_codes(workdir, interval_file, capsys):
    # st-active demands a tree
    lasso = workdir / "lasso.json"
    qg.save_graph(qg.lasso_graph(), lasso)
    assert main(["st-active", "--graph", str(lasso)]) == 2

    # malformed graph JSON
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--graph", str(bad), "--mesh", "8", "--modes", "2"]) == 2

    # noise naming a vertex the graph does not have
    assert main(["feller", "--graph", interval_file, "--noise", "diag:nowhere=1",
                 "--mesh", "16", "--modes", "4"]) == 2
    capsys.readouterr()


def test_numerical_exit_code(workdir, capsys):
    coarse = workdir / "coarse.json"
    qg.save_graph(qg.star_graph([1.0, 1.0, 1.0], p=1.0), coarse)
    rc = main(["invariant", "--graph", str(coarse), "--noise", "diag:v1=1",
               "--mesh", "2", "--modes", "4"])
    assert rc == 3
    assert "numerical" in capsys.readouterr().err.lower()


def test_manifest_explicit_path(workdir, interval_file):
    manifest = workdir / "my-manifest.json"
    rc = main(["spectrum", "--graph", interval_file, "--mesh", "16",
               "--modes", "4", "--manifest", str(manifest)])
    assert rc == 0
    payload = json.loads(manifest.read_text())
    assert payload["command"] == "spectrum"
    assert payload["config"]["graph"] == interval_file
    assert not (workdir / "qgraph-spectrum.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["feller", "--graph", "star.json", "--noise", "diag:v1=1", "--mesh", "32", "--modes", "12"],
    ["spectrum", "--graph", "star.json", "--mesh", "16", "--modes", "4"],
], ids=["feller-hautus", "spectrum"])
def test_graph_is_validated_once_per_run(workdir, star_file, monkeypatch, capsys, argv):
    import sys

    from qgraph import graphs

    validate = graphs.validate
    calls = []

    def counted(graph):
        calls.append(graph)
        return validate(graph)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qgraph" and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted)
    assert main(argv) == 0
    assert len(calls) == 1
    if argv[0] == "feller":
        assert "rule: hautus" in capsys.readouterr().out
