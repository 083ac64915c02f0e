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
    assert _parse_z0("0=1.0,3=-0.5") == [1.0, 0.0, 0.0, -0.5]
    assert _parse_z0("2=0.25") == [0.0, 0.0, 0.25]
    assert _parse_z0("") == []
    with pytest.raises(ValueError):
        _parse_z0("1.0")
    with pytest.raises(ValueError):
        _parse_z0("-1=2.0")


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
    assert len(manifest["tolerances"]) == 14
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


def test_invariant_command(workdir, interval_file, capsys):
    rc = main(["invariant", "--graph", interval_file, "--noise", "diag:v1=1",
               "--mesh", "64", "--modes", "8", "--horizons", "1,2,4"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "invariant measure exists: No" in text
    assert "rule: kernel-mode-noise" in text
    manifest = json.loads((workdir / "qgraph-invariant.manifest.json").read_text())
    assert manifest["exists"] is False


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
    assert manifest["cholesky_jitter"] == 0.0
    assert manifest["rng"] == (
        "block j of 1024 samples: SeedSequence(seed, spawn_key=(j,)) + PCG64, "
        "one standard_normal((samples, modes)) per step"
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
        "--seed", "11", "--alphas", "", "--no-verify",
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
    overflowing = qg.graph_to_dict(qg.interval_graph(length=1e300, p=1e300))
    payloads = {
        "inf_length.json": inf_length,
        "overflowing.json": overflowing,
        "nan_coefficient.json": nan_coefficient,
        "noise_without_q.json": {"type": "diagonal"},
        "noise_list.json": [1.0, 0.0],
        "noise_nan_matrix.json": {"type": "full", "matrix": [[float("nan"), 0.0], [0.0, 1.0]]},
    }
    for name, payload in payloads.items():
        (workdir / name).write_text(json.dumps(payload))


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
], ids=lambda argv: " ".join(argv[3:]))
def test_non_finite_or_malformed_input_exits_2(workdir, interval_file, malformed_files,
                                               capsys, argv):
    rc = main(argv + ["--mesh", "16", "--modes", "4"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err
    # rejected before any work is reported or written
    assert out == "" and not (workdir / "m.csv").exists()


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
    # the scaled moment solve grows like 1/T and overflows
    ["control", "--graph", "star.json", "--noise", "diag:v1=1", "--z0", "1=1",
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


def test_linalg_error_exits_3(workdir, interval_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("qgraph.cli.solve_spectrum", fail)
    rc = main(["spectrum", "--graph", interval_file, "--mesh", "8", "--modes", "2"])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"


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


def test_simulate_no_verify_skips_check(workdir, interval_file, capsys):
    rc = main([
        "simulate", "--graph", interval_file, "--noise", "diag:v1=1",
        "--mesh", "32", "--modes", "4", "--steps", "8", "--samples", "20",
        "--no-verify", "--alphas", "",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "covariance check" not in text
    manifest = json.loads((workdir / "qgraph-simulate.manifest.json").read_text())
    assert "covariance_check" not in manifest


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
