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
    assert len(manifest["tolerances"]) == 16
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
    assert manifest["rng"] == "per-sample SeedSequence(seed, spawn_key=(s,)) + PCG64"


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
