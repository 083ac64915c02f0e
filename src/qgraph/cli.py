"""Command line front end.

Every subcommand runs the same protocol, owned by `main`: parse the
arguments (the parser is built once per process), load `--graph`,
parse `--noise` when the subcommand takes one, call the handler
`_cmd_<name>(args, graph, noise)`, which does its own work and returns
its manifest extras, add the noise record to them, and write the
manifest JSON.  The manifest records the resolved configuration, the
numerical tolerances in force, and library versions, so results can be
traced and reproduced byte for byte; a failed run writes none.
Exceptions become exit codes: 0 success, 2 invalid input (graph,
noise, or request), 3 numerical failure (including linear-algebra
errors), never a traceback.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys

import numpy
import scipy

from . import __version__
from . import tolerances as tol
from .control import control_to_csv, solve_null_control
from .errors import QGraphNumericalError, QGraphValidationError
from .feller import decide_feller
from .graphs import MetricGraph, load_graph
from .noise import NoiseModel, parse_noise
from .sim import (
    RNG_RECIPE,
    ensemble_to_csv,
    invariant_measure_check,
    profile_to_csv,
    regularity_profile,
    simulate,
    summary_to_csv,
    verify_covariance,
)
from .spectral import mode_to_csv, solve_spectrum, spectrum_to_csv
from .treepaths import path_union, path_union_to_dict, st_active_set, verify_tf

__all__ = ["main", "build_parser"]


def _parse_z0(text: str) -> list[float]:
    """Parse sparse mode coefficients: "0=1.0,3=-0.5" -> dense list."""
    entries: dict[int, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"bad z0 entry {item!r}, expected INDEX=VALUE")
        entries[int(key)] = float(val)
    if not entries:
        return []
    out = [0.0] * (max(entries) + 1)
    for k, v in entries.items():
        if k < 0:
            raise ValueError("z0 mode indices must be nonnegative")
        out[k] = v
    return out


def _floats(text: str) -> list[float]:
    """Parse comma-separated floats, skipping empty items: "1,2," -> [1.0, 2.0]."""
    return [float(x) for x in text.split(",") if x.strip()]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args: argparse.Namespace, extra: dict) -> None:
    path = args.manifest
    if path is None:
        base = getattr(args, "out", None)
        path = f"{base}.manifest.json" if base else f"qgraph-{args.command}.manifest.json"
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and not k.startswith("_")
    }
    payload = {
        "command": args.command,
        "config": config,
        "tolerances": tol.as_dict(),
        "versions": {
            "qgraph": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    payload.update(extra)
    _write_json(path, payload)


def _add_common(sp: argparse.ArgumentParser, mesh: bool = True) -> None:
    sp.add_argument("--graph", required=True, help="path to a graph JSON file")
    if mesh:
        sp.add_argument("--mesh", type=int, default=256,
                        help="finite elements per edge (default 256)")
        sp.add_argument("--modes", type=int, default=50,
                        help="number of eigenpairs to compute (default 50)")
    sp.add_argument("--manifest", default=None,
                    help="manifest path (default: derived from --out)")


def _cmd_spectrum(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    eig = solve_spectrum(graph, args.mesh, args.modes)
    if args.mode_out:  # first: a bad mode index leaves no output behind
        k_str, _, path = args.mode_out.partition(":")
        if not path:
            raise ValueError("--mode-out expects K:PATH")
        mode_to_csv(eig, int(k_str), path)
    if args.out:
        spectrum_to_csv(eig, args.out)
    trusted = int(eig.trusted.sum())
    print(f"modes: {eig.num_modes}  clusters: {len(eig.clusters)}  trusted: {trusted}")
    show = min(eig.num_modes, 8)
    for k in range(show):
        print(f"  lambda_{k} = {eig.lambdas[k]:.10g}")
    return {"h_max": eig.h_max, "num_clusters": len(eig.clusters)}


def _cmd_feller(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    verdict = decide_feller(
        graph,
        noise,
        elements_per_edge=args.mesh,
        num_modes=args.modes,
        max_order=args.max_order,
    )
    print(f"verdict: {verdict.verdict}")
    print(f"rule: {verdict.rule}")
    print(f"detail: {verdict.detail}")
    if args.out:
        _write_json(args.out, verdict.to_json())
    return {"verdict": verdict.verdict, "rule": verdict.rule}


def _cmd_control(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    eig = solve_spectrum(graph, args.mesh, args.modes)
    z0 = _parse_z0(args.z0)
    result = solve_null_control(eig, noise, z0, args.horizon, grid_points=args.grid)
    d = result.diagnostics
    print(f"control L2 norm: {result.control_norm:.10g}")
    print(f"uncontrolled terminal norm: {result.uncontrolled_norm:.10g}")
    print(f"residual norm: {d.residual_norm:.4g} "
          f"({'above' if d.residual_above_tol else 'within'} tolerance)")
    print(f"gram rank: {d.gram_rank}/{d.gram_size}  condition: {d.condition:.4g}")
    if args.out:
        control_to_csv(result, graph.vertices, args.out)
    if args.report:
        _write_json(args.report, {
            "control_norm": result.control_norm,
            "uncontrolled_norm": result.uncontrolled_norm,
            "terminal_coefficients": [float(x) for x in result.terminal_coefficients],
            "diagnostics": d.to_json(),
        })
    return {"diagnostics": d.to_json()}


def _cmd_st_active(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    pu = path_union(graph, omit=args.omit)
    violations = verify_tf(pu, graph)
    active = st_active_set(pu)
    for path in pu.paths:
        route = " -> ".join(path.vertices)
        print(f"path: {route}")
    print(f"sources: {', '.join(sorted(pu.source_set))}")
    print(f"active boundary set: {', '.join(sorted(active.i_star)) or '(empty)'}")
    for v in violations:
        print(f"violation: {v}")
    payload = path_union_to_dict(pu)
    payload["i_star"] = sorted(active.i_star)
    payload["j_star"] = sorted(active.j_star)
    payload["violations"] = violations
    if args.out:
        _write_json(args.out, payload)
    return {"violations": violations}


def _cmd_invariant(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    eig = solve_spectrum(graph, args.mesh, args.modes)
    report = invariant_measure_check(eig, noise, horizons=_floats(args.horizons))
    print(f"invariant measure exists: {'Yes' if report.exists else 'No'}")
    print(f"rule: {report.rule}")
    print(f"lambda_0 = {report.lambda0:.10g}")
    for t, total, kern in zip(report.horizons, report.hs_totals, report.kernel_terms):
        print(f"  T={t:g}: variance sum {total:.10g} (kernel term {kern:.10g})")
    if args.out:
        _write_json(args.out, report.to_json())
    return {"exists": report.exists, "rule": report.rule}


def _cmd_simulate(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    eig = solve_spectrum(graph, args.mesh, args.modes)
    z0 = _parse_z0(args.z0)
    # the profile is exact and cheap: checking its input first wastes no sampling
    alphas = _floats(args.alphas)
    entries = []
    if alphas:
        entries = regularity_profile(eig, noise, args.horizon, alphas, num_modes=args.modes)
    ens = simulate(
        eig,
        noise,
        z0,
        horizon=args.horizon,
        num_steps=args.steps,
        num_samples=args.samples,
        seed=args.seed,
        keep_paths=args.csv_samples if args.out else 0,
    )
    print(f"sampled {ens.num_samples} paths of {ens.num_modes} modes ({args.steps} steps)")
    extra: dict = {"cholesky_jitter": ens.cholesky_jitter, "rng": RNG_RECIPE}
    if not args.no_verify:
        report = verify_covariance(ens)
        print(f"covariance check over {len(report.times)} grid times: "
              f"max |z| = {report.max_cov_z:.3g}, mean max |z| = {report.max_mean_z:.3g}, "
              f"within 3 SE: {100 * report.frac_within_3se:.1f}%")
        extra["covariance_check"] = report.to_json()
    if entries:
        for entry in entries:
            status = "convergent" if entry.convergent else "divergent"
            print(f"alpha={entry.alpha:g}: tail slope {entry.tail_slope:.3f} ({status})")
        extra["profile"] = [e.to_json() for e in entries]
    if args.out:
        ensemble_to_csv(ens, args.out)
    if args.summary_out:
        summary_to_csv(ens, args.summary_out)
    if args.profile_out and entries:
        profile_to_csv(entries, args.profile_out)
    return extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Spectral analysis, controllability, and simulation of "
                    "vertex-noise diffusion on metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues, traces, and clusters")
    _add_common(sp)
    sp.add_argument("--out", default=None, help="write spectrum CSV here")
    sp.add_argument("--mode-out", default=None, metavar="K:PATH",
                    help="write nodal values of mode K to PATH")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("feller", help="decide the strong Feller property")
    _add_common(sp)
    sp.add_argument("--noise", required=True,
                    help="noise spec: diag:v1=1,v2=1 or a JSON file")
    sp.add_argument("--max-order", type=int, default=64,
                    help="odd-ratio search depth for star geometries (default 64)")
    sp.add_argument("--out", default=None, help="write verdict JSON here")
    sp.set_defaults(func=_cmd_feller)

    sp = sub.add_parser("control", help="minimal-norm null control")
    _add_common(sp)
    sp.add_argument("--noise", required=True)
    sp.add_argument("--z0", required=True,
                    help="initial mode coefficients, e.g. 0=1.0,3=-0.5")
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=201,
                    help="time grid points for the control output (default 201)")
    sp.add_argument("--out", default=None, help="write control CSV here")
    sp.add_argument("--report", default=None, help="write diagnostics JSON here")
    sp.set_defaults(func=_cmd_control)

    sp = sub.add_parser("st-active", help="tree path decomposition and active set")
    _add_common(sp, mesh=False)
    sp.add_argument("--omit", default=None,
                    help="boundary vertex to leave out (default: none omitted)")
    sp.add_argument("--out", default=None, help="write decomposition JSON here")
    sp.set_defaults(func=_cmd_st_active)

    sp = sub.add_parser("invariant", help="existence of an invariant measure")
    _add_common(sp)
    sp.add_argument("--noise", required=True)
    sp.add_argument("--horizons", default="1,2,4",
                    help="comma-separated horizons for the variance sums")
    sp.add_argument("--out", default=None, help="write report JSON here")
    sp.set_defaults(func=_cmd_invariant)

    sp = sub.add_parser("simulate", help="Monte Carlo sample paths")
    _add_common(sp)
    sp.add_argument("--noise", required=True)
    sp.add_argument("--z0", default="", help="initial mode coefficients")
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--no-verify", action="store_true",
                    help="skip the empirical-vs-exact covariance check")
    sp.add_argument("--alphas", default="0.0,0.2,0.3",
                    help="smoothness levels for the regularity profile "
                         "(default 0.0,0.2,0.3; empty string disables)")
    sp.add_argument("--out", default=None, help="write sampled paths CSV here")
    sp.add_argument("--summary-out", default=None,
                    help="write per-(time, mode) mean/variance CSV here")
    sp.add_argument("--profile-out", default=None,
                    help="write the regularity partial-sum table CSV here")
    sp.add_argument("--csv-samples", type=int, default=10,
                    help="paths kept and written to the --out CSV (default 10)")
    sp.set_defaults(func=_cmd_simulate)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        graph = load_graph(args.graph)
        noise = parse_noise(args.noise, graph) if hasattr(args, "noise") else None
        extra = args.func(args, graph, noise)
        if noise is not None:
            extra["noise"] = noise.to_json()
        _write_manifest(args, extra)
        return 0
    except (QGraphNumericalError, numpy.linalg.LinAlgError) as exc:
        # before the input branch: LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (QGraphValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
