"""Command line front end.

Every subcommand runs the same protocol, owned by `main`: parse the
arguments (the parser is built once per process), load `--graph`,
parse `--noise` when the subcommand takes one, call the handler
`_cmd_<name>(args, graph, noise)`, which parses its string arguments
before any eigensolve and returns its manifest extras, add the noise
record to them, and write the manifest JSON.  The manifest records the
resolved configuration, the numerical tolerances in force, and library
versions, so results can be traced and reproduced byte for byte; a
failed run writes none.  The exception's family alone picks the exit
code, never a traceback: 0 success; 2 invalid input, QGraphValidationError
(a ValueError, also from the parsing here), OSError (a missing file) or
MemoryError (a request too large to allocate); 3 QGraphNumericalError or
any other ValueError (numpy's LinAlgError, or a fault of the program).
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
from .graphs import MetricGraph, _parse, load_graph
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
from .spectral import (
    EigenSystem,
    _check_num_modes,
    _integer,
    _mesh_size,
    mode_to_csv,
    solve_spectrum,
    spectrum_to_csv,
)
from .treepaths import path_union, path_union_to_dict, st_active_set, verify_tf

__all__ = ["main", "build_parser"]


def _parse_z0(text: str, num_modes: int) -> list[float]:
    """Parse sparse mode coefficients: "0=1.0,3=-0.5" -> dense list; an
    index must lie below num_modes, which bounds the list."""
    entries: dict[int, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise QGraphValidationError(f"bad z0 entry {item!r}, expected INDEX=VALUE")
        k = _integer(_parse(int, key), "z0 mode index", per=1)  # sizes the dense list
        if not 0 <= k < num_modes:
            raise QGraphValidationError(f"z0 mode index must lie in [0, {num_modes - 1}], got {k}")
        if k in entries:
            raise QGraphValidationError(f"repeated z0 index {k}")
        entries[k] = _parse(float, val)
    out = [0.0] * (max(entries, default=-1) + 1)
    for k, v in entries.items():
        out[k] = v
    return out


def _floats(text: str) -> list[float]:
    """Parse comma-separated floats, skipping empty items: "1,2," -> [1.0, 2.0]."""
    return [_parse(float, x) for x in text.split(",") if x.strip()]


def _write_json(path: str, payload: dict) -> None:
    # serialized first: a non-finite value raises ValueError (exit 3) and leaves no file
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with _parse(open, path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _numerics(eig: EigenSystem) -> dict:  # how the eigensolve went, and its mesh
    return {**vars(eig.solve), "total_dof": eig.layout.total_dof, "h_max": eig.layout.h_max}


def _write_manifest(args: argparse.Namespace, extra: dict) -> None:
    path = args.manifest
    if path is None:
        base = getattr(args, "out", None)
        path = f"{base}.manifest.json" if base else f"qgraph-{args.command}.manifest.json"
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
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
    if args.mode_out:
        k_str, _, mode_path = args.mode_out.partition(":")
        if not mode_path:
            raise QGraphValidationError("--mode-out expects K:PATH")
        k = _parse(int, k_str)
        if not 0 <= k < args.modes:
            raise QGraphValidationError(f"mode index must lie in [0, {args.modes - 1}], got {k}")
    eig = solve_spectrum(graph, args.mesh, args.modes)
    if args.mode_out:
        mode_to_csv(eig, k, mode_path)
    if args.out:
        spectrum_to_csv(eig, args.out)
    trusted = int(eig.trusted.sum())
    print(f"modes: {eig.num_modes}  clusters: {len(eig.clusters)}  trusted: {trusted}")
    show = min(eig.num_modes, 8)
    for k in range(show):
        print(f"  lambda_{k} = {eig.lambdas[k]:.10g}")
    return {"num_clusters": len(eig.clusters), "numerics": _numerics(eig)}


def _cmd_feller(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    verdict = decide_feller(graph, noise, elements_per_edge=args.mesh, num_modes=args.modes)
    print(f"verdict: {verdict.verdict}")
    print(f"rule: {verdict.rule}")
    print(f"detail: {verdict.detail}")
    if args.out:
        _write_json(args.out, verdict.to_json())
    return {"verdict": verdict.verdict, "rule": verdict.rule}


def _cmd_control(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    _check_num_modes(args.modes, _mesh_size(graph, args.mesh)[1])  # before it sizes z0
    z0 = _parse_z0(args.z0, args.modes)
    eig = solve_spectrum(graph, args.mesh, args.modes)
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
    return {"diagnostics": d.to_json(), "numerics": _numerics(eig)}


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
    horizons = _floats(args.horizons)
    eig = solve_spectrum(graph, args.mesh, args.modes)
    report = invariant_measure_check(eig, noise, horizons=horizons)
    print(f"invariant measure exists: {'Yes' if report.exists else 'No'}")
    print(f"unique: {'Yes' if report.unique else 'No'}")
    print(f"rule: {report.rule}")
    print(f"lambda_0 = {report.lambda0:.10g}")
    for t, total, kern in zip(report.horizons, report.hs_totals, report.kernel_terms):
        print(f"  T={t:g}: variance sum {total:.10g} (kernel term {kern:.10g})")
    if args.out:
        _write_json(args.out, report.to_json())
    return {"exists": report.exists, "unique": report.unique, "rule": report.rule,
            "numerics": _numerics(eig)}


def _cmd_simulate(args: argparse.Namespace, graph: MetricGraph, noise: NoiseModel | None) -> dict:
    _check_num_modes(args.modes, _mesh_size(graph, args.mesh)[1])  # before it sizes z0
    z0 = _parse_z0(args.z0, args.modes)
    alphas = _floats(args.alphas)
    eig = solve_spectrum(graph, args.mesh, args.modes)
    # the profile is exact and cheap: checking its input first wastes no sampling
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
    report = verify_covariance(ens)
    print(f"covariance check over {len(report.times)} grid times: "
          f"max |z| = {report.max_cov_z:.3g}, mean max |z| = {report.max_mean_z:.3g}, "
          f"within 3 SE: {100 * report.frac_within_3se:.1f}%")
    extra = {"innovation_rank": ens.innovation_rank, "innovation_dropped": ens.innovation_dropped,
             "rng": RNG_RECIPE, "covariance_check": report.to_json(), "numerics": _numerics(eig)}
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
    except (QGraphValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QGraphNumericalError, ValueError) as exc:  # second: the first family is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
