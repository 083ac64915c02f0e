"""Workload process: one closed-loop client calling `qgraph.cli.main`.

Started by run.py as a fresh interpreter.  The moment `qgraph.cli` has
been imported is the end of set-up; run.py subtracts its own clock
reading taken just before the start.  The client then writes the
workload's seeded inputs, and runs the job list in rounds, one job
after another, until the measuring time is spent.  After each round,
outside the timed region, every job's exit code and outputs are
checked.

The timings are each job's best time over the timed rounds (see
`job_minima`): `wall_s` is their sum, the job latencies their quantiles.

With --trace 1 the rounds alternate between untraced and traced,
starting untraced; the traced ones give the per-layer metrics, and the
difference of the two sums of best job times is the tracing overhead.

With --probe the process only reports when its import finished.
"""
import time

import qgraph.cli  # set-up ends here

IMPORTED_AT = time.monotonic()

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import layertrace
import workloads

ENV_KEYS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "QGRAPH_THREADS", "QGRAPH_NUMBA")

# per-layer metrics read from the trace: (layer, stat); the metric is "layer.stat"
LAYER_STATS = [
    ("sim.simulate", "s"), ("sim.simulate", "self_s"),
    ("kernels.ou_paths", "s"), ("kernels.ou_paths", "calls"),
    ("sim.verify_covariance", "s"), ("sim.summary_to_csv", "s"),
    ("sim.ensemble_to_csv", "s"), ("sim.profile_to_csv", "s"),
    ("sim.regularity_profile", "s"),
    ("spectral.eigensolve", "s"), ("spectral.eigensolve", "calls"),
    ("spectral.assemble", "s"),
    ("spectral.spectrum_to_csv", "s"), ("spectral.mode_to_csv", "s"),
    ("cli.main", "s"), ("cli.main", "self_s"),
    ("graphs.load_graph", "s"), ("graphs.validate", "s"), ("graphs.validate", "calls"),
    ("noise.parse_noise", "s"),
    ("treepaths.path_union", "s"), ("treepaths.verify_tf", "s"),
    ("treepaths.st_active_set", "s"),
    ("feller.decide_feller", "self_s"), ("feller.hautus_obstruction", "s"),
    ("feller.rational_star_scan", "s"),
    ("control.solve_null_control", "s"), ("control.control_to_csv", "s"),
    ("sim.invariant_measure_check", "s"),
]
# counts recorded by the probes below: name -> unit
COUNTERS = {
    "sim.normals_drawn": "count",
    "sim.coeffs_bytes": "bytes",
    "spectral.eigensolve.dof_sum": "count",
    "spectral.eigensolve.max_residual": "ratio",
}
# a repeated solve whose mode differs by more than this counts as a mismatch
REPEAT_ATOL = 1e-6


def _simulate_probe(a: dict, result, counters: dict) -> None:
    """Computed, not measured: what the ensemble asked for."""
    modes = a["num_modes"] if a["num_modes"] is not None else a["eig"].num_modes
    samples, steps = a["num_samples"], a["num_steps"]
    counters["sim.normals_drawn"] = counters.get("sim.normals_drawn", 0) + samples * steps * modes
    counters["sim.coeffs_bytes"] = counters.get("sim.coeffs_bytes", 0) + samples * (steps + 1) * modes * 8


def _eigensolve_probe(a: dict, result, counters: dict) -> None:
    key = "spectral.eigensolve.dof_sum"
    counters[key] = counters.get(key, 0) + a["op"].layout.total_dof
    # residual relative to the EIG_RESIDUAL * (1 + lambda) scale
    rel = float(np.max(result.residuals / (1.0 + result.lambdas)))
    key = "spectral.eigensolve.max_residual"
    counters[key] = max(counters.get(key, 0.0), rel)


def machine_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "env": {k: os.environ.get(k) for k in ENV_KEYS},
    }


def run_job(job: workloads.Job) -> float:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            job.rc = qgraph.cli.main(job.argv)
        except SystemExit as exc:  # argparse rejects a request this way
            job.rc = exc.code
        except Exception as exc:  # an escaped error fails the job, not the run
            job.rc = f"uncaught {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    job.stdout, job.stderr = out.getvalue(), err.getvalue()
    return elapsed


def run_round(jobs, inputs: set[str]) -> tuple[float, list[float], list[str]]:
    """Run every job back to back, then check them all.

    Afterwards every output is truncated to zero length: a job that
    fails to write its file in a later round leaves an empty one that
    its check rejects.  The files are truncated, not deleted, because
    creating the ~900 files of an analysis round costs up to 1 s of
    file system metadata work, which varies from round to round more
    than the program's own work does.
    """
    gc.collect()
    times = []
    t0 = perf_counter()
    for job in jobs:
        times.append(run_job(job))
    wall = perf_counter() - t0
    failures = []
    for i, job in enumerate(jobs):
        problems = job.check(job)
        if problems:
            failures.append(f"job {i} ({' '.join(job.argv[:3])}): {'; '.join(problems[:3])}")
    for name in os.listdir():
        if name not in inputs:
            os.truncate(name, 0)
    return wall, times, failures


def repeat_probe(jobs) -> tuple[int, list[dict]]:
    """Solve each spectrum job above the dense cutoff twice and compare.

    With no cutoff constant in qgraph any more, every job is probed.
    """
    cutoff = getattr(sys.modules.get("qgraph.tolerances"), "DENSE_DOF_LIMIT", None)
    mismatches, details = 0, []
    for gpath, mesh, modes in dict.fromkeys(job.solve for job in jobs if job.solve):
        graph = qgraph.load_graph(gpath)
        dof = qgraph.assemble(graph, mesh).layout.total_dof
        if cutoff is not None and dof <= cutoff:
            continue
        first = qgraph.solve_spectrum(graph, mesh, modes)
        second = qgraph.solve_spectrum(graph, mesh, modes)
        diff = np.abs(first.vectors - second.vectors).max(axis=1)
        bad = int(np.count_nonzero(diff > REPEAT_ATOL))
        mismatches += bad
        details.append({"graph": gpath, "mesh": mesh, "dof": dof, "modes": modes,
                        "mismatched_modes": bad, "max_abs_diff": float(diff.max())})
    return mismatches, details


def job_minima(rounds) -> list[float]:
    """Each job's shortest time over the given rounds.

    Every round runs the same jobs on the same inputs, so a job's time
    varies between rounds only through what else the host runs at that
    moment.  On a shared host those slow phases last seconds and come and
    go within a run; a job's best time over the rounds filters them out,
    where the median round, whose jobs all fall in the same phase, keeps
    them.  A program change that makes a job slower makes its best time
    slower too.
    """
    return [min(times) for times in zip(*(times for _, _, times in rounds))]


def _quantiles_ms(times: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of the job times, in ms.

    A job list of fewer than ten jobs (simulate has one) gives too few
    samples beyond the 90th percentile to estimate it, so there it falls
    back to the median.  The choice depends on the workload only.
    """
    p50 = statistics.median(times) * 1e3
    if len(times) < 10:
        return p50, p50
    return p50, statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--report", help="trace report path (with --trace 1)")
    parser.add_argument("--src", required=True, help="the src directory qgraph must come from")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    if src not in Path(qgraph.cli.__file__).resolve().parents:
        print(f"qgraph was imported from {qgraph.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0

    os.chdir(args.workdir)
    jobs = workloads.build(args.workload, args.seed)
    inputs = set(os.listdir())
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer(probes={
            "sim.simulate": _simulate_probe,
            "spectral.eigensolve": _eigensolve_probe,
        })

    rounds = []  # (traced, wall, job times)
    snapshots = []
    failures: list[str] = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, times, failed = run_round(jobs, inputs)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            snapshots.append(tracer.snapshot())
        rounds.append((traced, wall, times))
        failures += failed
        if perf_counter() >= deadline and (not tracer or snapshots):
            break

    attempted = len(rounds) * len(jobs)
    # The first round creates the output files (about 1.5 s of extra file
    # system work on analysis) and pays first-use costs, so it is left out
    # of the timings whenever at least two rounds remain.
    timed = rounds[1:] if len(rounds) >= 3 else rounds
    minima = {flag: job_minima([r for r in timed if r[0] == flag]) for flag in (False, True)}
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "imported_at": IMPORTED_AT,
        "rounds_s": [round(w, 4) for _, w, _ in rounds],
        "machine": machine_block(),
    }
    if not tracer:
        p50, p90 = _quantiles_ms(minima[False])
        result["metrics"] = {
            "wall_s": (sum(minima[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "job_ms_p50": (p50, "ms"),
            "job_ms_p90": (p90, "ms"),
        }
    else:
        mismatches, repeat_details = repeat_probe(jobs) if args.workload == "spectrum" else (0, [])
        metrics, absent = {}, []
        for layer, stat in LAYER_STATS:
            values = [tracer.layer_value(s, layer, stat) for s in snapshots]
            if values[0] is None:
                absent.append(layer)
                values = [0]
            unit = "count" if stat == "calls" else "s"
            metrics[f"{layer}.{stat}"] = (statistics.median(values), unit)
        for name, unit in COUNTERS.items():
            metrics[name] = (statistics.median(s["counters"].get(name, 0) for s in snapshots), unit)
        metrics["trace.overhead_s"] = (sum(minima[True]) - sum(minima[False]), "s")
        metrics["spectral.repeat_mismatch"] = (mismatches, "count")
        metrics["error_rate"] = (len(failures) / attempted, "ratio")
        result["metrics"] = metrics
        result["absent"] = absent

        main = snapshots[-1]["layers"].get("cli.main", {})
        share = 1.0 - main["self_s"] / main["s"] if main.get("s") else None
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "machine": result["machine"],
            "rounds_s": result["rounds_s"],
            "cli_main_child_share": share,
            "absent": absent,
            "repeat_probe": repeat_details,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "last_traced_round": snapshots[-1],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        result["cli_main_child_share"] = share

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
