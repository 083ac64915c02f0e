"""The three workloads: seeded inputs, CLI job lists and output checks.

`build(name, seed)` writes the workload's input files into the current
directory and returns its job list.  Each job is one README command,
given as the argv of `qgraph.cli.main`, with the exit code it must
return and a check of everything it wrote.  A check returns a list of
problems; an empty list means the job's output is correct.
"""
from __future__ import annotations

import csv
import heapq
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("simulate", "spectrum", "analysis")

# modes with lambda * h_max^2 below this are resolved: the P1 eigenvalue
# error, about lambda^2 h^2 / 12, is then under 1e-4 relative
RESOLVED_LAMBDA_H2 = 1e-3
CONTINUUM_RTOL = 1e-4
# fallbacks when a manifest carries no tolerance table
CONTROL_RESIDUAL = 1e-8
TRACE_ZERO = 1e-6


@dataclass
class Job:
    argv: list[str]
    check: Callable[["Job"], list[str]]
    expect_rc: int = 0
    # filled in by the runner
    rc: object = None
    stdout: str = ""
    stderr: str = ""
    # (graph path, mesh, modes) of a spectrum job, for the repeat probe
    solve: tuple | None = None


# -- input files -----------------------------------------------------------------


def _write_graph(path: str, vertices, edges, p: float = 0.0) -> dict:
    """edges: (id, tail, head, length).  Returns the graph as written."""
    data = {
        "vertices": list(vertices),
        "edges": [
            {"id": e, "tail": t, "head": h, "length": length, "c": 1.0, "p": p}
            for e, t, h, length in edges
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return data


def _star(path: str, lengths, p: float = 0.0) -> dict:
    n = len(lengths)
    return _write_graph(
        path,
        ["vc"] + [f"v{i + 1}" for i in range(n)],
        [(f"e{i + 1}", f"v{i + 1}", "vc", float(lengths[i])) for i in range(n)],
        p,
    )


def _path(path: str, lengths) -> dict:
    return _write_graph(
        path,
        [f"v{i}" for i in range(len(lengths) + 1)],
        [(f"e{i + 1}", f"v{i}", f"v{i + 1}", float(x)) for i, x in enumerate(lengths)],
    )


def _lasso(path: str, loop: float, tail: float) -> dict:
    return _write_graph(path, ["v0", "v1"], [("loop", "v0", "v0", loop), ("tail", "v0", "v1", tail)])


def _prufer_tree(path: str, prufer: list[int]) -> tuple[dict, list[str]]:
    n = len(prufer) + 2
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    pairs = []
    for x in prufer:
        leaf = heapq.heappop(leaves)
        pairs.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    data = _write_graph(
        path,
        [f"n{i}" for i in range(n)],
        [(f"e{k}", f"n{a}", f"n{b}", 1.0) for k, (a, b) in enumerate(pairs)],
    )
    deg = {v: 0 for v in data["vertices"]}
    for e in data["edges"]:
        deg[e["tail"]] += 1
        deg[e["head"]] += 1
    return data, [v for v in data["vertices"] if deg[v] == 1]


# -- reading outputs ---------------------------------------------------------------


def _csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tolerance(manifest: dict, name: str, default: float) -> float:
    return float(manifest.get("tolerances", {}).get(name, default))


def _guard(check):
    """Turn a missing or malformed output into a reported problem."""

    def guarded(job: Job) -> list[str]:
        if job.rc != job.expect_rc:
            tail = job.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit code {job.rc}, expected {job.expect_rc}: {tail[0]}"]
        try:
            return check(job)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    return guarded


# -- exact spectra -----------------------------------------------------------------


def _star_spectrum(n_edges: int, count: int) -> list[float]:
    """Unit equilateral Neumann star: 0, then (k pi)^2 simple and
    ((k + 1/2) pi)^2 with multiplicity n_edges - 1, merged in order."""
    out = [0.0]
    k_anti, k_sym = 0, 1
    while len(out) < count:
        mu_a = ((k_anti + 0.5) * math.pi) ** 2
        mu_s = (k_sym * math.pi) ** 2
        if mu_s < mu_a:
            out.append(mu_s)
            k_sym += 1
        else:
            out.extend([mu_a] * (n_edges - 1))
            k_anti += 1
    return out[:count]


def _interval_spectrum(length: float, count: int) -> list[float]:
    return [(k * math.pi / length) ** 2 for k in range(count)]


def _lasso_spectrum(loop: float, tail: float, count: int) -> list[float]:
    """Loop of length `loop` at v0 plus a pendant edge of length `tail`.

    Modes odd about the loop midpoint vanish at v0: sqrt(mu) = 2 pi j / loop.
    Even modes solve cos(k loop/2) sin(k tail) + 2 sin(k loop/2) cos(k tail) = 0
    (continuity and Kirchhoff at v0, Neumann at v1); k = 0 is the constant.
    """
    def f(k):
        return math.cos(k * loop / 2) * math.sin(k * tail) + 2 * math.sin(k * loop / 2) * math.cos(k * tail)

    roots = [0.0]
    step = 1e-3
    k = step
    while len(roots) < count:
        a, b = k, k + step
        if f(a) * f(b) < 0:
            for _ in range(60):
                mid = 0.5 * (a + b)
                if f(a) * f(mid) <= 0:
                    b = mid
                else:
                    a = mid
            roots.append(0.5 * (a + b))
        k += step
    mus = [r * r for r in roots]
    kmax = roots[-1]
    j = 1
    while 2 * math.pi * j / loop <= kmax:
        mus.append((2 * math.pi * j / loop) ** 2)
        j += 1
    return sorted(mus)[:count]


def _p1_star_value(mu: float, h: float) -> float:
    """P1 eigenvalue of a uniform mesh of spacing h for continuum value mu.

    On an equilateral star meshed alike on every edge the discrete modes
    are sampled cosines, so this holds to rounding, not just to O(h^2).
    """
    c = math.cos(math.sqrt(mu) * h)
    return 6.0 / h**2 * (1.0 - c) / (2.0 + c)


# -- simulate ----------------------------------------------------------------------

SIM_MODES = 10
SIM_STEPS = 200
SIM_SAMPLES = 20_000
SIM_ALPHAS = 3  # the CLI's default alphas 0.0, 0.2, 0.3
SIM_CSV_SAMPLES = 10  # the CLI's default --csv-samples


def _simulate_jobs(rng: random.Random) -> list[Job]:
    _write_graph("interval.json", ["v0", "v1"], [("e1", "v0", "v1", 1.0)])
    seed = rng.randrange(2**31)
    argv = [
        "simulate", "--graph", "interval.json", "--noise", "diag:v1=1",
        "--mesh", "64", "--modes", str(SIM_MODES), "--samples", str(SIM_SAMPLES),
        "--steps", str(SIM_STEPS), "--seed", str(seed),
        "--out", "paths.csv", "--summary-out", "summary.csv", "--profile-out", "profile.csv",
    ]
    return [Job(argv, _guard(_check_simulate))]


def _check_simulate(job: Job) -> list[str]:
    problems = []
    manifest = _json("paths.csv.manifest.json")
    cov = manifest["covariance_check"]
    if not cov["max_cov_z"] <= 5.0:
        problems.append(f"covariance z {cov['max_cov_z']:.3g} > 5")
    if not cov["max_mean_z"] <= 5.0:
        problems.append(f"mean z {cov['max_mean_z']:.3g} > 5")
    if cov["zero_entries_ok"] is not True:
        problems.append("zero covariance entries are not zero")
    if cov["num_samples"] != SIM_SAMPLES:
        problems.append(f"covariance check saw {cov['num_samples']} samples")

    header, rows = _csv("summary.csv")
    if header != ["time", "mode", "mean", "variance"]:
        problems.append(f"summary header {header}")
    if len(rows) != (SIM_STEPS + 1) * SIM_MODES:
        problems.append(f"summary has {len(rows)} rows, expected {(SIM_STEPS + 1) * SIM_MODES}")
    # every path starts at z0 = 0, so the t = 0 rows are exact zeros
    for row in rows[:SIM_MODES]:
        if float(row[0]) != 0.0 or float(row[2]) != 0.0 or float(row[3]) != 0.0:
            problems.append(f"summary t=0 row {row} is not zero")
            break
    if not all(math.isfinite(float(x)) for row in rows for x in row[2:]):
        problems.append("summary holds a non-finite value")

    _, rows = _csv("profile.csv")
    if len(rows) != SIM_ALPHAS * SIM_MODES:
        problems.append(f"profile has {len(rows)} rows, expected {SIM_ALPHAS * SIM_MODES}")
    _, rows = _csv("paths.csv")
    expected = SIM_CSV_SAMPLES * (SIM_STEPS + 1) * SIM_MODES
    if len(rows) != expected:
        problems.append(f"paths CSV has {len(rows)} rows, expected {expected}")
    return problems


# -- spectrum ----------------------------------------------------------------------

SPECTRUM_REPEATS = 3
MODE_OUT = 3


def _spectrum_jobs(rng: random.Random) -> list[Job]:
    cases = []  # (graph file, graph data, mesh, modes, exact spectrum, star edges, h_max)
    star3 = _star("star3.json", [1.0] * 3)
    for mesh in (128, 256, 512, 1024):
        cases.append(("star3.json", star3, mesh, 20, _star_spectrum(3, 20), 3, 1.0 / mesh))
    star10 = _star("star10.json", [1.0] * 10)
    for mesh in (64, 128, 256):
        cases.append(("star10.json", star10, mesh, 50, _star_spectrum(10, 50), 10, 1.0 / mesh))
    lasso = _lasso("lasso.json", 1.0, 0.8)
    lasso_exact = _lasso_spectrum(1.0, 0.8, 24)
    for mesh in (256, 1024):
        cases.append(("lasso.json", lasso, mesh, 24, lasso_exact, None, 1.0 / mesh))
    for i in range(3):
        lengths = [round(rng.uniform(0.5, 1.5), 6) for _ in range(5)]
        name = f"path{i}.json"
        data = _path(name, lengths)
        exact = _interval_spectrum(sum(lengths), 30)
        for mesh in (256, 512):
            cases.append((name, data, mesh, 30, exact, None, max(lengths) / mesh))

    jobs = []
    for rep in range(SPECTRUM_REPEATS):
        for i, (gpath, data, mesh, modes, exact, star_edges, h_max) in enumerate(cases):
            tag = f"spec{rep}_{i}"
            argv = [
                "spectrum", "--graph", gpath, "--mesh", str(mesh), "--modes", str(modes),
                "--out", f"{tag}.csv", "--mode-out", f"{MODE_OUT}:{tag}_mode.csv",
            ]
            case = dict(tag=tag, graph=data, mesh=mesh, modes=modes, exact=exact,
                        star_edges=star_edges, h_max=h_max)
            jobs.append(Job(argv, _guard(lambda job, c=case: _check_spectrum(c, job)),
                            solve=(gpath, mesh, modes)))
    return jobs


def _check_spectrum(case: dict, job: Job) -> list[str]:
    problems = []
    tag, modes, exact, h = case["tag"], case["modes"], case["exact"], case["h_max"]
    vertices = case["graph"]["vertices"]
    header, rows = _csv(f"{tag}.csv")
    if header != ["k", "lambda", "cluster_id", "trusted"] + [f"trace_{v}" for v in vertices]:
        problems.append(f"spectrum header {header}")
    if len(rows) != modes:
        return problems + [f"spectrum has {len(rows)} rows, expected {modes}"]
    lam = [float(r[1]) for r in rows]
    cid = [int(r[2]) for r in rows]
    if [int(r[0]) for r in rows] != list(range(modes)):
        problems.append("mode indices are not 0..K-1")
    if not all(math.isfinite(x) for x in lam) or any(b < a for a, b in zip(lam, lam[1:])):
        problems.append("eigenvalues are not finite and sorted")
    if abs(lam[0]) > 1e-8:
        problems.append(f"lambda_0 = {lam[0]:.3g}, expected 0")
    if cid[0] != 0 or any(b - a not in (0, 1) for a, b in zip(cid, cid[1:])):
        problems.append("cluster ids are not consecutive from 0")

    for k, (got, mu) in enumerate(zip(lam, exact)):
        scale = max(mu, 1.0)
        # a conforming discretization never undershoots (min-max principle)
        if got < mu - 1e-9 * scale:
            problems.append(f"lambda_{k} = {got!r} below the exact {mu!r}")
        if mu * h * h <= RESOLVED_LAMBDA_H2 and abs(got - mu) > CONTINUUM_RTOL * scale:
            problems.append(f"lambda_{k} = {got!r} not within 1e-4 of {mu!r}")
        if case["star_edges"] and abs(got - _p1_star_value(mu, h)) > 1e-6 * scale:
            problems.append(f"lambda_{k} = {got!r} off the P1 value {_p1_star_value(mu, h)!r}")
    if case["star_edges"]:
        for k in range(1, modes):
            if (cid[k] == cid[k - 1]) != (exact[k] == exact[k - 1]):
                problems.append(f"modes {k - 1} and {k} clustered wrongly")
                break

    # the mode CSV's edge end values are the spectrum CSV's vertex traces
    header, mrows = _csv(f"{tag}_mode.csv")
    edges = case["graph"]["edges"]
    if header != ["edge", "x", "value"] or len(mrows) != len(edges) * (case["mesh"] + 1):
        problems.append(f"mode CSV has header {header} and {len(mrows)} rows")
    else:
        trace = dict(zip(vertices, rows[MODE_OUT][4:]))
        for j, e in enumerate(edges):
            block = mrows[j * (case["mesh"] + 1):(j + 1) * (case["mesh"] + 1)]
            if block[0][0] != e["id"] or (block[0][2], block[-1][2]) != (trace[e["tail"]], trace[e["head"]]):
                problems.append(f"mode {MODE_OUT} on edge {e['id']} disagrees with its vertex traces")
    if _json(f"{tag}.csv.manifest.json").get("command") != "spectrum":
        problems.append("manifest does not record the spectrum command")
    return problems


# -- analysis ----------------------------------------------------------------------

ANALYSIS_BLOCKS = 4
ST_ACTIVE_TREES = 400
Z0 = "1=1.0,2=0.5,3=0.25"
PI2 = math.pi**2


def _analysis_jobs(rng: random.Random) -> list[Job]:
    _star("star.json", [1.0] * 3)
    _star("star_p1.json", [1.0] * 3, p=1.0)
    _star("ratio.json", [3.0, 1.0, 1.0])
    _lasso("lasso.json", 1.0, 0.8)
    _write_graph("interval.json", ["v0", "v1"], [("e1", "v0", "v1", 1.0)])

    jobs = []
    for b in range(ANALYSIS_BLOCKS):
        def out(name, b=b):
            return f"b{b}_{name}"

        jobs += [
            Job(["feller", "--graph", "star.json", "--noise", "diag:v1=1", "--mesh", "128",
                 "--modes", "16", "--out", out("fa.json")],
                _guard(lambda j, p=out("fa.json"): _check_verdict(p, "NotStrongFeller", "hautus"))),
            Job(["feller", "--graph", "star.json", "--noise", "diag:v1=1,v2=1", "--mesh", "128",
                 "--modes", "16", "--out", out("fb.json")],
                _guard(lambda j, p=out("fb.json"): _check_verdict(p, "StrongFeller", "thm-main"))),
            Job(["feller", "--graph", "lasso.json", "--noise", "diag:v0=1,v1=1", "--mesh", "128",
                 "--modes", "24", "--out", out("fc.json")],
                _guard(lambda j, p=out("fc.json"): _check_verdict(
                    p, "NotStrongFeller", "hautus", zero_traces=True))),
            Job(["feller", "--graph", "ratio.json", "--noise", "diag:v3=1", "--out", out("fd.json")],
                _guard(lambda j, p=out("fd.json"): _check_verdict(
                    p, "NotStrongFeller", "rational-star", eigenvalue=PI2 / 4))),
            Job(["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", Z0,
                 "--horizon", "1", "--mesh", "128", "--modes", "10",
                 "--out", out("ci.csv"), "--report", out("ci.json")],
                _guard(lambda j, p=out("ci"): _check_control(p, 2, steerable=True))),
            Job(["control", "--graph", "star.json", "--noise", "diag:v1=1", "--z0", Z0,
                 "--horizon", "1", "--mesh", "128", "--modes", "10",
                 "--out", out("cs.csv"), "--report", out("cs.json")],
                _guard(lambda j, p=out("cs"): _check_control(p, 4, steerable=False))),
            Job(["invariant", "--graph", "star.json", "--noise", "diag:v1=1", "--mesh", "128",
                 "--modes", "12", "--out", out("i0.json")],
                _guard(lambda j, p=out("i0.json"): _check_invariant(p, exists=False))),
            Job(["invariant", "--graph", "star_p1.json", "--noise", "diag:v1=1", "--mesh", "128",
                 "--modes", "12", "--horizons", "1,2,4,8", "--out", out("i1.json")],
                _guard(lambda j, p=out("i1.json"): _check_invariant(p, exists=True))),
        ]

    for t in range(ST_ACTIVE_TREES):
        n = rng.randint(3, 20)
        data, boundary = _prufer_tree(f"tree{t}.json", [rng.randrange(n) for _ in range(n - 2)])
        omit = rng.choice(boundary)
        path = f"st{t}.json"
        jobs.append(Job(
            ["st-active", "--graph", f"tree{t}.json", "--omit", omit, "--out", path],
            _guard(lambda j, p=path, d=data, bnd=boundary, o=omit: _check_st_active(p, d, bnd, o)),
        ))

    # malformed requests: exit code 2 and an error line, never a traceback
    malformed = [
        ["feller", "--graph", "star.json", "--noise", "diag:v9=1"],
        ["feller", "--graph", "star.json", "--noise", "diag:v1=-1"],
        ["st-active", "--graph", "star.json", "--omit", "vc"],
        ["st-active", "--graph", "lasso.json"],
        ["spectrum", "--graph", "star.json", "--mesh", "1"],
        ["spectrum", "--graph", "missing.json"],
        ["control", "--graph", "interval.json", "--noise", "diag:v1=1", "--z0", "1:1"],
        ["spectrum", "--graph", "star.json", "--mesh", "many"],
    ]
    for i, argv in enumerate(malformed):
        if argv[-2] != "--mesh" or argv[-1] != "many":
            argv = argv + ["--manifest", f"malformed{i}.manifest.json"]
        jobs.append(Job(argv, _guard(_check_rejected), expect_rc=2))
    return jobs


def _check_verdict(path: str, verdict: str, rule: str, eigenvalue: float | None = None,
                   zero_traces: bool = False) -> list[str]:
    problems = []
    out = _json(path)
    if (out["verdict"], out["rule"]) != (verdict, rule):
        problems.append(f"verdict {out['verdict']}/{out['rule']}, expected {verdict}/{rule}")
    witness = out.get("witness")
    if verdict == "NotStrongFeller":
        if witness is None:
            return problems + ["NotStrongFeller without a witness"]
        if not witness["residual"] <= TRACE_ZERO:
            problems.append(f"witness residual {witness['residual']:.3g}")
        if zero_traces and math.hypot(*witness["traces"]) > TRACE_ZERO:
            problems.append("witness has nonzero vertex traces")
        if eigenvalue is not None and abs(witness["eigenvalue"] - eigenvalue) > 1e-12 * eigenvalue:
            problems.append(f"witness eigenvalue {witness['eigenvalue']!r}, expected {eigenvalue!r}")
    return problems


def _check_control(prefix: str, n_vertices: int, steerable: bool) -> list[str]:
    problems = []
    report = _json(f"{prefix}.json")
    manifest = _json(f"{prefix}.csv.manifest.json")
    diag = report["diagnostics"]
    limit = _tolerance(manifest, "control_residual", CONTROL_RESIDUAL) * max(1.0, report["uncontrolled_norm"])
    if diag["residual_above_tol"] != (diag["residual_norm"] > limit):
        problems.append("residual flag disagrees with the residual and its tolerance")
    if steerable:
        # the interval is steered to rest: criterion 5's 1e3 reduction
        if diag["residual_norm"] > limit:
            problems.append(f"interval control residual {diag['residual_norm']:.3g} > {limit:.3g}")
        terminal = math.sqrt(sum(x * x for x in report["terminal_coefficients"]))
        if report["uncontrolled_norm"] < 1e3 * terminal:
            problems.append("control reduces the terminal state less than 1e3-fold")
    elif diag["gram_rank"] > diag["gram_size"] - 3:
        # each of the three doublets among 10 star modes has a direction v1 cannot see
        problems.append(f"star Gram rank {diag['gram_rank']}/{diag['gram_size']}, expected <= size - 3")
    header, rows = _csv(f"{prefix}.csv")
    if len(header) != 1 + n_vertices or len(rows) != 201:
        problems.append(f"control CSV is {len(rows)} x {len(header)}")
    return problems


def _check_invariant(path: str, exists: bool) -> list[str]:
    out = _json(path)
    problems = []
    if exists:
        if (out["exists"], out["rule"]) != ("Yes", "exponential-stability"):
            problems.append(f"invariant {out['exists']}/{out['rule']} with potential 1")
        totals = [sums[-1] for sums in out["hs_partial_sums"]]
        diffs = [b - a for a, b in zip(totals, totals[1:])]
        if any(d < -1e-15 for d in diffs) or any(b > 0.5 * a + 1e-15 for a, b in zip(diffs, diffs[1:])):
            problems.append(f"variance sums {totals} are not increasing and Cauchy")
    else:
        if (out["exists"], out["rule"]) != ("No", "kernel-mode-noise"):
            problems.append(f"invariant {out['exists']}/{out['rule']} without potential")
        kern = out["kernel_terms"]
        ratios = [k / kern[0] for k in kern]
        if any(abs(r - e) > 0.01 * e for r, e in zip(ratios, (1.0, 2.0, 4.0))):
            problems.append(f"kernel term grows as {ratios}, expected 1:2:4")
    return problems


def _check_st_active(path: str, data: dict, boundary: list[str], omit: str) -> list[str]:
    out = _json(path)
    problems = []
    if out["violations"]:
        problems.append(f"violations {out['violations']}")
    expected = sorted(set(boundary) - {omit})
    if out["i_star"] != expected or out["j_star"] != []:
        problems.append(f"active set {out['i_star']}/{out['j_star']}, expected {expected}/[]")
    used = [eid for seq in out["paths"] for eid in seq[1::2]]
    if sorted(used) != sorted(e["id"] for e in data["edges"]):
        problems.append("paths do not cover every edge exactly once")
    return problems


def _check_rejected(job: Job) -> list[str]:
    if "Traceback" in job.stderr or "error" not in job.stderr:
        return [f"rejection without a clean error line: {job.stderr.strip()[:200]!r}"]
    return []


def build(name: str, seed: int) -> list[Job]:
    """Write the inputs of one workload into the current directory."""
    rng = random.Random(f"{name}:{seed}")
    if name == "simulate":
        return _simulate_jobs(rng)
    if name == "spectrum":
        return _spectrum_jobs(rng)
    if name == "analysis":
        return _analysis_jobs(rng)
    raise ValueError(f"unknown workload {name!r}")
