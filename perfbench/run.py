"""Benchmark entry point.

    python3 perfbench/run.py --workload {simulate,spectrum,analysis} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qgraph is imported from its `src/`.
Each run starts one fresh workload process (client.py) and relays its
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run (see README.md).  Set-up time is the
time from starting an interpreter until `qgraph.cli` is imported; it is
measured on the workload process and on SETUP_PROBES more processes
that only import, and the median is reported.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLIENT = HERE / "client.py"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0  # every process this run starts has ended by then


def _client(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run client.py to completion; return its result and its start time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CLIENT), "--src", str(SRC), *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "qgraph" / "cli.py").is_file():
        print(f"no qgraph sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, started = _client(["--probe"], env, deadline)
                setups.append(probe["imported_at"] - started)
        result, started = _client(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir),
             "--report", str(WORK / f"trace-{args.workload}-seed{args.seed}.json")],
            env, deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["imported_at"] - started)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for key in ("rounds_s", "absent", "cli_main_child_share"):
        if key in result:
            print(f"{key}: {json.dumps(result[key])}")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
