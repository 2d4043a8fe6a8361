#!/usr/bin/env python3
"""normgeo benchmark: one command for every workload.

    python3 perfbench/run.py --workload symmetry --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; normgeo is imported from ``src``.
With ``--trace 0`` it starts SETUP_PROBES set-up-only processes and then one
process that sets up and runs timed bundles, and reports the end-to-end
metrics.  With ``--trace 1`` it runs one traced process and reports the
per-layer metrics, writing its spans under ``perfbench/out/``.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 1 when a workload process fails, 2 when the checkout lacks the sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("symmetry", "sweep", "queries")
SETUP_PROBES = 2          # set-up-only processes; with the timed one, 3 samples
DEADLINE_S = 175.0        # the whole command must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``workload.py`` to its end and parse its last output line."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"workload process timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise ChildError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError("workload process printed nothing")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = run_child(common + ["--seconds", str(seconds)], deadline)
    setups.append(run["setup_s"])
    bundles = run["bundle_s"]
    run["metrics"] = {
        "tasks_per_s": {"value": len(bundles) / sum(bundles), "unit": "1/s"},
        "task_ms.p50": {"value": statistics.median(bundles) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    return run


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    run = run_child(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", spans], deadline)
    run["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in run["layers"].items()}
    return run


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "normgeo", "__init__.py")):
        print(f"no normgeo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        run = measure(args.workload, args.seed, args.seconds, start + DEADLINE_S)
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    for reason in run["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
