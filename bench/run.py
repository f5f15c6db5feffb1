"""Benchmark of qgscatter: one workload per invocation, from the repository root.

    python3 bench/run.py --workload poles --seed 1 --seconds 20 --trace 0

Workloads: poles, spectrum, scatter, isoscatter (see bench/README.md).
Each runs in its own single-threaded process: BLAS and OpenMP are pinned to
one thread and QGS_THREADS is removed from the environment. The library is
imported from ./src of the current directory, never from an installed copy.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; set-up is measured in seven processes and reported
as their median, and job times are scaled to the machine's usual speed
(see worker.py); the unscaled figures go to standard error. With ``--trace 1`` it holds the per-layer metrics of one
traced round, and the table is also written to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("poles", "spectrum", "scatter", "isoscatter")
SETUP_PROCESSES = 7
TAIL_PERCENTILE = 90
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _environment(root):
    env = dict(os.environ)
    env.pop("QGS_THREADS", None)
    for name in PINNED:
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, env, deadline, extra=()):
    """Run one workload process; returns its JSON result line, parsed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    """Nearest-rank percentile: with n values, ceil(pct / 100 * n) of them
    are at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def job_metrics(times):
    if len(times) < 10 * 100 / (100 - TAIL_PERCENTILE):
        raise RuntimeError(f"only {len(times)} jobs, too few for the tail percentile")
    return {
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "job_s.tail": {"value": percentile(times, TAIL_PERCENTILE), "unit": "s"},
    }


def end_to_end(main, setups):
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        **job_metrics(main["job_s"]),
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(main):
    """The per-layer metrics BENCHMARK.json names, from the traced run's table."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    table = main["per_layer"]
    missing = [n for n in names if n not in table]
    if missing:
        raise RuntimeError(f"the traced run has no {missing}")
    return {n: {"value": table[n][0], "unit": table[n][1]} for n in names}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/qgscatter/__init__.py", "data/mcdonald_meyers_1.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.stderr.write(f"{needed} not found: run from the repository root\n")
            return 2
    env = _environment(root)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            out_dir = os.path.join(HERE, "results")
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            main_run = _worker(args, env, deadline, ["--trace-out", out])
            metrics = per_layer(main_run)
        else:
            setups = [_worker(args, env, deadline, ["--setup-only"])["setup_s"]
                      for _ in range(SETUP_PROCESSES - 1)]
            main_run = _worker(args, env, deadline)
            metrics = end_to_end(main_run, setups + [main_run["setup_s"]])
            wall = job_metrics(main_run["job_wall_s"])
            sys.stderr.write("unscaled wall-clock: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in wall.items())
                + f" median pace {statistics.median(main_run['paces']):.6g} s\n")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    for problem in main_run["problems"]:
        sys.stderr.write(f"WRONG: {problem}\n")
    print(json.dumps({"correct": main_run["correct"], "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
