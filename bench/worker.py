"""One workload in one single-threaded process (started by run.py).

The process imports the library, builds its job list from the seed, and
runs a fixed number of whole rounds of that list back to back, one caller
and one job at a time (a closed loop). It prints one JSON line with the job
times and counts. ``--setup-only`` stops after set-up, for the repeated
set-up measurement; ``--trace 1`` runs every job once untraced and once
traced and reports the per-layer table of the traced round.

Set-up time runs from ``--t0``, a CLOCK_MONOTONIC reading the parent took
just before starting this process, until the inputs are built: the library
is imported, the shipped files are parsed and the seeded graphs are made.
The benchmark's own reference computations come after it, untimed.

Machine pace. The machine this benchmark was tuned on is shared, and its
speed drifts by a third for tens of seconds at a time. Before every job the
process times ``pace()``, a fixed computation of the same kind as the
library's inner loop that uses no library code, and every job time is also
reported scaled by ``PACE_NOMINAL_S`` over the median pace of the
``PACE_WINDOW`` jobs around it: the time the job would have taken at the
machine's usual speed. A change to the library moves the scaled times as
it moves the wall times; a spell of the machine moves the pace with them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time

import numpy as np

import reference as ref
import workloads
from workloads import WORKLOADS

# Rounds per run, sized so that a run measures about 20 s of jobs here;
# every run has at least 100 jobs, so that the 90th percentile of the job
# times has ten jobs beyond it. The number of rounds never depends on the
# speed of the machine or of the library, so neither do attempted and
# failed. A run stops early only past OVERRUN times --seconds, for a
# program several times slower than today's, to end within its deadline.
ROUNDS = {"poles": 2, "spectrum": 2, "scatter": 5, "isoscatter": 1}
OVERRUN = 4.0

# pace(): forty 32x32 complex determinants of I - S exp(ikL), as the
# library's D(k) is built, with fixed data; about 1.7 ms here.
_PACE_RNG = np.random.default_rng(12345)
_PACE_S = _PACE_RNG.standard_normal((32, 32)) + 1j * _PACE_RNG.standard_normal((32, 32))
_PACE_L = _PACE_RNG.uniform(0.5, 1.5, size=32)
PACE_NOMINAL_S = 1.7e-3
PACE_WINDOW = 15


def pace():
    """Wall time of the fixed computation that tracks the machine's speed."""
    t0 = time.perf_counter()
    for i in range(40):
        tk = np.exp(1j * (1.0 + 0.01 * i - 0.1j) * _PACE_L)
        np.linalg.det(np.eye(32) - _PACE_S * tk[None, :])
    return time.perf_counter() - t0


def scaled(times, paces):
    """Job times at the usual machine speed: each scaled by PACE_NOMINAL_S
    over the median pace of the PACE_WINDOW jobs centred on it."""
    half = PACE_WINDOW // 2
    return [t * PACE_NOMINAL_S / statistics.median(paces[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


def run_round(jobs, tracer=None, paces=None):
    """Run every job once and check its output.

    Returns (job times, failed jobs, problems of jobs that are not counted
    failures). Only ``job.run`` is timed; a job that raises has failed.
    With ``paces`` (a list), ``pace()`` is timed before each job and
    appended to it.
    """
    times, failed, problems = [], 0, []
    for job in jobs:
        if paces is not None:
            paces.append(pace())
        recording = tracer.recording() if tracer else contextlib.nullcontext()
        with recording:
            t0 = time.perf_counter()
            try:
                output = job.run()
            except Exception as exc:  # counted below; the run goes on
                output = exc
            times.append(time.perf_counter() - t0)
        found = job.verify(output)
        if found:
            failed += 1
            if job.known_failure is None:
                problems.append(f"{job.name}: {'; '.join(found[:3])}")
    return times, failed, problems


def oracle_self_check():
    """The oracles against closed forms (see reference.self_check)."""
    from qgscatter.graph_core import Dirichlet, Edge, Neumann, Vertex, attach_leads, build_graph

    star = build_graph([Vertex("c", Neumann())], [], pending_leads={"c": 4})
    res = build_graph(
        [Vertex("c", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())],
        [Edge("e1", "c", "w1", 1.0), Edge("e2", "c", "w2", 1.0)], pending_leads={"c": 1})
    return ref.self_check(attach_leads(star, ["c"] * 4), attach_leads(res, ["c"]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    with tracer.recording("setup") if tracer else contextlib.nullcontext():
        jobs = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # the oracles, before any job is timed; not part of set-up time
    jobs = workloads.prepare(jobs)

    times, failed, problems = [], 0, []
    if tracer is None:
        paces = []
        start = time.monotonic()
        for r in range(ROUNDS[args.workload]):
            if r and time.monotonic() - start > OVERRUN * args.seconds:
                sys.stderr.write(f"stopped after {r} rounds: past {OVERRUN} x --seconds\n")
                break
            t, f, pr = run_round(jobs, paces=paces)
            times += t
            failed += f
            problems += pr
        result = {"job_wall_s": times, "paces": paces}
        times = scaled(times, paces)
    else:
        # each job untraced, then traced, so that the machine's drifts in
        # speed cancel in the overhead ratio
        base = []
        for job in jobs:
            b, _, pr = run_round([job])
            t, f, pr_traced = run_round([job], tracer)
            base += b
            times += t
            failed += f
            problems += pr + pr_traced
        table = tracer.table()
        table["trace.overhead_ratio"] = (sum(times) / sum(base), "ratio")
        result = {"per_layer": table}
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "jobs": len(jobs), "per_layer": table}, fh, indent=1, sort_keys=True)

    problems += oracle_self_check()
    result.update({
        "setup_s": setup_s,
        "attempted": len(times),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "job_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
