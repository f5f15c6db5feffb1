"""Run-to-run spread of the end-to-end metrics, from which the bounds follow.

    python3 bench/spread.py --seconds 20 --runs 10 --sets 2 [--workloads poles spectrum]

Runs ``bench/run.py`` ``runs`` times per set and workload, each run with
its own seed, interleaving sets and workloads (run r of every set and
workload comes before run r + 1 of any). For each set it prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the interquartile range
as a share of the median, and for the second and later sets how far their
median moved from the first set's, in the direction that is worse. The
shares of failed jobs must be the same in every run of a workload. Raw
results go to bench/results/spread.json. The unscaled wall-clock figures
that run.py writes to standard error are summarized beside the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("poles", "spectrum", "scatter", "isoscatter")
UNSCALED = "unscaled wall-clock: "


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # run.py's unscaled figures, "unscaled wall-clock: name=value ...", for comparison
    line = [ln for ln in proc.stderr.splitlines() if ln.startswith(UNSCALED)][-1]
    result["unscaled"] = {k: float(v) for k, v in
                          (f.split("=") for f in line[len(UNSCALED):].split() if "=" in f)}
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    raw = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for r in range(args.runs):
        for s in range(args.sets):
            for w in args.workloads:
                seed = args.first_seed + s * args.runs + r
                result = run_once(w, seed, args.seconds)
                raw[w][s].append({"seed": seed, **result})
                print(f"run {r} set {s} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + f" failed={result['failed']}/{result['attempted']}"
                      + ("" if result["correct"] else " WRONG"), flush=True)

    report = {}
    for w, sets in raw.items():
        shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
        report[w] = {"failed_shares": sorted(shares), "metrics": {}}
        for name in sets[0][0]["metrics"]:
            stats = [summarize([run["metrics"][name]["value"] for run in runs]) for runs in sets]
            for st in stats[1:]:
                worse = st["median"] / stats[0]["median"] - 1.0
                st["worse_than_first"] = worse if better[name] == "lower" else -worse
            report[w]["metrics"][name] = stats
            print(f"{w:10s} {name:12s} " + " | ".join(
                f"median {st['median']:.4g} spread {st['spread']:.3f}"
                + (f" worse {st['worse_than_first']:+.3f}" if "worse_than_first" in st else "")
                for st in stats))
        for name in sets[0][0]["unscaled"]:
            stats = [summarize([run["unscaled"][name] for run in runs]) for runs in sets]
            report[w]["metrics"][f"unscaled {name}"] = stats
            print(f"{w:10s} unscaled {name:12s} " + " | ".join(
                f"median {st['median']:.4g} spread {st['spread']:.3f}" for st in stats))
        print(f"{w:10s} failed shares {sorted(shares)}")

    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "spread.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": raw, "summary": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
