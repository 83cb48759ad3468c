#!/usr/bin/env python3
"""Steadiness runs: is each end-to-end metric steady enough for its bound?

Usage (from the root of the repository):

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads batch-wide]
        [--seconds 50] [--record perfbench/STEADINESS.json --label set-1]

Runs perfbench/run.py once per workload and seed (untraced), and reports
for every end-to-end metric of BENCHMARK.json the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median beside the metric's bound. With --record the set is
appended to a JSON record; when the record already holds a set for the same
workload, the new medians are also compared against the first set's: a
median worse by more than the bound is flagged. Exits 1 if any run failed
its checks, any spread (setup_s excepted) exceeds its bound, or a median
comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    return proc.returncode == 0 and result.get("correct"), result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "values": values}


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--record")
    p.add_argument("--label", default="")
    args = p.parse_args(argv)

    record = {"sets": []}
    if args.record and os.path.exists(args.record):
        with open(args.record) as f:
            record = json.load(f)
    ok = True
    new_set = {"label": args.label, "seeds": args.seeds,
               "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            correct, result = run_once(workload, seed, args.seconds)
            if not correct:
                print(f"{workload} seed {seed}: FAILED "
                      f"({result.get('failed')} failed operations)")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        if len(values["run_s"]) < 4:
            ok = False
            continue
        first = next((s["workloads"][workload] for s in record["sets"]
                      if workload in s["workloads"]), None)
        summary = {}
        for m in spec["end_to_end"]:
            s = summarize(values[m["name"]])
            summary[m["name"]] = s
            verdict = "ok"
            if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                verdict, ok = "SPREAD OVER BOUND", False
            elif s["spread"] > m["bound"] / 3:
                verdict = "spread over a third of the bound"
            line = (f"  {workload:13s} {m['name']:16s} median {s['median']:.6g}"
                    f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread "
                    f"{s['spread']:.4f} bound {m['bound']}")
            if first is not None:
                w = worse_by(first[m["name"]]["median"], s["median"],
                             m["better"])
                line += f" vs first set {w:+.4f}"
                if w > m["bound"]:
                    verdict, ok = "MEDIAN WORSE THAN FIRST SET", False
            print(f"{line}: {verdict}")
        new_set["workloads"][workload] = summary
    if args.record:
        record["sets"].append(new_set)
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
