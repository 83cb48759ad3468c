#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage (from the root of the repository): python3 perfbench/selftest.py

Runs perfbench/run.py on tiny inputs and checks that:
  - bad arguments exit with code 2 and print no result;
  - every workload emits every metric of BENCHMARK.json with its unit,
    traced and untraced, and passes its output checks;
  - the sim_ metrics repeat exactly for a seed;
  - a corrupted digest, an injected what-if child failure and a digest that
    disagrees with an earlier run are each caught (correct=false, exit 1);
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Takes about 15 s once the benchmark is built.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
failures = []


def expect(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        failures.append(what)


def run(args, cwd=None):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=cwd,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def tiny(workload, seed=1, trace=0, inject=None):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny"]
    return run(args + (["--inject", inject] if inject else []))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    print("argument parsing")
    for bad in ([], ["--workload", "nope", "--seed", "1", "--seconds", "1"],
                ["--workload", "batch-wide", "--seconds", "1"],
                ["--workload", "batch-wide", "--seed", "-1", "--seconds", "1"],
                ["--workload", "batch-wide", "--seed", "1", "--seconds", "0"],
                ["--workload", "batch-wide", "--seed", "1", "--seconds", "1",
                 "--trace", "2"]):
        code, result = run(bad)
        expect(code == 2 and result is None, f"rejects {bad}")

    print("metrics and checks, tiny inputs")
    for workload in [w["name"] for w in spec["workloads"]] + ["hybrid-sla"]:
        sims = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer"), (0, None)):
            code, r = tiny(workload, trace=trace)
            expect(code == 0 and r is not None and r["correct"]
                   and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{workload} trace={trace}: passes its checks")
            if r is None:
                continue
            if group is None:
                sims.append({k: v for k, v in r["metrics"].items()
                             if k.startswith("sim_")})
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: emits every "
                   f"{group} metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in r["metrics"].values()),
                   f"{workload} trace={trace}: every value a finite number")
            if trace == 0:
                sims.append({k: v for k, v in r["metrics"].items()
                             if k.startswith("sim_")})
        expect(len(sims) == 2 and sims[0] == sims[1] and sims[0],
               f"{workload}: sim_ metrics repeat exactly for a seed")

    print("injected faults are caught")
    for workload, inject in (("batch-wide", "corrupt-digest"),
                             ("whatif-sweep", "corrupt-digest"),
                             ("whatif-sweep", "child-failure"),
                             ("batch-wide", "digest-store")):
        code, r = tiny(workload, inject=inject)
        expect(code == 1 and r is not None and not r["correct"]
               and r["failed"] >= 1, f"{workload} --inject {inject}")

    print("no source tree")
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, r = run(["--workload", "batch-wide", "--seed", "1", "--seconds",
                   "1"], cwd=bare)
    expect(code != 0 and r is None, "exits non-zero without a result")
    shutil.rmtree(bare)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
