#!/usr/bin/env python3
"""The repository benchmark: one command, seeded workloads, checked outputs.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 50 --trace 0

Builds hmr_perfbench (perfbench/perfbench.cpp over the library sources,
CMake, Release) into .bench_build/ (or $CARGO_TARGET_DIR when set), runs
one workload, checks its outputs and prints every metric by name with its
unit. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. A failed check makes "correct" false and the
exit code 1. Bad arguments, a missing source tree or a failed build exit
with code 2 and print no result. perfbench/README.md describes the
workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch-wide", "hybrid-sla", "whatif-sweep")
RUN_TIMEOUT_S = 170


class SetupError(Exception):
    """The benchmark cannot run here: no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: small inputs, and deliberately broken outputs that
    # the checks must catch.
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--inject", default="none",
                   choices=("none", "corrupt-digest", "child-failure",
                            "digest-store"))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench-cmake")


def build():
    """Configures (once) and builds hmr_perfbench; returns its path."""
    for need in ("perfbench/CMakeLists.txt", "src/harness/testbed.h",
                 "BENCHMARK.json"):
        if not os.path.isfile(need):
            raise SetupError(f"{need} not found; run from the repository root")
    if shutil.which("cmake") is None:
        raise SetupError("cmake not found")
    out = build_dir()
    log = sys.stderr
    ninja = shutil.which("ninja") is not None
    generated = os.path.join(out, "build.ninja" if ninja else "Makefile")
    if not os.path.isfile(generated):
        cmd = ["cmake", "-S", "perfbench", "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if ninja:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise SetupError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        raise SetupError("build failed")
    return os.path.join(out, "hmr_perfbench")


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_digest_history(binary, args, digest):
    """Same binary, workload, seed and size must give the same digest in
    every run. Digests are kept under the build directory."""
    path = os.path.join(build_dir(), "digests.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = f"{file_sha(binary)}/{args.workload}/{args.seed}/{args.size}"
    if args.inject == "digest-store":
        earlier = "0" * 16  # as if an earlier run had disagreed
    else:
        earlier = seen.setdefault(key, digest)
        with open(path + ".tmp", "w") as f:
            json.dump(seen, f, indent=0, sort_keys=True)
        os.replace(path + ".tmp", path)
    return {"name": "digest_matches_earlier_runs", "ok": earlier == digest,
            "detail": f"earlier {earlier}, now {digest}"}


def run(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.inject in ("corrupt-digest", "child-failure"):
        cmd += ["--inject", args.inject]
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items()
           if k not in ("HYBRIDMR_PROFILE", "HYBRIDMR_LOG")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise SetupError(f"hmr_perfbench exceeded {RUN_TIMEOUT_S} s") from e
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise SetupError(
            f"hmr_perfbench exited {proc.returncode} without a result") from e

    checks = list(result["checks"])
    checks.append(check_digest_history(binary, args, result["digest"]))
    emitted = {}
    for group in ("end_to_end", "extra", "per_layer"):
        emitted.update(result[group])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = emitted.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = got
    checks.append({"name": "every_metric_emitted", "ok": not missing,
                   "detail": ", ".join(missing)})

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"episodes {result['episodes']} digest {result['digest']}")
    for name, m in emitted.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              + (f" ({c['detail']})" if c["detail"] else ""))
    # The program counts its own checks; the two added here count too.
    attempted = result["attempted"] + 2
    failed = result["failed"] + sum(1 for c in checks[-2:] if not c["ok"])
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv):
    args = parse_args(argv)
    try:
        return run(args)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
