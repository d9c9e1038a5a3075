#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 prombench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 prombench/run.py --self-check [--seconds <s>]

Builds the `prom` library with the repository's own CMakeLists.txt and the
benchmark program next to it under .bench_build/, then runs one workload with
the pool pinned to PROM_THREADS=2 lanes. The program's last output line is the
result object; this script checks it against BENCHMARK.json (every metric of
the run's kind present, with its unit) before passing it on.

--self-check runs every workload briefly, untraced and traced, and asserts that
every metric named in BENCHMARK.json is emitted with its unit and that every
phase reports its attempted/succeeded/failed operations.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LANES = "2"
RUN_TIMEOUT_S = 170
REQUIRED_CONFIG = ("workload", "seed", "prom_threads_env", "pool_lanes",
                   "store.entries", "setup.repetitions")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    prom_dir = os.path.join(BUILD, "prom")
    bench_dir = os.path.join(BUILD, "bench")
    steps = [
        ["cmake", "-S", ROOT, "-B", prom_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DPROM_BUILD_TESTS=OFF", "-DPROM_BUILD_BENCHES=OFF",
         "-DPROM_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", prom_dir, "--target", "prom", "-j", jobs],
        ["cmake", "-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DPROM_LIBRARY=" + os.path.join(prom_dir, "libprom.a")],
        ["cmake", "--build", bench_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(bench_dir, "prombench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs the benchmark program; returns (stdout lines, result object or None)."""
    env = dict(os.environ, PROM_THREADS=LANES)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
        return [], None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with {proc.returncode}")
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last output line is not a JSON object")
        return lines, None


def check_result(spec, result, trace, nonzero=False):
    """Problems with a result object, as a list of strings; with nonzero,
    an end-to-end metric reading 0 is one too."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    for extra in sorted(set(got) - names):
        problems.append(f"metric {extra} is not in BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"metric {m['name']} missing")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {entry.get('unit')}"
                            f", BENCHMARK.json says {m['unit']}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {m['name']} has no numeric value")
        elif nonzero and not trace and entry["value"] == 0:
            problems.append(f"end-to-end metric {m['name']} is 0")
    return problems


def check_detail(lines):
    """Problems with the detail line printed before the result."""
    if len(lines) < 2:
        return ["no detail line"]
    try:
        detail = json.loads(lines[-2])
    except json.JSONDecodeError:
        return ["detail line is not JSON"]
    problems = []
    for key in REQUIRED_CONFIG:
        if key not in detail.get("config", {}):
            problems.append(f"config entry {key} missing")
    phases = detail.get("phases", [])
    if not phases:
        problems.append("no phases reported")
    for p in phases:
        for key in ("attempted", "succeeded", "failed"):
            if not isinstance(p.get(key), int):
                problems.append(f"phase {p.get('name')} lacks {key}")
        if p.get("attempted") != p.get("succeeded", 0) + p.get("failed", 0):
            problems.append(f"phase {p.get('name')}: attempted != "
                            "succeeded + failed")
    return problems


def self_check(binary, seconds):
    spec = load_spec()
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            lines, result = run_workload(binary, w["name"], 1, seconds, trace)
            problems = ["no result"] if result is None else (
                check_result(spec, result, trace, nonzero=True) +
                check_detail(lines))
            if result is not None and not result["correct"]:
                problems.append("correctness gate failed")
            status = "ok" if not problems else "; ".join(problems)
            print(f"self-check {w['name']} trace={trace} "
                  f"({time.monotonic() - t0:.0f}s): {status}", flush=True)
            failures += bool(problems)
    print("self-check: " + ("ok" if failures == 0 else f"{failures} failed"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return self_check(binary, args.seconds if "--seconds" in sys.argv
                          else 4)

    lines, result = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        return 1
    problems = check_result(load_spec(), result, args.trace)
    if problems:
        for line in lines:
            print(line, file=sys.stderr)
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
