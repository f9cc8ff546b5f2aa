#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload set_uniform --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own CMake package over ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
verifier self-test, then one run of the workload. The last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

A traced run also reports its tracing overhead: it first makes an untraced
run with the same seed and length, then compares its own end-to-end metrics
with that run's. Both runs' answers are checked and counted.

Exits non-zero, without a result line, when the library sources are not
there to build from, when the build or the self-test fails; exits non-zero
after the result line when any answer was wrong.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("set_uniform", "serve_timeseries", "graph_rmat")
DEADLINE_S = 172  # a run, build excluded, ends within this


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "pma", "cpma.hpp")):
        log(f"library sources not found under {ROOT}/src; nothing to build")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_binary(binary, args, timeout):
    """Runs one workload; returns (exit code, stdout lines)."""
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=timeout)
    return r.returncode, r.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def slowdown(name, traced, untraced):
    """Fractional cost of tracing on one end-to-end metric."""
    if name.endswith("_per_s"):
        return untraced / traced - 1.0
    return traced / untraced - 1.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    build(build_dir)
    start = time.monotonic()

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=120)
    if selftest.returncode != 0:
        log("verifier self-test failed")
        sys.exit(3)

    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "run")

    def run(trace):
        code, lines = run_binary(
            binary, ["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", repr(a.seconds), "--trace", str(trace),
                     "--work-dir", work_dir],
            max(1.0, DEADLINE_S - (time.monotonic() - start)))
        result = parse_result(lines)
        if result is None:
            sys.stdout.write("\n".join(lines) + "\n")
            log("run printed no result")
            sys.exit(code or 4)
        return code, lines, result

    if not a.trace:
        code, lines, _ = run(0)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    # The untraced baseline: same seed, same length, same invocation.
    base_code, _, base = run(0)
    code, lines, result = run(1)

    traced = {}
    for line in lines[:-1]:
        if line.startswith('{"e2e_traced"'):
            traced = json.loads(line)["e2e_traced"]
    per_metric = {}
    for name, m in traced.items():
        u = base["metrics"].get(name)
        if u is None or name == "bytes_per_key" or u["value"] == 0 or m["value"] == 0:
            continue
        per_metric[name] = slowdown(name, m["value"], u["value"])
    overhead = 100.0 * statistics.median(per_metric.values()) if per_metric else 0.0
    result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    # Wrong answers of the baseline run count too.
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    result["correct"] = result["correct"] and base["correct"]
    code = code or base_code
    print("\n".join(lines[:-1]))
    print(json.dumps({"tracing_overhead": {
        "baseline": "untraced run with the same seed, made just before",
        "slowdown_by_metric": per_metric}}))
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
