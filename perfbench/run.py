#!/usr/bin/env python3
"""Build and run the numasim end-to-end benchmark.

usage: python3 perfbench/run.py --workload lu_table1|kv_shift|migrate_mech
                                --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (and the numasim libraries from src/) with
CMake into $CARGO_TARGET_DIR, or .bench_build when unset, relative to the
repository root. Then runs the benchmark binary, relays its report, checks
that the metric names match BENCHMARK.json, and prints the result JSON as
the last line. Exits non-zero when the build fails, a correctness check
fails, or the output is malformed. With --trace 1 the spans of the last
traced pass are written to <build dir>/trace-<workload>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lu_table1", "kv_shift", "migrate_mech")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(proc.stdout, end="")
        print("perfbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)

    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        print("perfbench: metrics differ from BENCHMARK.json: got %s, want %s"
              % (sorted(result["metrics"]), sorted(want)), file=sys.stderr)
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
