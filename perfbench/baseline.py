#!/usr/bin/env python3
"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

usage: python3 perfbench/baseline.py [--label TEXT]
                                     [--out perfbench/baseline.json]

For every workload of BENCHMARK.json, runs `run.py --trace 0` once per seed
1..10 for BENCHMARK.json's run_seconds and records, for every end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound. Then runs
`run.py --trace 1` once with the default seed and records the per-layer
breakdown. Exits non-zero if any run fails or any spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 1000003
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    header = next((l for l in lines if l.startswith("# perfbench")), "")
    print("%s seed=%d trace=%d exit=%d %s" % (workload, seed, trace,
                                              proc.returncode, header),
          flush=True)
    return result


def summarize(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    out = {"label": args.label, "default_seed": DEFAULT_SEED,
           "held_out_seed": HELD_OUT_SEED, "seeds": SEEDS,
           "run_seconds": seconds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        values, units, attempted = {}, {}, 0
        for seed in SEEDS:
            r = run(w, seed, seconds, 0)
            if r is None or not r["correct"]:
                ok = False
                continue
            attempted += r["attempted"]
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        e2e = {}
        for name, v in values.items():
            e2e[name] = summarize(v, units[name])
            e2e[name]["bound"] = bounds[name]
            spread = e2e[name]["spread"]
            if spread is None or spread > bounds[name]:
                ok = False
            print("  %-12s median %-12.6g spread %.3f (bound %.2f)"
                  % (name, e2e[name]["median"], spread or 0, bounds[name]))
        traced = run(w, DEFAULT_SEED, seconds, 1)
        if traced is None:
            ok = False
        out["workloads"][w] = {
            "checks_attempted": attempted,
            "end_to_end": e2e,
            "per_layer": {k: m["value"]
                          for k, m in (traced or {"metrics": {}})["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
