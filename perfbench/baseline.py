"""Repeat the benchmark over several seeds and write a BENCH_*.json summary.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/BENCH_<rev>.json

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed (one at a time) and records each end-to-end metric's median, first
and third quartiles (``statistics.quantiles(values, n=4)``) and spread,
(q3 - q1) / median, next to the metric's bound.  One ``--trace 1`` run per
workload, on the first seed, adds the per-layer metrics.  Run it on the
parent commit and on a change to get a before and an after.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    record = next(json.loads(line)["run_record"] for line in lines if line.startswith('{"run_record"'))
    return record, json.loads(lines[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="lo-hi range")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        for seed in seeds:
            record, result = run_once(name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        _, traced = run_once(name, seeds[0], seconds, 1)
        e2e = {m["name"]: {"unit": m["unit"], **summarize(values[m["name"]], m["bound"])} for m in spec["end_to_end"]}
        summary["workloads"][name] = {
            "end_to_end": e2e,
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "error_rate": (failed + traced["failed"]) / (attempted + traced["attempted"]),
            "per_layer_seed": seeds[0],
            "per_layer": traced["metrics"],
        }
        for metric, s in e2e.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"{name:14s} {metric:12s} median {s['median']:.4g} {s['unit']}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}{flag}", flush=True)
    summary["record"] = {k: record[k] for k in ("git_revision", "source_sha256", "nproc", "affinity_cpus", "python",
                                                "numpy", "blas", "blas_env")}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
