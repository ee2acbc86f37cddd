"""Run workloads over several seeds and summarize the spread of each metric.

Run from the repository root:

    python3 bench/baseline.py --seeds 1-10 [--workloads plane,cold]
                              [--out bench/baseline.json]

Each seed runs ``bench/run.py --trace 0`` in its own process for
``run_seconds`` from BENCHMARK.json; the first seed also runs once with
``--trace 1``.  For every end-to-end metric the script prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound.  With ``--out`` it writes
the summary, the per-layer metrics of the traced run and the machine to a
JSON file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", type=parse_seeds)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            res = bench(workload, seed, spec["run_seconds"], 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"unit": units[name], "median": med, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / med,
                          "values": vals}
            print(f"{workload:9s} {name:14s} median {med:<12.6g} "
                  f"{units[name]:5s} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = bench(workload, args.seeds[0], spec["run_seconds"], 1)
        summary[workload] = {
            "seeds": args.seeds, "end_to_end": rows,
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()}}
    if args.out:
        doc = {"machine": run.machine(), "run_seconds": spec["run_seconds"],
               "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
