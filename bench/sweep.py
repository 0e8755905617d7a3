"""Run the benchmark over several seeds and summarize it.

    python3 bench/sweep.py --seeds 1-10 [--trace-seed 1]
                           [--label x --out bench/results/BENCH_x.json]

Runs the command of BENCHMARK.json once per workload of BENCHMARK.json and
seed, as a separate process, and prints for each end-to-end metric the
median, the quartiles and the spread (Q3 - Q1) / median against the
metric's bound.  --trace-seed adds one traced run per workload for the
per-layer metrics.  --out writes everything, with the machine, to a BENCH
file: the record a performance change quotes before and after.  With each
run it keeps the run's notes from .bench_out/ (passes, calls, the tail's
percentile), so a later BENCH file can show that it ranks the same
samples.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

ROOT = run.ROOT


def run_once(spec, workload, seed, trace):
    """(result, notes) of one run: its last stdout line and the notes of
    its full record."""
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if proc.returncode or not result["correct"]:
        sys.exit("%s seed %d trace %d failed:\n%s%s" % (
            workload, seed, trace, proc.stdout, proc.stderr))
    with open(os.path.join(run.OUT, "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as fh:
        return result, json.load(fh)["notes"]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--label", default="")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        notes = []
        for seed in args.seeds:
            result, note = run_once(spec, workload, seed, 0)
            metrics = result["metrics"]
            notes.append(note)
            for name in values:
                values[name].append(metrics[name]["value"])
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in metrics.items())),
                flush=True)
        stats = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"],
                "values": vals}
            print("  %-16s median %-12.6g spread %.3f  (bound %.2f, a third "
                  "%.3f)" % (m["name"], med, (q3 - q1) / med, m["bound"],
                             m["bound"] / 3), flush=True)
        summary[workload] = {
            "seeds": args.seeds, "end_to_end": stats,
            "passes": [n["passes"] for n in notes],
            "calls": [n["calls"] for n in notes],
            "tail_percentile": [n["tail_percentile"] for n in notes]}
        if args.trace_seed is not None:
            result, note = run_once(spec, workload, args.trace_seed, 1)
            summary[workload]["per_layer"] = {
                "seed": args.trace_seed, "notes": note,
                "metrics": result["metrics"]}

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"label": args.label, "machine": run.machine(),
                       "run_seconds": spec["run_seconds"],
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
