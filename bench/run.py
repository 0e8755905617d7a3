"""The vkalex benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload delta-large --seed 1 --seconds 25 --trace 0

Calls `vkalex.cli.main` in-process, one call after another from a single
client (closed loop), with stdout and stderr captured, and checks every
output (see check.py).  With --trace 0 it makes as many whole passes over
the workload (see gen.py) as take about --seconds at the recorded commit,
and reports the end-to-end metrics; with --trace 1 it runs one pass
untraced, then the same pass traced, then untraced again, and reports the
per-layer metrics (see tracing.py).
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it give each metric with its unit, failed_frac and the
machine.  A full record goes to .bench_out/.

Exit status: 0 when every output is correct, 1 when one is not or when the
vkalex sources are missing, 2 on bad arguments.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import check
import gen
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

# Seconds one pass takes at the recorded commit on the reference machine
# (2 vCPUs).  A run makes the number of passes that takes about --seconds
# there; the count, not a clock, ends the run, so every run of a workload
# makes the same calls and its latency percentiles rank the same number of
# samples.
PASS_SECONDS = {"delta-large": 12, "ideals-census": 16, "sieve-census": 3.2}
# The trivial call a fresh interpreter makes for setup_s, and its output.
SETUP_CALL = (["delta", "O1+U2+O3+U1+O2+U3+"], "0\nzero: true\n")
SETUP_RUNS = 15


def load_cli():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vkalex", "cli.py")):
        sys.exit("bench: no vkalex sources under %s" % src)
    sys.path.insert(0, src)
    from vkalex import cli
    return cli


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call.  An escaping
    exception is a failed call, as its traceback would be for a user."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:
            rc = 1
            err.write("%s: %s" % (type(exc).__name__, exc))
    return rc, out.getvalue(), err.getvalue()


def run_calls(cli, calls):
    """Run calls in order; returns ([(call, rc, out, err, seconds)], wall)."""
    results = []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        rc, out, err = call_cli(cli, call.argv)
        results.append((call, rc, out, err, time.perf_counter() - t0))
    return results, time.perf_counter() - start


def run_passes(cli, passes, count, weight):
    """Closed loop over `count` whole passes.  Returns (results, work
    items done, wall seconds)."""
    results = []
    done = 0
    start = time.perf_counter()
    for _ in range(count):
        for item in next(passes):
            results += run_calls(cli, item)[0]
            done += weight(item)
    return results, done, time.perf_counter() - start


def corrupt(results, how):
    """Self-check: damage the first output the way a bug might."""
    call, rc, out, err, dt = results[0]
    if how == "flip":
        i = len(out) // 2
        out = out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1:]
    elif call.check[0] == "sieve":
        doc = json.loads(out)
        doc["rows"].pop()
        out = json.dumps(doc, indent=2) + "\n"
    else:
        out = out[:out.rstrip("\n").rfind("\n") + 1]
    results[0] = (call, rc, out, err, dt)


def setup_seconds():
    """Median wall time of a fresh interpreter importing vkalex.cli and
    making one trivial call; a first, untimed run warms the caches."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from vkalex.cli import main; sys.exit(main(sys.argv[2:]))")
    argv = [sys.executable, "-c", code, os.path.join(ROOT, "src")]
    argv += SETUP_CALL[0]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        dt = time.perf_counter() - t0
        if proc.returncode or proc.stdout != SETUP_CALL[1]:
            return None, "setup call: exit %d, stdout %r, stderr %r" % (
                proc.returncode, proc.stdout, proc.stderr[-300:])
        if i:
            times.append(dt)
    return statistics.median(times), None


def tail(latencies):
    """(value, percentile) of the tail: the highest order statistic with
    ten samples above it, or the maximum when there are at most ten."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb():
    """Peak resident set of this process plus the largest child's (the
    sieve's pool workers), read before any other child is started.
    RUSAGE_CHILDREN gives only the largest child's peak, not the sum, and
    a forked worker's peak also counts the pages it shares with us."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def machine():
    workers = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "sieve_default_workers": workers,
    }


def end_to_end(cli, passes, args, weight):
    count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    results, done, wall = run_passes(cli, passes, count, weight)
    if args.corrupt:
        corrupt(results, args.corrupt)
    latencies = [r[4] * 1000 for r in results]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "items_per_s": done / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    setup, setup_problem = setup_seconds()
    metrics["setup_s"] = setup
    notes = {"passes": count, "calls": len(results), "items": done,
             "wall_s": wall,
             "tail_percentile": tail_pct,
             "setup_runs": SETUP_RUNS}
    extra = [setup_problem] if setup_problem else []
    return results, metrics, notes, extra


def traced(cli, passes, args):
    """One pass untraced, traced, untraced again: the overhead is taken
    against the mean of the two untraced passes, which cancels a steady
    drift of the machine's speed."""
    calls = [call for item in next(passes) for call in item]
    before, wall_a = run_calls(cli, calls)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, wall_b = run_calls(cli, calls)
        mid = len(tracer.spans)
        serial = []
        if args.workload == "sieve-census":
            # Rows run in pool workers, whose spans stay there: one serial
            # pass over the same census gives the per-row layers.
            serial_calls = [gen.Call(c.argv + ["--serial"], c.check)
                            for c in calls]
            serial = run_calls(cli, serial_calls)[0]
        end = len(tracer.spans)
    finally:
        tracer.uninstall()
    after, wall_c = run_calls(cli, calls)
    results = before + results + serial + after
    if args.corrupt:
        corrupt(results, args.corrupt)
    spans = tracer.spans
    if serial:
        metrics = tracing.layer_metrics(spans, mid, end)
        parallel = tracing.layer_metrics(spans, 0, mid)
        for key in ("sieve.run_sieve_s", "sieve.workers"):
            metrics[key] = parallel[key]
        row_busy = sum(s[2] - s[1] for s in spans[mid:end]
                       if s[0] == "sieve.row") / 1e9
        if parallel["sieve.workers"] and parallel["sieve.run_sieve_s"]:
            metrics["sieve.parallel_efficiency"] = row_busy / (
                parallel["sieve.workers"] * parallel["sieve.run_sieve_s"])
    else:
        metrics = tracing.layer_metrics(spans, 0, mid)
    untraced_wall = (wall_a + wall_c) / 2
    metrics["trace.overhead_frac"] = (wall_b - untraced_wall) / untraced_wall
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, "spans-%s-seed%d.jsonl"
                             % (args.workload, args.seed))
    tracer.write(span_file)
    notes = {"calls_per_pass": len(calls),
             "untraced_wall_s": [wall_a, wall_c], "traced_wall_s": wall_b,
             "spans": len(spans),
             "span_file": os.path.relpath(span_file, ROOT)}
    return results, metrics, notes, []


def main():
    ap = argparse.ArgumentParser(description="vkalex benchmark, one run")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs; every workload takes seconds")
    ap.add_argument("--corrupt", choices=("flip", "drop-row"),
                    help="self-check: damage the first output before "
                         "checking, which must fail the run")
    args = ap.parse_args()

    cli = load_cli()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)
    checker = check.Checker(golden)
    inputs = os.path.join(OUT, "inputs-%s-seed%d" % (args.workload, args.seed))
    passes = gen.workload(args.workload, args.seed, golden["corpus"], inputs,
                          args.tiny)

    def weight(item):
        # sieve-census counts census rows, the others Gauss codes
        if item[0].check[0] == "sieve":
            return len(item[0].check[1]["rows"])
        return 1

    if args.trace:
        results, metrics, notes, problems = traced(cli, passes, args)
    else:
        results, metrics, notes, problems = end_to_end(cli, passes, args,
                                                       weight)
    for call, rc, out, err, _ in results:
        reason = checker.check(call, rc, out, err)
        if reason:
            problems.append(reason)
    attempted = len(results) + (0 if args.trace else SETUP_RUNS + 1)
    failed = len(problems)
    info = machine()

    print("machine: python %s, nproc %d, os.cpu_count %d, sieve workers %d, "
          "%s" % (info["python"], info["nproc"], info["os_cpu_count"],
                  info["sieve_default_workers"], info["platform"]))
    print("workload %s, seed %d, trace %d: %s" % (
        args.workload, args.seed, args.trace,
        ", ".join("%s %s" % kv for kv in notes.items())))
    for reason in problems[:10]:
        print("FAILED: %s" % reason)
    for name, unit in units.items():
        value = metrics[name]
        note = ""
        if name == "latency_tail_ms":
            note = "  (p%.1f of %d calls)" % (notes["tail_percentile"],
                                              notes["calls"])
        print("%-28s %s %s%s" % (name, value, unit, note))
    print("%-28s %s ratio  (%d of %d calls)" % (
        "failed_frac", failed / attempted, failed, attempted))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": info, "notes": notes,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "problems": problems,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
