"""Check the benchmark itself, in tiny mode (under a minute).

    python3 bench/selfcheck.py

1. Every workload runs clean with --tiny, untraced and traced.
2. A corrupted output (one flipped byte; one sieve row dropped) makes the
   run report failed > 0 and exit non-zero.
3. In a directory holding only BENCHMARK.json and bench/, without the
   vkalex sources, the benchmark exits non-zero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

import gen
import run


def bench(args, cwd=run.ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"),
            "--tiny", "--seconds", "1"] + args
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    return proc.returncode, result, proc


def main():
    problems = []

    def expect(ok, what, proc):
        print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
        if not ok:
            problems.append(what)
            print(proc.stdout[-2000:] + proc.stderr[-2000:])

    for workload in gen.WORKLOADS:
        for trace in ("0", "1"):
            rc, result, proc = bench(["--workload", workload, "--seed", "1",
                                      "--trace", trace])
            expect(rc == 0 and result and result["correct"]
                   and result["failed"] == 0,
                   "%s --trace %s runs clean" % (workload, trace), proc)
        corruptions = ["flip"] + (["drop-row"]
                                  if workload == "sieve-census" else [])
        for how in corruptions:
            rc, result, proc = bench(["--workload", workload, "--seed", "1",
                                      "--corrupt", how])
            expect(rc != 0 and result and result["failed"] > 0
                   and not result["correct"],
                   "%s --corrupt %s is caught" % (workload, how), proc)

    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    rc, result, proc = bench(["--workload", "delta-large", "--seed", "1"],
                             cwd=bare)
    expect(rc != 0 and result is None,
           "without the sources: exit %d and no result" % rc, proc)
    shutil.rmtree(bare)

    print("selfcheck: %s" % ("FAILED: %s" % problems if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
