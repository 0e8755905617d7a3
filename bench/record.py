"""Record the benchmark corpus and the digests of its outputs.

    python3 bench/record.py --label <commit>

Builds the corpus (gen.build_corpus), runs every call the workloads can make
on it through vkalex.cli.main, and writes golden.json: the corpus, one
digest of stdout per delta/ideals/group call, and one digest per census row
of the sieve.  Outputs are checked against the facts of check.py first.
Run it only at a commit whose outputs are trusted: the benchmark fails
every later commit whose outputs differ.  Takes a few minutes.
"""

import argparse
import json
import os
import time

import check
import gen
import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True,
                    help="the commit the outputs are recorded from")
    args = ap.parse_args()
    cli = run.load_cli()
    corpus = gen.build_corpus()

    argvs = []
    for codes in corpus["delta"].values():
        for code in codes:
            argvs += [["delta", code], ["delta", "--unit-class", "exact", code]]
    ideals_codes = list(gen.TABLE1.values())
    for codes in corpus["ideals"].values():
        ideals_codes += codes
    for code in ideals_codes:
        argvs += gen.ideals_argvs(code)

    digests = {}
    for argv in argvs:
        t0 = time.perf_counter()
        rc, out, err = run.call_cli(cli, argv)
        if rc or err:
            raise SystemExit("%s: exit %d %s" % (argv, rc, err))
        key = " ".join(argv)
        if argv[0] == "delta" and not check.divisible_by_1_minus_st(
                check.parse_poly(out.split("\n")[0])):
            raise SystemExit("%s: delta0 not divisible by (1 - st)" % key)
        digests[key] = check.digest(out)
        print("%8.3f s  %s" % (time.perf_counter() - t0, key), flush=True)

    codes = (list(gen.TABLE1.values()) + corpus["sieve_knots"]
             + corpus["sieve_links"])
    os.makedirs(run.OUT, exist_ok=True)
    census = os.path.join(run.OUT, "record.census")
    with open(census, "w") as fh:
        for i, code in enumerate(codes):
            fh.write("c%04d  %s\n" % (i, code))
    rc, out, err = run.call_cli(
        cli, ["sieve", "--format", "json", "--serial", "--census", census])
    if rc or err:
        raise SystemExit("sieve: exit %d %s" % (rc, err))
    rows = json.loads(out)["rows"]
    if len(rows) != len(codes):
        raise SystemExit("sieve: %d rows for %d codes" % (len(rows), len(codes)))
    sieve_rows = {}
    for code, row in zip(codes, rows):
        name = check.TABLE1_NAME.get(code, row["name"])
        reason = check.row_invariants(name, code, row)
        if reason:
            raise SystemExit(reason)
        sieve_rows[code] = check.row_digest(row)
    print("sieve: %d rows" % len(sieve_rows))

    golden = {"label": args.label, "corpus": corpus, "digests": digests,
              "sieve_rows": sieve_rows}
    with open(os.path.join(run.BENCH, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
