"""Seeded inputs for the vkalex benchmark.

Two layers of randomness:

* The corpus.  `build_corpus()` draws random Gauss codes from fixed seeds.
  `record.py` runs every corpus call once and stores the codes and the
  digests of their outputs in golden.json, so each output can be checked.
* The workload.  `workload(name, seed, corpus)` turns `--seed` into calls
  on the recorded corpus.  The same seed always gives the same calls.
  - sieve-census: the seed draws 380 of the 1000 small corpus knots and 6
    of the 40 links, the row order, where the malformed lines go, and the
    flags.  Rows cost a few ms each, so the sum hardly depends on the draw.
  - delta-large and ideals-census: every pass runs every corpus code once;
    the seed sets the order and which third of the delta calls print the
    exact determinant.  At one crossing number the cost of a knot varies
    tenfold, so drawing a few knots per run would make a run's time depend
    more on the seed than on the program.

Run as a script it writes one workload's inputs, and the calls of one pass
(calls.txt), to a directory:

    python3 bench/gen.py --workload sieve-census --seed 3 --out .bench_out/in
"""

import argparse
import json
import os
import random

WORKLOADS = ("delta-large", "sieve-census", "ideals-census")

# The twelve 4- and 5-crossing knots of the paper's table 1, with their
# published polynomials in product form up to sign and monomial: a list of
# factors (terms, power), terms as {(e_s, e_t): coeff}.  None means Δ0 = 0.
TABLE1 = {
    "4.12": "O1-O2-U1-O3+U2-O4+U3+U4+",
    "5.93": "O1-O2-U1-U2-U3+O4+O3+U5+U4+O5+",
    "5.114": "O1-O2-U1-U2-U3+U4-O3+U5+O4-O5+",
    "5.212": "O1-O2-U1-O3-U2-O4+U5+U3-O5+U4+",
    "5.344": "O1-O2+U1-O3-U2+U4+O5+O4+U5+U3-",
    "5.919": "O1-O2-U1-O3+U4+U2-O5+U3+O4+U5+",
    "5.1034": "O1-O2+U1-O3-U4+U3-O5-U2+O4+U5-",
    "5.1216": "O1-O2+U1-O3-U4+O5-O4+U2+U5-U3-",
    "5.1963": "O1-O2-O3-U1-U2-U4+O5+U3-O4+U5+",
    "5.2351": "O1-O2-U3+O4+U1-U2-O5-U4+O3+U5-",
    "5.2430": "O1-U2-O3+U1-O2-U4-O5+U3+O4-U5+",
    "5.2435": "O1-U2-O3-U1-O4+U3-O5+U4+O2-U5+",
}
_1_T = {(0, 0): 1, (0, 1): -1}
_1_S = {(0, 0): 1, (1, 0): -1}
_T_S = {(0, 1): 1, (1, 0): -1}
_1_ST = {(0, 0): 1, (1, 1): -1}
_1_SS = {(0, 0): 1, (2, 0): -1}
_1_TT = {(0, 0): 1, (0, 2): -1}
TABLE1_PRODUCTS = {
    "4.12": [(_1_T, 1), (_1_S, 1), (_T_S, 1), (_1_ST, 2)],
    "5.93": [(_1_T, 1), (_1_S, 1), (_1_ST, 3)],
    "5.114": None,
    "5.212": [(_1_T, 1), (_1_S, 1), (_1_ST, 3)],
    "5.344": [(_1_SS, 1), (_1_T, 2), (_1_ST, 2)],
    "5.919": [(_1_T, 1), (_1_S, 1), (_1_ST, 3)],
    "5.1034": [(_1_T, 1), (_1_S, 1), (_1_ST, 3)],
    "5.1216": None,
    "5.1963": None,
    "5.2351": [(_1_T, 1), (_1_S, 1), (_1_ST, 3)],
    "5.2430": [(_1_TT, 1), (_1_SS, 1), (_1_ST, 3)],
    "5.2435": [(_1_TT, 1), (_1_SS, 1), (_1_ST, 3)],
}
# Flags for the table-1 rows: graded genus zero exactly on the Δ0 = 0 knots.
TABLE1_GENUS_ZERO = ("5.114", "5.1216", "5.1963")

CORPUS_SEED = "vkalex-bench-corpus-1"
# Crossing numbers of the corpus codes and how many codes of each size.
DELTA_SIZES = (16, 18, 20, 22, 24)
DELTA_PER_SIZE = 3
IDEALS_SIZES = (6, 7, 8, 9, 10)
IDEALS_PER_SIZE = 2
SIEVE_SIZES = (5, 6, 7, 8)
SIEVE_KNOTS = 1000
SIEVE_LINKS = 40

# Shape of one workload.  `tiny` keeps every workload to a few seconds.
SHAPE = {
    False: {"delta_sizes": DELTA_SIZES, "ideals_sizes": IDEALS_SIZES,
            "ideals_table": len(TABLE1), "census_knots": 380,
            "census_links": 6},
    True: {"delta_sizes": DELTA_SIZES[:1], "ideals_sizes": IDEALS_SIZES[:2],
           "ideals_table": 2, "census_knots": 20, "census_links": 2},
}

# Census lines the sieve must skip under --skip-bad: no code, a label used
# once, a bad token, mismatched signs.
MALFORMED = ("onlyname", "O1+U2+U1+", "O1+X2+U1+", "O1+U1-")


def _code(components):
    """Gauss code text of slot lists [(role, chord, sign)], labels in order
    of first appearance."""
    labels = {}
    out = []
    for comp in components:
        toks = []
        for role, chord, sign in comp:
            label = labels.setdefault(chord, len(labels) + 1)
            toks.append("%s%d%s" % (role, label, sign))
        out.append("".join(toks))
    return ",".join(out)


def _chords(rng, slots, n):
    """Assign n random chords to the 2n slots of `slots` (a list of lists)."""
    places = [(ci, pos) for ci, comp in enumerate(slots)
              for pos in range(len(comp))]
    rng.shuffle(places)
    for k in range(n):
        over, under = places[2 * k], places[2 * k + 1]
        if rng.random() < 0.5:
            over, under = under, over
        sign = rng.choice("+-")
        slots[over[0]][over[1]] = ("O", k, sign)
        slots[under[0]][under[1]] = ("U", k, sign)
    return _code(slots)


def random_knot(rng, n):
    """One-component Gauss code with n random chords."""
    return _chords(rng, [[None] * (2 * n)], n)


def random_link(rng, n, ncomps):
    """Gauss code with n random chords over ncomps nonempty circles."""
    cuts = sorted(rng.sample(range(1, 2 * n), ncomps - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [2 * n])]
    return _chords(rng, [[None] * size for size in sizes], n)


def build_corpus():
    """The recorded corpus: distinct codes per workload, from fixed seeds."""
    def distinct(rng, count, make):
        seen = []
        while len(seen) < count:
            code = make(rng)
            if code not in seen:
                seen.append(code)
        return seen

    def seeded(tag):
        return random.Random("%s/%s" % (CORPUS_SEED, tag))

    return {
        "delta": {str(n): distinct(seeded("delta/%d" % n), DELTA_PER_SIZE,
                                   lambda r, n=n: random_knot(r, n))
                  for n in DELTA_SIZES},
        "ideals": {str(n): distinct(seeded("ideals/%d" % n), IDEALS_PER_SIZE,
                                    lambda r, n=n: random_knot(r, n))
                   for n in IDEALS_SIZES},
        "sieve_knots": distinct(
            seeded("sieve/knots"), SIEVE_KNOTS,
            lambda r: random_knot(r, r.choice(SIEVE_SIZES))),
        "sieve_links": distinct(
            seeded("sieve/links"), SIEVE_LINKS,
            lambda r: random_link(r, r.randint(3, 6), r.randint(2, 3))),
    }


class Call:
    """One CLI call: its argv and what its output must be checked against.

    check is ("digest", key) for a call whose whole stdout has a recorded
    digest, or ("sieve", census) for a sieve call, census being the expected
    rows [(name, code)], skipped line count and flags."""

    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def _passes(rng, items):
    """Endless passes over a fixed list of items, each in a new order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def _digest_call(argv):
    return Call(argv, ("digest", " ".join(argv)))


def ideals_argvs(code):
    """The three calls made on each ideals-census code."""
    return (["ideals", "--reduced", "--kmax", "1", code],
            ["ideals", code],
            ["group", "--reduced", "--simplify", code])


def sieve_census(rng, corpus, shape):
    """Census and flags for one sieve-census run.  Returns (census lines,
    flags lines, expected) with expected = {"rows": [(name, code)],
    "skipped": n, "flags": {name: {key: value}}}."""
    rows = list(TABLE1.items())
    knots = rng.sample(corpus["sieve_knots"], shape["census_knots"])
    rows += [("v%03d" % (i + 1), code) for i, code in enumerate(knots)]
    links = rng.sample(corpus["sieve_links"], shape["census_links"])
    rows += [("l%d" % (i + 1), code) for i, code in enumerate(links)]
    rng.shuffle(rows)
    lines = ["# vkalex benchmark census"]
    lines += ["%s  %s" % row for row in rows]
    for i, bad in enumerate(MALFORMED):
        pos = rng.randint(1, len(lines))
        lines.insert(pos, "bad%d  %s" % (i, bad) if i else bad)
    lines.insert(rng.randint(1, len(lines)), "")
    flags = {}
    for name, code in rows:
        if name in TABLE1:
            flags[name] = {"graded_genus_zero": name in TABLE1_GENUS_ZERO}
        elif "," not in code and rng.random() < 0.5:
            flags[name] = {"graded_genus_zero": rng.random() < 0.5}
    flags["ghost"] = {"graded_genus_zero": True}
    flag_lines = ["# graded genus flags"]
    flag_lines += ["%s graded_genus_zero=%s"
                   % (name, str(kv["graded_genus_zero"]).lower())
                   for name, kv in flags.items()]
    expected = {"rows": rows, "skipped": len(MALFORMED), "flags": flags}
    return lines, flag_lines, expected


def workload(name, seed, corpus, inputs_dir, tiny=False):
    """Endless stream of passes for one workload.  A pass is a list of
    items, an item a list of Calls: one Gauss code for delta-large and
    ideals-census (every corpus code once per pass), one census for
    sieve-census.  Census and flags files are written to inputs_dir."""
    rng = random.Random("%s/%d" % (name, seed))
    shape = SHAPE[tiny]
    if name == "delta-large":
        codes = [code for n in shape["delta_sizes"]
                 for code in corpus["delta"][str(n)]]
        for order in _passes(rng, codes):
            # a third of the calls print the raw determinant, sign included
            yield [[_digest_call(["delta", "--unit-class", "exact", code]
                                 if i % 3 == 2 else ["delta", code])]
                   for i, code in enumerate(order)]
    elif name == "ideals-census":
        codes = rng.sample(sorted(TABLE1.values()), shape["ideals_table"])
        codes += [code for n in shape["ideals_sizes"]
                  for code in corpus["ideals"][str(n)]]
        for order in _passes(rng, codes):
            yield [[_digest_call(argv) for argv in ideals_argvs(code)]
                   for code in order]
    elif name == "sieve-census":
        lines, flag_lines, expected = sieve_census(rng, corpus, shape)
        os.makedirs(inputs_dir, exist_ok=True)
        census = os.path.join(inputs_dir, "bench.census")
        flags = os.path.join(inputs_dir, "bench.flags")
        for path, text in ((census, lines), (flags, flag_lines)):
            with open(path, "w") as fh:
                fh.write("\n".join(text) + "\n")
        argv = ["sieve", "--format", "json", "--flags", flags, "--skip-bad",
                "--census", census]
        call = Call(argv, ("sieve", expected))
        while True:
            yield [[call]]
    else:
        raise ValueError("unknown workload %r" % name)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the inputs")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(here, "golden.json")) as fh:
        corpus = json.load(fh)["corpus"]
    os.makedirs(args.out, exist_ok=True)
    passes = workload(args.workload, args.seed, corpus, args.out, args.tiny)
    with open(os.path.join(args.out, "calls.txt"), "w") as fh:
        for item in next(passes):
            for call in item:
                fh.write(json.dumps(call.argv) + "\n")


if __name__ == "__main__":
    main()
