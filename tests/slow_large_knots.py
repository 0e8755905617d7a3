"""Slow check of Δ0's known factors at 40-60 crossings, where no oracle in
tests/_util.py finishes, and of Δ0 against the group path.  Not collected
by pytest; run it from the repo root with

    PYTHONPATH=src python3 tests/slow_large_knots.py

It draws the nine Baseline knots of ROADMAP.md, three random_knots each at
40, 50 and 60 chords, in that order from one random.Random(1).  On each it
checks Δ0(1, t) = 0, Δ0(s, 1) = 0, (1 - s)(1 - t)(1 - st) | Δ0 and
W'(1) = 0 for the writhe polynomial W, and Δ0 = (1 - t) D(t, st) up to
+-s^a t^b, with D = gcd(E_1) of the extension's group taken from its one
Fox minor without the omega column.  It prints the time per knot and that
of the minor, and exits 1 if a law fails."""

import random
import sys
import time

from vkalex import alexander, groups
from vkalex.laurent import NotDivisible, canonicalize

from _util import ONE, S, T, exact_div, random_knot, substitute

PRODUCT = (ONE - S) * (ONE - T) * (ONE - S * T)


def one_minor_gcd(d):
    """gcd(E_1) of the extension's group, by the one-minor rule."""
    p = groups.reduced_group(d)
    omega = next(j for j, g in enumerate(p.generators)
                 if p.tags[g] == groups.OMEGA)
    return groups.elementary_ideals(groups.alexander_matrix(p), 1, omega)[1][0]


def failed_laws(d):
    """The names of the laws Δ0, W and the group path of the knot d break,
    and the time the one minor took."""
    g = alexander.delta0(d)
    w = alexander.writhe_polynomial(d)
    start = time.perf_counter()
    e1 = one_minor_gcd(d)
    minor_s = time.perf_counter() - start
    out = []
    if canonicalize(g) != canonicalize((ONE - T) * substitute(e1, T, S * T)):
        out.append("delta0 = (1 - t) D(t, st)")
    if not substitute(g, ONE, T).is_zero():
        out.append("delta0(1, t) = 0")
    if not substitute(g, S, ONE).is_zero():
        out.append("delta0(s, 1) = 0")
    try:
        exact_div(g, PRODUCT)
    except NotDivisible:
        out.append("(1 - s)(1 - t)(1 - st) | delta0")
    if sum(e * c for (_, e), c in w.terms.items()):
        out.append("W'(1) = 0")
    return out, len(g.terms), minor_s


def main():
    rng = random.Random(1)
    knots = [(n, random_knot(rng, n)) for n in (40, 50, 60) for _ in range(3)]
    bad = 0
    for n, d in knots:
        start = time.perf_counter()
        failed, terms, minor_s = failed_laws(d)
        elapsed = time.perf_counter() - start
        bad += bool(failed)
        print("n=%d  %5d terms  %6.2f s  minor %6.2f s  %s"
              % (n, terms, elapsed, minor_s,
                 "; ".join(failed) or "all laws hold"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
