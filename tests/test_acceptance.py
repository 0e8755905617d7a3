"""Acceptance suite: the ten shipping criteria, one verdict line each.

Every test prints `criterion NN: PASS/FAIL (detail)` straight to the
terminal (bypassing capture) so a plain pytest run shows the scorecard.
Criteria with runtime budgets fold the elapsed time into the verdict.
"""
import os
import random
import time

from vkalex import alexander, gauss, groups, sieve
from vkalex.laurent import MONOMIAL_SIGN, canonicalize
from vkalex.zh import zh
from _util import (
    ONE, S, T, CLASSICAL_TREFOIL, TABLE1, TABLE1_EXPECTED, ZERO_NAMES,
    NotApplicable, apply_r1, apply_r2, apply_r3, delete_omega, det_cofactor,
    diagram_data, exact_div, matrix, random_knot, random_link, random_poly,
    relabeled, rotated, substitute, table1_diagram, undo_r1, undo_r2,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
ONE_MINUS_ST = ONE - S * T


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print("criterion %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def test_criterion_01_golden_polynomials(capsys):
    t0 = time.monotonic()
    bad = []
    for name, code in TABLE1.items():
        got = alexander.delta0(gauss.to_diagram(gauss.parse_gauss_code(code)))
        expected = TABLE1_EXPECTED[name]
        if expected is None:
            if not got.is_zero():
                bad.append(name)
        elif (canonicalize(got, MONOMIAL_SIGN)
              != canonicalize(expected, MONOMIAL_SIGN)):
            bad.append(name)
    dt = time.monotonic() - t0
    _verdict(capsys, 1, not bad and dt < 1.0,
             "12 table polynomials, mismatches=%r, %.2fs < 1s" % (bad, dt))


def test_criterion_02_worked_example(capsys):
    t0 = time.monotonic()
    d = table1_diagram("4.12")
    got = canonicalize(alexander.delta0(d), MONOMIAL_SIGN)
    expected = canonicalize(TABLE1_EXPECTED["4.12"], MONOMIAL_SIGN)
    dt = time.monotonic() - t0
    ok = got == expected and dt < 0.1
    _verdict(capsys, 2, ok,
             "4.12 = (1-t)(1-s)(t-s)(1-st)^2 under the over-first arc rule, "
             "%.3fs < 0.1s" % dt)


def test_criterion_03_vanishing_spot_checks(capsys):
    trefoil = alexander.delta0(gauss.to_diagram(
        gauss.parse_gauss_code(CLASSICAL_TREFOIL)))
    unknot = alexander.delta0(gauss.to_diagram(gauss.parse_gauss_code("")))
    ok = trefoil.is_zero() and unknot.is_zero()
    _verdict(capsys, 3, ok, "classical trefoil and unknot give exact zero")


def test_criterion_04_divisibility(capsys):
    t0 = time.monotonic()
    rng = random.Random(41)
    diagrams = [table1_diagram(name) for name in TABLE1]
    diagrams += [random_knot(rng, rng.randint(1, 6)) for _ in range(110)]
    failures = 0
    for d in diagrams:
        g = alexander.delta0(d)
        q = exact_div(g, ONE_MINUS_ST)
        if q * ONE_MINUS_ST != g:
            failures += 1
    dt = time.monotonic() - t0
    _verdict(capsys, 4, failures == 0 and dt < 10.0,
             "(1-st) divides det(M-P) on 12 table + 110 fuzz knots, "
             "failures=%d, %.1fs < 10s" % (failures, dt))


def test_criterion_05_cross_path_equivalence(capsys):
    """The two paths to the polynomial agree exactly: with g the gcd of
    E_1(Zh K), omega generators sent to s, delta0 = (1 - t) g(t, st) up to
    +-s^a t^b on every table-1 knot."""
    t0 = time.monotonic()
    vanish_bad = []
    gcd_bad = []
    for name in TABLE1:
        d = table1_diagram(name)
        g = alexander.delta0(d)
        p = groups.reduced_group(d)
        ideals = groups.elementary_ideals(groups.alexander_matrix(p), 1)
        e1 = ideals[1][0]
        if e1.is_zero() != g.is_zero():
            vanish_bad.append(name)
        lifted = (ONE - T) * substitute(e1, T, S * T)
        if (canonicalize(lifted, MONOMIAL_SIGN)
                != canonicalize(g, MONOMIAL_SIGN)):
            gcd_bad.append(name)
    dt = time.monotonic() - t0
    ok = not vanish_bad and not gcd_bad and dt < 30.0
    _verdict(capsys, 5, ok,
             "E_1 vanishes iff delta0 = 0 on 12/12 (mismatches=%r); "
             "delta0 = (1-t) gcd(E_1)(t, st) on %d/12 (mismatches=%r); "
             "%.1fs < 30s" % (vanish_bad, 12 - len(gcd_bad), gcd_bad, dt))


def _kink_chords(d):
    out = set()
    for comp in d.components:
        length = len(comp)
        for pos in range(length):
            if comp[pos][0] == comp[(pos + 1) % length][0]:
                out.add(comp[pos][0])
    return sorted(out)


def _r2_pairs(d):
    cand = set()
    for comp in d.components:
        length = len(comp)
        for pos in range(length):
            (c1, r1), (c2, r2) = comp[pos], comp[(pos + 1) % length]
            if c1 != c2 and r1 == r2 and d.signs[c1] + d.signs[c2] == 0:
                cand.add((min(c1, c2), max(c1, c2)))
    return sorted(cand)


def _try_r3(d, rng, attempts=25):
    if len(d.signs) < 3:
        return None
    for _ in range(attempts):
        tri = tuple(rng.sample(range(len(d.signs)), 3))
        try:
            return apply_r3(d, tri)
        except NotApplicable:
            pass
    return None


def _move_walk(name, rng, nmoves, counts):
    d = table1_diagram(name)
    base = canonicalize(alexander.delta0(d), MONOMIAL_SIGN)
    cap = len(d.signs) + 6
    done = 0
    while done < nmoves:
        n = len(d.signs)
        new = None
        roll = rng.random()
        if roll < 0.12:
            new = _try_r3(d, rng)
            if new is not None:
                counts["r3"] += 1
        if new is None and (n >= cap or roll > 0.55):
            kinks = _kink_chords(d)
            pairs = _r2_pairs(d)
            if pairs and (not kinks or rng.random() < 0.5):
                rng.shuffle(pairs)
                for (a, b) in pairs[:8]:
                    try:
                        new = undo_r2(d, a, b)
                        counts["r2-"] += 1
                        break
                    except NotApplicable:
                        pass
            if new is None and kinks:
                new = undo_r1(d, rng.choice(kinks))
                counts["r1-"] += 1
        if new is None:
            ci = rng.randrange(len(d.components))
            length = len(d.components[ci])
            if rng.random() < 0.5:
                new = apply_r1(d, (ci, rng.randint(0, length)),
                               rng.choice((1, -1)),
                               rng.choice(("over-first", "under-first")))
                counts["r1+"] += 1
            else:
                cj = rng.randrange(len(d.components))
                new = apply_r2(
                    d, (ci, rng.randint(0, length)),
                    (cj, rng.randint(0, len(d.components[cj]))))
                counts["r2+"] += 1
        d = new
        done += 1
        if canonicalize(alexander.delta0(d), MONOMIAL_SIGN) != base:
            return done
    return None


def test_criterion_06_move_invariance(capsys):
    t0 = time.monotonic()
    rng = random.Random(6)
    counts = {"r1+": 0, "r1-": 0, "r2+": 0, "r2-": 0, "r3": 0}
    broke = []
    for name in TABLE1:
        hit = _move_walk(name, rng, 200, counts)
        if hit is not None:
            broke.append((name, hit))
        d = table1_diagram(name)
        base = canonicalize(alexander.delta0(d), MONOMIAL_SIGN)
        for k in range(len(d.components[0])):
            if canonicalize(alexander.delta0(rotated(d, 0, k)),
                            MONOMIAL_SIGN) != base:
                broke.append((name, "rotation %d" % k))
        for _ in range(5):
            perm = list(range(len(d.signs)))
            rng.shuffle(perm)
            if canonicalize(alexander.delta0(relabeled(d, perm)),
                            MONOMIAL_SIGN) != base:
                broke.append((name, "relabel %r" % perm))
    dt = time.monotonic() - t0
    _verdict(capsys, 6, not broke and dt < 60.0,
             "200 moves per code %r, all rotations, 5 relabelings each, "
             "failures=%r, %.1fs < 60s" % (counts, broke, dt))


def test_criterion_07_determinant_oracle(capsys):
    t0 = time.monotonic()
    rng = random.Random(7)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        m = matrix([[random_poly(rng, span=2, terms=2, coeff=5)
                     for _ in range(n)] for _ in range(n)])
        if m.det() != det_cofactor(m):
            mismatches += 1
    dt = time.monotonic() - t0
    _verdict(capsys, 7, mismatches == 0 and dt < 30.0,
             "Bareiss = cofactor on 500 random matrices up to 6x6, "
             "mismatches=%d, %.1fs < 30s" % (mismatches, dt))


def test_criterion_08_zh_structural(capsys):
    rng = random.Random(8)
    diagrams = [table1_diagram(name) for name in TABLE1]
    diagrams += [random_knot(rng, rng.randint(1, 6)) for _ in range(70)]
    diagrams += [random_link(rng, rng.randint(2, 5), rng.randint(2, 3))
                 for _ in range(30)]
    bad = 0
    for d in diagrams:
        n = len(d.signs)
        z = zh(d)
        zd = z.diagram
        omega = zd.components[z.omega_index]
        ok = (diagram_data(delete_omega(z)) == diagram_data(d)
              and len(zd.signs) == 3 * n
              and z.omega_index == len(d.components)
              and len(omega) == 2 * n
              and all(role == gauss.OVER for _, role in omega)
              and all(zd.signs[n + 2 * c] == d.signs[c] for c in range(n))
              and all(zd.signs[n + 2 * c + 1] == -d.signs[c] for c in range(n)))
        if not ok:
            bad += 1
    trefoil = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    p = groups.reduced_group(trefoil)
    ideals = groups.elementary_ideals(groups.alexander_matrix(p), 1)
    split_zero = ideals[1][0].is_zero()
    _verdict(capsys, 8, bad == 0 and split_zero,
             "delete-omega round trip and chord/sign counts on 12 table + "
             "100 fuzz diagrams, failures=%d; trefoil E_1 gcd zero: %s"
             % (bad, split_zero))


def test_criterion_09_longitude_contract(capsys):
    rng = random.Random(9)
    diagrams = [table1_diagram(name) for name in TABLE1]
    diagrams += [random_knot(rng, rng.randint(1, 6)) for _ in range(20)]
    diagrams += [random_link(rng, rng.randint(2, 5), rng.randint(2, 3))
                 for _ in range(10)]
    checked = 0
    bad = 0
    for d in diagrams:
        # no omega component here, so each tag is a component index
        comp_of_gen = groups.wirtinger(d).tags
        for ci in range(len(d.components)):
            w = groups.longitude(d, ci)
            own = sum(e for (g, e) in w if comp_of_gen[g] == ci)
            checked += 1
            if own != 0:
                bad += 1
    _verdict(capsys, 9, bad == 0,
             "meridian exponent sum zero on %d component longitudes "
             "(12 table + 30 fuzz diagrams), failures=%d" % (checked, bad))


def test_criterion_10_sieve_reproduction(capsys):
    records, skipped = sieve.load_census(os.path.join(DATA, "table1.census"))
    report = sieve.run_sieve(records)
    total = report.summary["total"]
    obstructed = report.summary["obstructed_count"]
    zero_names = sorted(r["name"] for r in report.rows if r["delta0_zero"])
    ok = (not skipped and total == 12 and obstructed == 9
          and zero_names == sorted(ZERO_NAMES))
    _verdict(capsys, 10, ok,
             "census of 12 rows: %d obstructed, %d unobstructed, "
             "survivors %r" % (obstructed, total - obstructed, zero_names))
