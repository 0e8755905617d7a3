import random
from itertools import combinations
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from vkalex.laurent import (
    LaurentPoly, PolyMatrix, canonicalize, gcd, EXACT,
    MONOMIAL_SIGN, NotDivisible, NotSquare, POWERS_OF_ST, SizeTooLarge,
    ONE, S, T, ZERO,
)
from vkalex import alexander, gauss, groups, laurent
from _util import (
    TABLE1, VIRTUAL_TREFOIL, det_bareiss, det_cofactor, divides, exact_div,
    matrix, prs_gcd, random_knot, random_link, random_poly, substitute,
    unit_schur_scan,
)

exps = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-1000, max_value=1000)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5).map(LaurentPoly)


def test_construction_drops_zero_coefficients():
    p = LaurentPoly({(0, 0): 0, (1, 2): 3})
    assert p.terms == {(1, 2): 3}
    assert LaurentPoly({}) == ZERO
    # LaurentPoly(terms) is the one constructor
    with pytest.raises(TypeError):
        LaurentPoly()


def test_construction_rejects_non_integers():
    # int() would truncate 1.5 to 1 and 2.9 to 2 without a word
    for terms in ({(0, 0): 1.5}, {(0, 0): "1"}, {(0.5, 0): 1}, {(0, "1"): 1}):
        with pytest.raises(TypeError):
            LaurentPoly(terms)
    with pytest.raises(TypeError):
        matrix([[2.9]])
    assert matrix([[2]]).det() == 2 * ONE


def test_rendering_goldens():
    p = ONE - S - T + 2 * S * T - (S * T) ** 2
    assert str(p) == "1 - s - t + 2*s*t - s^2*t^2"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"
    assert str(S.inverse()) == "s^-1"
    assert str(T * 3 - S.inverse() * T.inverse()) == "-s^-1*t^-1 + 3*t"
    assert str(S * S) == "s^2"


def test_equality_and_hash():
    assert S * T == T * S
    assert hash(S * T) == hash(T * S)
    assert S != T
    assert ONE == 1
    assert ZERO == 0
    assert (S + T) - T == S


def test_immutable():
    with pytest.raises(AttributeError):
        S.terms = {}


@settings(max_examples=1000, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p * ZERO == ZERO


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_exact_division_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p


def test_not_divisible():
    with pytest.raises(NotDivisible):
        exact_div(ONE + S, ONE + T)
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE + S, ZERO)
    # units divide everything
    assert exact_div(ONE + T, S) == S.inverse() * (ONE + T)


def test_pow():
    p = ONE - S * T
    assert p ** 0 == ONE
    assert p ** 3 == p * p * p
    assert S ** -2 == S.inverse() * S.inverse()
    with pytest.raises(NotDivisible):
        (ONE + S) ** -1


def test_inverse():
    assert S.inverse() * S == ONE
    assert (-S * T).inverse() == -S.inverse() * T.inverse()
    assert (S + T).inverse() is None
    assert (2 * ONE).inverse() is None
    assert ZERO.inverse() is None


def test_substitute():
    p = (ONE - S * T) * (ONE - T)
    # s -> t^-1 kills every power of st
    q = substitute(p, T.inverse(), T)
    assert q == ZERO
    assert substitute(S + T, T, T) == 2 * T
    # only units +-s^a t^b are images, whatever the exponents
    for image in (ONE + T, 2 * T, -3 * ONE, ZERO, 1):
        for p in (S.inverse(), S + T):
            with pytest.raises(ValueError):
                substitute(p, image, T)
            with pytest.raises(ValueError):
                substitute(p, S, image)
    # unit images with coefficient -1 and negative exponents against the
    # sum of the images of the terms taken one by one
    rng = random.Random(19)
    units = (-S * T.inverse(), -T, S.inverse() * T * T, -ONE, T.inverse())
    for _ in range(40):
        p = random_poly(rng, span=3, terms=5)
        s_image, t_image = rng.choice(units), rng.choice(units)
        expect = ZERO
        for (es, et), c in p.terms.items():
            expect = expect + c * s_image ** es * t_image ** et
        assert substitute(p, s_image, t_image) == expect, (p, s_image, t_image)


def test_canonicalize_quotients_units():
    p = (ONE - T) * (ONE - S * T)
    for unit in (S * T, -ONE, S.inverse(), -S * T.inverse() * T.inverse()):
        assert canonicalize(p * unit, MONOMIAL_SIGN) == canonicalize(p, MONOMIAL_SIGN)
    # st-powers keeps the sign but forgets powers of st
    stp = canonicalize(p, POWERS_OF_ST)
    assert canonicalize(p * S * T, POWERS_OF_ST) == stp
    assert canonicalize(-p, POWERS_OF_ST) != stp
    assert canonicalize(p, EXACT) != canonicalize(p * S * T, EXACT)
    assert canonicalize(p, EXACT) == p


@settings(max_examples=200, deadline=None)
@given(polys)
def test_canonicalize_idempotent(p):
    c = canonicalize(p, MONOMIAL_SIGN)
    assert canonicalize(c, MONOMIAL_SIGN) == c
    # canonical representative has min exponents (0, 0)
    if not p.is_zero():
        assert min(es for es, _ in c.terms) == 0
        assert min(et for _, et in c.terms) == 0


def test_canonical_form_classes_do_not_mix():
    a = canonicalize(ONE - T, MONOMIAL_SIGN)
    assert a == canonicalize(T - ONE, MONOMIAL_SIGN)
    # st-powers keeps the sign that monomial-sign takes off
    assert canonicalize(T - ONE, POWERS_OF_ST) != a
    with pytest.raises(ValueError):
        canonicalize(ONE, "bogus")


def test_gcd_goldens():
    a = (ONE - S) * (ONE - S * T)
    b = (ONE - T) * (ONE - S * T)
    g = gcd(a, b)
    assert canonicalize(g, MONOMIAL_SIGN) == canonicalize(ONE - S * T, MONOMIAL_SIGN)
    assert gcd(ZERO, ZERO) == ZERO
    assert canonicalize(gcd(ZERO, a), MONOMIAL_SIGN) == canonicalize(a, MONOMIAL_SIGN)
    assert gcd(ONE, a) == ONE
    # coprime polynomials
    assert gcd(ONE - S, ONE - T) == ONE
    # t-free inputs and integer content
    assert gcd(6 * (ONE - S * S), 4 * (ONE - S)) == \
        canonicalize(2 * (ONE - S), MONOMIAL_SIGN)
    assert gcd(3 * S, 3 * T) == 3 * ONE
    assert gcd(2 - 2 * T, 4 * S - 4 * S * T) == \
        canonicalize(2 * (ONE - T), MONOMIAL_SIGN)
    assert gcd(-4 * ONE, 6 * ONE) == 2 * ONE
    assert gcd(6 * (ONE - T) * (ONE + S), 9 * (ONE + S) * S) == \
        canonicalize(3 * (ONE + S), MONOMIAL_SIGN)


def test_gcd_properties():
    rng = random.Random(7)
    for _ in range(60):
        p = random_poly(rng)
        q = random_poly(rng)
        g = gcd(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            continue
        assert divides(g, p)
        assert divides(g, q)
        cg = canonicalize(g, MONOMIAL_SIGN)
        assert canonicalize(gcd(q, p), MONOMIAL_SIGN) == cg
        # common factors show up
        h = random_poly(rng)
        if not h.is_zero():
            gh = gcd(p * h, q * h)
            assert divides(h, gh) or (p.is_zero() and q.is_zero())


def _count_points(monkeypatch):
    """The number of evaluation points each call of the heuristic takes from
    now on, one entry per call at either level, in the order they return."""
    counts, stack = [], []
    heu, at_s = laurent._heu, laurent._at_s

    def spy_heu(p, q):
        stack.append(set())
        try:
            return heu(p, q)
        finally:
            counts.append(len(stack.pop()))

    def spy_at_s(f, xi):
        stack[-1].add(xi)
        return at_s(f, xi)

    monkeypatch.setattr(laurent, "_heu", spy_heu)
    monkeypatch.setattr(laurent, "_at_s", spy_at_s)
    return counts


def test_gcd_heuristic_keeps_one_minus_s_and_one_minus_t_apart(monkeypatch):
    """At s = xi, t = xi^k the image of 1 - s divides that of 1 - t for
    every k; evaluating s alone keeps them apart, and the integer content
    of the images keeps the factor 1 + s in s alone.  Each call certifies
    within six points at each level."""
    counts = _count_points(monkeypatch)
    g = canonicalize((ONE + S) * (2 - S * T + T * T), MONOMIAL_SIGN)
    assert gcd(g * (ONE - S), g * (ONE - T)) == g
    assert gcd(6 * g * (ONE - S), 4 * S * g * (ONE - T)) == 2 * g
    assert gcd(ONE - S, ONE - T) == ONE
    assert counts and max(counts) <= 6


def test_gcd_goes_past_refused_points(monkeypatch):
    """A trial division that refuses its first 20 calls on each pair sends
    the heuristic on to larger points, at either level, and the gcd still
    comes out equal to the PRS oracle's."""
    rng = random.Random(3)
    pairs = [((ONE - S) * (ONE - S * T), (ONE - T) * (ONE - S * T)),
             (6 * (ONE - T) * (ONE + S), 9 * (ONE + S) * S)]
    while len(pairs) < 20:
        g, a, b = (random_poly(rng, span=2, terms=4) for _ in range(3))
        if min(len(g.terms), len(a.terms), len(b.terms)) > 1:
            pairs.append((g * a, g * b))
    want = [prs_gcd(p, q) for p, q in pairs]
    divides_ = laurent._divides
    calls = []

    def refuse(b, a):
        calls.append(b)
        return len(calls) > 20 and divides_(b, a)

    monkeypatch.setattr(laurent, "_divides", refuse)
    for (p, q), w in zip(pairs, want):
        del calls[:]
        assert gcd(p, q) == w
        assert len(calls) > 20
    assert sum(len(w.terms) > 1 for w in want) > 10


def test_gcd_certifies_past_six_points(monkeypatch):
    """p = (s + 1 + L)(1 + t) and q = (s + 1)(1 + t), L = lcm(1..50): at
    a point xi the images share the integer gcd(L, xi + 1) as well as
    1 + t, and the digits cannot read it back while it exceeds xi / 2.  No
    candidate certifies within six points, and the loop goes on until one
    does, equal to the PRS."""
    big = lcm(*range(1, 51))
    p = (S + 1 + big) * (ONE + T)
    q = (S + 1) * (ONE + T)
    counts = _count_points(monkeypatch)
    assert gcd(p, q) == ONE + T == prs_gcd(p, q)
    assert counts[-1] > 6


def test_gcd_matches_the_prs_fuzz(monkeypatch):
    """The heuristic against the PRS oracle on pairs g a, g b and g^2 a,
    g b, each certified within six points at each level."""
    rng = random.Random(5)
    pairs = []
    for _ in range(300):
        g, a, b = (random_poly(rng, span=2, terms=4, coeff=9)
                   for _ in range(3))
        pairs += [(g * a, g * b), (g * g * a, g * b)]
    want = [prs_gcd(p, q) for p, q in pairs]
    assert sum(len(w.terms) > 1 for w in want) > 300
    counts = _count_points(monkeypatch)
    assert [gcd(p, q) for p, q in pairs] == want
    assert counts and max(counts) <= 6


def test_det_goldens():
    m = matrix([[S, T], [ONE, S]])
    assert m.det() == S * S - T
    assert matrix([[S]]).det() == S
    assert PolyMatrix(0, 0, {}).det() == ONE
    # identical rows
    assert matrix([[S, T], [S, T]]).det() == ZERO
    with pytest.raises(NotSquare):
        PolyMatrix(1, 2, {(0, 0): S, (0, 1): T}).det()


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = matrix([[random_poly(rng, span=2, terms=2)
                     for _ in range(n)] for _ in range(n)])
        assert m.det() == det_cofactor(m)
    # sparse inputs where most pivots are units +-s^a t^b
    z = ZERO
    # signed monomial permutation matrix of the 4-cycle 0->2->3->1 (odd):
    # every pivot is a unit and nothing is left for Bareiss
    perm = matrix([[z, z, -S * T, z],
                   [T.inverse(), z, z, z],
                   [z, z, z, S * S],
                   [z, -ONE, z, z]])
    assert perm.det() == -(-S * T) * T.inverse() * (S * S) * -ONE
    # the only unit sits at (0, 1), an odd position
    odd = matrix([[ONE + S, -T, 2 * ONE],
                  [2 * S, ONE + T, ONE - S],
                  [ONE - T, 3 * ONE, S + T]])
    # two crossing blocks, positive then negative, minus a permutation, as
    # in M - P
    mp = matrix([[T.inverse(), ONE - (S * T).inverse(), -ONE, z],
                 [z, S.inverse(), z, -ONE],
                 [z, -ONE, S, z],
                 [-ONE, z, ONE - S * T, T]])
    # row 1 is t times row 0, so the first Schur step empties it
    empty = matrix([[ONE, S, z], [T, S * T, z], [ONE + S, T, 2 * ONE]])
    assert empty.det() == ZERO
    for m in (perm, odd, mp, empty):
        assert m.det() == det_cofactor(m)


# powers whose products cancel heavily in a determinant
_POWER_BASES = (ONE - S * T, ONE - S, T - S * S, 3 * ONE + T.inverse())


def _fuzz_entry(rng, kind, n):
    r = rng.random() - 0.05 * n      # sparser as n grows, as in M - P
    if r < 0.15:
        return ZERO
    if r < 0.3:
        c = rng.choice((1, -1))
        return LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)): c})
    if kind == "big":
        return random_poly(rng, span=1, terms=2, coeff=1 << 45)
    if kind == "powers" and rng.random() < 0.5:
        return (rng.choice((1, -1, 2, -3))
                * rng.choice(_POWER_BASES) ** rng.randint(1, 3)
                * LaurentPoly({(rng.randint(-1, 1), rng.randint(-1, 1)): 1}))
    return random_poly(rng, span=2, terms=3)


def _fuzz_matrices():
    """(index, kind, matrix) of 1,000 matrices of 1-6 rows: coefficients up
    to 2^45, negative exponents in s and t, powers like (1 - st)^3, and a
    row that is a polynomial combination of the others, so that det is 0
    by cancellation."""
    rng = random.Random(29)
    kinds = ("small", "big", "powers", "dependent")
    for i in range(1000):
        n = rng.randint(1, 6)
        kind = kinds[i % len(kinds)]
        rows = [[_fuzz_entry(rng, kind, n) for _ in range(n)]
                for _ in range(n)]
        if kind == "dependent" and n > 1:
            combo = [ZERO] * n
            for other in rows[1:]:
                f = random_poly(rng, span=1, terms=2)
                combo = [a + f * b for a, b in zip(combo, other)]
            rows[0] = combo
            rng.shuffle(rows)
        yield i, kind, matrix(rows)


def test_det_matches_plain_bareiss_fuzz(monkeypatch):
    """det against the independent dict Bareiss oracle on the fuzz
    matrices.  Every coefficient of each residual determinant is at most
    the bound H, and on some H is below both L1-norm products."""
    kernel = laurent._kronecker_det
    tighter = []

    def spy(rows, ri, ci):
        m = _dense(rows, ri, ci)
        d = kernel(rows, ri, ci)
        l1 = [[sum(map(abs, e.values())) for e in row] for row in m]
        h = laurent._coeff_bound(l1)
        assert max(map(abs, d.values()), default=0) <= h
        tighter.append(h < min(prod(map(sum, l1)), prod(map(sum, zip(*l1)))))
        return d
    monkeypatch.setattr(laurent, "_kronecker_det", spy)
    for i, kind, m in _fuzz_matrices():
        det = m.det()
        assert det == det_bareiss(m), (i, kind)
        if kind == "dependent" and m.rows > 1:
            assert det == ZERO
    assert len(tighter) > 500 and any(tighter)


def _schur_inputs(run):
    """(copied sparse rows, column count) of every _unit_schur call that
    run() makes, through the determinant or the unit reduction."""
    seen = []
    real = laurent._unit_schur

    def spy(rows, ncols):
        seen.append(([{j: dict(e) for j, e in row.items()} for row in rows],
                     ncols))
        return real(rows, ncols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_unit_schur", spy)
        run()
    return seen


def test_unit_schur_matches_scan_oracle():
    """The cached pivot ratings take the pivots the full rescan takes: the
    same (sign, ds, dt, live rows, live cols) and the same rows left, on
    M - P of random knots and links, on the rectangular Fox matrices of the
    table-1 Wirtinger and extension groups and of links with chordless
    circles, whose free generators give zero columns, on the minors their
    ideals take, and on the fuzz matrices."""
    rng = random.Random(41)
    diagrams = [random_knot(rng, n) for n in range(5, 41)]
    diagrams += [random_link(rng, rng.randint(2, 12), rng.randint(2, 3))
                 for _ in range(30)]
    inputs = []
    for d in diagrams:
        if d.signs:
            inputs += _schur_inputs(lambda: alexander.delta0(d))
    groups_in = [gauss.to_diagram(gauss.parse_gauss_code(code))
                 for code in TABLE1.values()]
    groups_in += [d for d in diagrams[36:]
                  if any(not comp for comp in d.components)]
    for d in groups_in:
        c = sum(1 for comp in d.components if not comp)
        for p in (groups.wirtinger(d), groups.reduced_group(d)):
            mat = groups.alexander_matrix(p)
            inputs += _schur_inputs(
                lambda: groups.elementary_ideals(mat, 1 + c))
    inputs += _schur_inputs(
        lambda: [m.det() for _, _, m in _fuzz_matrices()])
    assert len(inputs) > 1100 and len(groups_in) > 15
    rectangular = empty_rows = empty_cols = 0
    for rows, ncols in inputs:
        scanned = [{j: dict(e) for j, e in row.items()} for row in rows]
        got = laurent._unit_schur(rows, ncols)
        assert got == unit_schur_scan(scanned, ncols)
        assert rows == scanned
        live, cols = got[3], got[4]
        rectangular += ncols != len(rows)
        empty_rows += any(not rows[i] for i in live)
        empty_cols += any(all(j not in rows[i] for i in live) for j in cols)
    assert min(rectangular, empty_rows, empty_cols) >= 10


def _gcd_of(polys):
    acc = ZERO
    for f in polys:
        if acc == ONE:
            break
        acc = gcd(acc, f)
    return acc


def test_unit_reduced_keeps_every_ideal_of_minors():
    """The Fitting-ideal rule behind the elementary ideals: with p unit
    pivots and residual A', the gcd of all m x m minors is 1 when m <= p, 0
    when m - p exceeds a side of A', and else the gcd of the (m - p)-minors
    of A'.  On seeded random r x c matrices, 1-6 rows and columns, with
    unit, non-unit and zero entries, all-zero rows and columns, and a
    quarter with no unit entry at all."""
    rng = random.Random(43)
    units = [LaurentPoly({(a, b): c}) for a in (-1, 0, 1)
             for b in (-1, 0, 1) for c in (1, -1)]
    rules = [0, 0, 0]

    def entry(no_unit):
        x = rng.random()
        if x < 0.35:
            return ZERO
        if x < 0.7 and not no_unit:
            return rng.choice(units)
        e = random_poly(rng, span=1, terms=3, coeff=3)
        return e * 2 if e.inverse() is not None else e

    for i in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[entry(i % 4 == 0) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            grid[rng.randrange(r)] = [ZERO] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in grid:
                row[j] = ZERO
        m = matrix(grid)
        p, res = m.unit_reduced()
        if i % 4 == 0:
            assert p == 0
        assert all(e.inverse() is None for e in res.entries.values())
        assert {i for i, _ in res.entries} == set(range(res.rows))
        assert {j for _, j in res.entries} == set(range(res.cols))
        for k in range(min(r, c) + 1):
            want = _gcd_of(m.minors(k))
            if k <= p:
                got, rule = ONE, 0
            elif k - p > min(res.rows, res.cols):
                got, rule = ZERO, 1
            else:
                got, rule = _gcd_of(res.minors(k - p)), 2
            assert got == want, (i, k)
            rules[rule] += 1
    assert min(rules) >= 30


def _dense(rows, ri, ci):
    """The residual of the sparse rows ri and columns ci as a dense grid."""
    return [[rows[i].get(j, {}) for j in ci] for i in ri]


def _residuals(monkeypatch):
    """Record every residual the Kronecker kernel gets, as a dense grid."""
    seen = []
    kernel = laurent._kronecker_det

    def spy(rows, ri, ci):
        seen.append(_dense(rows, ri, ci))
        return kernel(rows, ri, ci)
    monkeypatch.setattr(laurent, "_kronecker_det", spy)
    return seen


def test_det_residual_bound_edges(monkeypatch):
    seen = _residuals(monkeypatch)
    # no unit pivot, so the whole diagonal is the residual, and |det| is
    # the product of the row L1 norms, the coefficient bound H, exactly
    big = [(1 << 40) + 1, 3, (1 << 21) - 1]
    for signs in ((1, 1, 1), (1, -1, 1)):
        diag = matrix([[(c * e if i == j else 0) for j in range(3)]
                       for i, (c, e) in enumerate(zip(big, signs))])
        expect = signs[1] * big[0] * big[1] * big[2]
        assert diag.det() == det_cofactor(diag) == expect * ONE
    # row sums of the largest s-exponents give Ds = 3 and det has s-degree
    # 2: s^2 and t sit in adjacent digits, t's coefficient negative
    edge = matrix([[2 * S, 3 * T], [2 * ONE, -2 * S]])
    assert edge.det() == det_cofactor(edge) == -4 * S * S - 6 * T
    # the same edge once prescaling by t and s clears the negative
    # exponents: the prescaled det -4s^2 + 10s^2 t - 6t has s-degree 2
    shifted = matrix([[2 * S * T.inverse(), 3 * ONE],
                      [2 * S.inverse(), -2 * ONE + 5 * T]])
    assert shifted.det() == det_cofactor(shifted) == \
        -4 * S * T.inverse() + 10 * S - 6 * S.inverse()
    # rows with no common monomial factor, columns that share s^2 t, and
    # then s t^2 and s once the rows are cleared of s^-1: scaled, both are
    # [[2, 3 + s], [5 + s, 2 - t]], so the one Bareiss step of each passes
    # the same image to _exact_quo, that of -11 - 8s - s^2 - 2t at Ds = 3,
    # with no monomial factor left in it
    quotients = []
    quo = laurent._exact_quo

    def spy_quo(a, b):
        quotients.append((a, b))
        return quo(a, b)
    monkeypatch.setattr(laurent, "_exact_quo", spy_quo)
    s2t = S * S * T
    shared = matrix([[2 * s2t, 3 + S], [(5 + S) * s2t, 2 - T]])
    assert shared.det() == det_cofactor(shared) == \
        s2t * ((2 * ONE) * (2 - T) - (3 + S) * (5 + S))
    negative = matrix([[2 * S.inverse() * T * T, 3 + S],
                       [(5 + S) * S.inverse() * T * T, 2 - T]])
    assert negative.det() == det_cofactor(negative)
    monkeypatch.setattr(laurent, "_exact_quo", quo)
    (a, one), other = quotients
    assert other == (a, one) and one == 1
    assert any(a == -11 - (8 << b) - (1 << 2 * b) - (2 << 3 * b)
               for b in range(2, 64))
    # an empty column: det 0, and the column scaling passes it over
    hollow = matrix([[2 * ONE, ZERO], [3 + S, ZERO]])
    assert hollow.det() == det_cofactor(hollow) == ZERO
    assert [len(m) for m in seen] == [3, 3, 2, 2, 2, 2, 2]
    assert not any(row[1] for row in seen[-1])
    # twice the 2 x 2 and the 4 x 4 Sylvester-Hadamard matrices, with no
    # unit to pivot on: |det| reaches Hadamard's bound, so H is exactly 8
    # and 256, where the L1 products are 16 and 4096
    had = matrix([[2, 2], [2, -2]])
    had4 = matrix([[2, 2, 2, 2], [2, -2, 2, -2], [2, 2, -2, -2],
                   [2, -2, -2, 2]])
    assert had.det() == det_cofactor(had) == -8 * ONE
    assert had4.det() == det_cofactor(had4) == 256 * ONE
    bounds = [laurent._coeff_bound(
        [[sum(map(abs, e.values())) for e in row] for row in m])
        for m in seen[-2:]]
    assert bounds == [8, 256]


def test_det_residual_shortcuts(monkeypatch):
    seen = _residuals(monkeypatch)
    z = ZERO
    # every pivot a unit: nothing is left, the residual determinant is 1
    perm = matrix([[z, -S * T, z], [T.inverse(), z, z], [z, z, S * S]])
    # one unit pivot leaves the 1 x 1 residual 2 + s - st
    one = matrix([[ONE, S], [T, 2 * ONE + S]])
    # no unit at all, a 1 x 1 residual with negative exponents
    lone = matrix([[2 * S.inverse() + 3 * T]])
    for m in (perm, one, lone):
        assert m.det() == det_cofactor(m)
    assert one.det() == 2 * ONE + S - S * T
    assert seen == []


def test_det_row_swap_flips_sign():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = matrix([[random_poly(rng, span=2, terms=2)
                     for _ in range(n)] for _ in range(n)])
        rows = [[m[r, c] for c in range(n)] for r in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert matrix(swapped).det() == -m.det()
        assert matrix(zip(*rows)).det() == m.det()


def test_det_cofactor_size_cap():
    big = matrix([[ONE] * 9 for _ in range(9)])
    with pytest.raises(SizeTooLarge):
        det_cofactor(big)


def test_minors_conventions():
    m = matrix([[S, T, ONE], [ONE, S, T]])
    assert m.minors(0) == [ONE]
    with pytest.raises(SizeTooLarge):
        m.minors(3)
    got = m.minors(2)
    # all 2x2 submatrix determinants, column sets in lex order
    expected = [m.submatrix([0, 1], cols).det()
                for cols in ([0, 1], [0, 2], [1, 2])]
    assert got == expected


def test_minors_shared_prefix_agrees_with_bruteforce():
    rng = random.Random(17)
    cases = []
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(r, 5)
        cases.append(matrix([[random_poly(rng, span=2, terms=2)
                              for _ in range(c)] for _ in range(r)]))
    cases += [
        # all-zero column: every minor that takes it vanishes
        matrix([[S, ZERO, T, ONE], [ONE, ZERO, S, T], [T, ZERO, ONE, S]]),
        # zero row: every maximal minor vanishes
        matrix([[S, T, ONE], [ZERO, ZERO, ZERO]]),
        # zero (0,0) entry: the first pivot needs a row swap
        matrix([[ZERO, S, T, ONE], [T.inverse(), ONE, ZERO, S],
                [ONE - S, ZERO, S * T, T]]),
        # zero middle row: every row set that holds it is all zero
        matrix([[S, T, ONE, S * T], [ZERO, ZERO, ZERO, ZERO],
                [ONE, S, T, ONE - S]]),
        # row set (1, 2) has a zero first pivot, so it swaps there
        matrix([[ONE, S, T, ONE], [ZERO, T, ONE - S, S],
                [S + T, ZERO, ONE, T.inverse()]]),
    ]
    # the unit-rich 6 x 7 Fox matrix of the extension's group of the
    # virtual trefoil, the kind of matrix every minor the program takes
    # comes from
    p = groups.reduced_group(
        gauss.to_diagram(gauss.parse_gauss_code(VIRTUAL_TREFOIL)))
    fox = groups.alexander_matrix(p)
    assert (fox.rows, fox.cols) == (6, 7)
    cases.append(fox)
    for m in cases:
        # every k, so k = 1 on the 3 x 4 cases as well
        for k in range(m.rows + 1):
            expect = [det_cofactor(m.submatrix(ri, ci))
                      for ri in combinations(range(m.rows), k)
                      for ci in combinations(range(m.cols), k)]
            assert m.minors(k) == expect


def test_matrix_views():
    m = matrix([[S, T], [ONE, ZERO]])
    assert m[0, 1] == T
    assert (m[1, 0], m[1, 1]) == (ONE, ZERO)
    assert m.submatrix([0], [1]) == matrix([[T]])
    assert m.submatrix([1, 0], [1, 0]) == matrix([[ZERO, ONE], [T, S]])
    assert m == PolyMatrix(2, 2, {(0, 0): S, (0, 1): T, (1, 0): ONE})
    with pytest.raises(ValueError):
        m.submatrix([0, 0], [1])


def test_matrix_constructor_contract():
    """One constructor, PolyMatrix(rows, cols, {(i, j): entry}): ints are
    constants, floats and strings raise TypeError, a key outside the matrix
    ValueError, and only nonzero entries are kept."""
    for bad in (2.9, "1"):
        with pytest.raises(TypeError):
            PolyMatrix(1, 1, {(0, 0): bad})
    for key in ((1, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            PolyMatrix(1, 2, {key: ONE})
    m = PolyMatrix(2, 3, {(0, 0): 2, (0, 1): 0, (1, 2): S - S, (1, 0): T})
    assert m.entries == {(0, 0): 2 * ONE, (1, 0): T}
    assert m[0, 1] == ZERO
    with pytest.raises(NotSquare):
        m.det()
    assert PolyMatrix(0, 0, {}).det() == ONE
    assert PolyMatrix(0, 3, {}).entries == {}
    with pytest.raises(ValueError):
        matrix([[S, T], [ONE]])
    rng = random.Random(19)
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        grid = [[random_poly(rng, span=1, terms=1) for _ in range(c)]
                for _ in range(r)]
        m = matrix(grid)
        assert len(m.entries) == sum(1 for row in grid for e in row if e)
        assert all(m[i, j] == e for i, row in enumerate(grid)
                   for j, e in enumerate(row))
        # minors in (row set, column set) order
        for k in range(min(r, c) + 1):
            assert m.minors(k) == [
                m.submatrix(ri, ci).det()
                for ri in combinations(range(r), k)
                for ci in combinations(range(c), k)]
