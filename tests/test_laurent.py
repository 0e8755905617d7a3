import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from vkalex.laurent import (
    CanonicalForm, LaurentPoly, PolyMatrix, canonicalize, gcd, EXACT,
    MONOMIAL_SIGN, NotDivisible, NotSquare, POWERS_OF_ST, SizeTooLarge,
    ONE, S, T, ZERO,
)
from vkalex import gauss, groups
from _util import VIRTUAL_TREFOIL, det_cofactor, divides, random_poly

exps = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-1000, max_value=1000)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5).map(LaurentPoly)


def test_construction_drops_zero_coefficients():
    p = LaurentPoly({(0, 0): 0, (1, 2): 3})
    assert p.terms == {(1, 2): 3}
    assert LaurentPoly({}) == ZERO
    assert LaurentPoly() == ZERO


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
    assert (p * q).exact_div(q) == p


def test_not_divisible():
    with pytest.raises(NotDivisible):
        (ONE + S).exact_div(ONE + T)
    with pytest.raises(ZeroDivisionError):
        (ONE + S).exact_div(ZERO)
    # units divide everything
    assert (ONE + T).exact_div(S) == S.inverse() * (ONE + T)


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
    q = p.substitute(T.inverse(), T)
    assert q == ZERO
    assert (S + T).substitute(T, T) == 2 * T
    with pytest.raises(NotDivisible):
        (S.inverse()).substitute(ONE + T, T)


def test_canonicalize_quotients_units():
    p = (ONE - T) * (ONE - S * T)
    for unit in (S * T, -ONE, S.inverse(), -S * T.inverse() * T.inverse()):
        assert canonicalize(p * unit, MONOMIAL_SIGN) == canonicalize(p, MONOMIAL_SIGN)
    # st-powers keeps the sign but forgets powers of st
    stp = canonicalize(p, POWERS_OF_ST)
    assert canonicalize(p * S * T, POWERS_OF_ST) == stp
    assert canonicalize(-p, POWERS_OF_ST) != stp
    assert canonicalize(p, EXACT) != canonicalize(p * S * T, EXACT)
    assert canonicalize(p, EXACT).poly == p


@settings(max_examples=200, deadline=None)
@given(polys)
def test_canonicalize_idempotent(p):
    c = canonicalize(p, MONOMIAL_SIGN)
    assert canonicalize(c.poly, MONOMIAL_SIGN) == c
    # canonical representative has min exponents (0, 0)
    if not p.is_zero():
        assert min(es for es, _ in c.poly.terms) == 0
        assert min(et for _, et in c.poly.terms) == 0


def test_canonical_form_classes_do_not_mix():
    a = canonicalize(ONE - T, MONOMIAL_SIGN)
    b = canonicalize(ONE - T, POWERS_OF_ST)
    assert a != b
    assert a == canonicalize(T - ONE, MONOMIAL_SIGN)
    with pytest.raises(ValueError):
        CanonicalForm(ONE, "bogus")


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
        canonicalize(2 * (ONE - S), MONOMIAL_SIGN).poly
    assert gcd(3 * S, 3 * T) == 3 * ONE
    assert gcd(2 - 2 * T, 4 * S - 4 * S * T) == \
        canonicalize(2 * (ONE - T), MONOMIAL_SIGN).poly
    assert gcd(-4 * ONE, 6 * ONE) == 2 * ONE
    assert gcd(6 * (ONE - T) * (ONE + S), 9 * (ONE + S) * S) == \
        canonicalize(3 * (ONE + S), MONOMIAL_SIGN).poly


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


def test_det_goldens():
    m = PolyMatrix([[S, T], [ONE, S]])
    assert m.det() == S * S - T
    assert PolyMatrix([[S]]).det() == S
    assert PolyMatrix(0, 0, []).det() == ONE
    # identical rows
    assert PolyMatrix([[S, T], [S, T]]).det() == ZERO
    with pytest.raises(NotSquare):
        PolyMatrix(1, 2, [S, T]).det()


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = PolyMatrix([[random_poly(rng, span=2, terms=2)
                         for _ in range(n)] for _ in range(n)])
        assert m.det() == det_cofactor(m)
    # sparse inputs where most pivots are units +-s^a t^b
    z = ZERO
    # signed monomial permutation matrix of the 4-cycle 0->2->3->1 (odd):
    # every pivot is a unit and nothing is left for Bareiss
    perm = PolyMatrix([[z, z, -S * T, z],
                       [T.inverse(), z, z, z],
                       [z, z, z, S * S],
                       [z, -ONE, z, z]])
    assert perm.det() == -(-S * T) * T.inverse() * (S * S) * -ONE
    # the only unit sits at (0, 1), an odd position
    odd = PolyMatrix([[ONE + S, -T, 2 * ONE],
                      [2 * S, ONE + T, ONE - S],
                      [ONE - T, 3 * ONE, S + T]])
    # two crossing blocks, positive then negative, minus a permutation, as
    # in M - P
    mp = PolyMatrix([[T.inverse(), ONE - (S * T).inverse(), -ONE, z],
                     [z, S.inverse(), z, -ONE],
                     [z, -ONE, S, z],
                     [-ONE, z, ONE - S * T, T]])
    # row 1 is t times row 0, so the first Schur step empties it
    empty = PolyMatrix([[ONE, S, z], [T, S * T, z], [ONE + S, T, 2 * ONE]])
    assert empty.det() == ZERO
    for m in (perm, odd, mp, empty):
        assert m.det() == det_cofactor(m)


def test_det_row_swap_flips_sign():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = PolyMatrix([[random_poly(rng, span=2, terms=2)
                         for _ in range(n)] for _ in range(n)])
        rows = [m.row(r) for r in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert PolyMatrix(swapped).det() == -m.det()
        assert PolyMatrix(list(zip(*rows))).det() == m.det()


def test_det_cofactor_size_cap():
    big = PolyMatrix([[ONE] * 9 for _ in range(9)])
    with pytest.raises(SizeTooLarge):
        det_cofactor(big)


def test_minors_conventions():
    m = PolyMatrix([[S, T, ONE], [ONE, S, T]])
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
        cases.append(PolyMatrix([[random_poly(rng, span=2, terms=2)
                                  for _ in range(c)] for _ in range(r)]))
    cases += [
        # all-zero column: every minor that takes it vanishes
        PolyMatrix([[S, ZERO, T, ONE], [ONE, ZERO, S, T], [T, ZERO, ONE, S]]),
        # zero row: every maximal minor vanishes
        PolyMatrix([[S, T, ONE], [ZERO, ZERO, ZERO]]),
        # zero (0,0) entry: the first pivot needs a row swap
        PolyMatrix([[ZERO, S, T, ONE], [T.inverse(), ONE, ZERO, S],
                    [ONE - S, ZERO, S * T, T]]),
        # zero middle row: every row set that holds it is all zero
        PolyMatrix([[S, T, ONE, S * T], [ZERO, ZERO, ZERO, ZERO],
                    [ONE, S, T, ONE - S]]),
        # row set (1, 2) has a zero first pivot, so it swaps there
        PolyMatrix([[ONE, S, T, ONE], [ZERO, T, ONE - S, S],
                    [S + T, ZERO, ONE, T.inverse()]]),
    ]
    # the unit-rich 6 x 7 Fox matrix of the extension's group of the
    # virtual trefoil, the kind of matrix every minor the program takes
    # comes from
    p = groups.reduced_group(
        gauss.to_diagram(gauss.parse_gauss_code(VIRTUAL_TREFOIL)))
    fox = groups.alexander_matrix(p, groups.Abelianization.standard(p))
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
    m = PolyMatrix([[S, T], [ONE, ZERO]])
    assert m[0, 1] == T
    assert m.row(1) == [ONE, ZERO]
    assert m.submatrix([0], [1]) == PolyMatrix([[T]])
    assert m == PolyMatrix(2, 2, [S, T, ONE, ZERO])
