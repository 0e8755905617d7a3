"""Shared fixtures: the golden table of small virtual knots, random
diagram generators for fuzzing, ribbon doubles, and the reference code the
tests compare against: exact divisibility, the symbolic Fox derivative, and
the cofactor-expansion and plain Bareiss determinant oracles."""

from vkalex import gauss, groups
from vkalex.laurent import (
    NotDivisible, NotSquare, ONE, S, SizeTooLarge, T, ZERO,
)

ST = S * T

# name -> gauss code, for the 4- and 5-crossing knots with published
# generalized Alexander polynomials
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

# expected polynomials in product form; None means identically zero
TABLE1_EXPECTED = {
    "4.12": (ONE - T) * (ONE - S) * (T - S) * (ONE - ST) ** 2,
    "5.93": -(ONE - T) * (ONE - S) * (ONE - ST) ** 3,
    "5.114": None,
    "5.212": (ONE - T) * (ONE - S) * (ONE - ST) ** 3,
    "5.344": -(ONE - S * S) * (ONE - T) ** 2 * (ONE - ST) ** 2,
    "5.919": (ONE - T) * (ONE - S) * (ONE - ST) ** 3,
    "5.1034": -(ONE - T) * (ONE - S) * (ONE - ST) ** 3,
    "5.1216": None,
    "5.1963": None,
    "5.2351": -(ONE - T) * (ONE - S) * (ONE - ST) ** 3,
    "5.2430": -(ONE - T * T) * (ONE - S * S) * (ONE - ST) ** 3,
    "5.2435": -(ONE - T * T) * (ONE - S * S) * (ONE - ST) ** 3,
}

ZERO_NAMES = ("5.114", "5.1216", "5.1963")

CLASSICAL_TREFOIL = "O1+U2+O3+U1+O2+U3+"
VIRTUAL_TREFOIL = "O1+O2+U1+U2+"
KINK = "O1+U1+"


def table1_diagram(name):
    return gauss.to_diagram(gauss.parse_gauss_code(TABLE1[name]))


def random_knot(rng, n):
    """Random one-component diagram with n chords."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    comp = [None] * (2 * n)
    signs = []
    for k in range(n):
        a, b = slots[2 * k], slots[2 * k + 1]
        if rng.random() < 0.5:
            a, b = b, a
        comp[a] = (k, gauss.OVER)
        comp[b] = (k, gauss.UNDER)
        signs.append(rng.choice((1, -1)))
    return gauss.GaussDiagram([comp], signs)


def random_link(rng, n, ncomps):
    """Random diagram with n chords spread over ncomps circles; some circles
    may come out chordless."""
    cuts = sorted(rng.randint(0, 2 * n) for _ in range(ncomps - 1))
    sizes = []
    prev = 0
    for c in cuts + [2 * n]:
        sizes.append(c - prev)
        prev = c
    slots = []
    for ci, size in enumerate(sizes):
        for p in range(size):
            slots.append((ci, p))
    rng.shuffle(slots)
    comps = [[None] * size for size in sizes]
    signs = []
    for k in range(n):
        (ca, pa), (cb, pb) = slots[2 * k], slots[2 * k + 1]
        if rng.random() < 0.5:
            (ca, pa), (cb, pb) = (cb, pb), (ca, pa)
        comps[ca][pa] = (k, gauss.OVER)
        comps[cb][pb] = (k, gauss.UNDER)
        signs.append(rng.choice((1, -1)))
    return gauss.GaussDiagram(comps, signs)


def ribbon_double(d):
    """K # -K* of the one-component diagram d: its word followed by the
    reversed word, each appended crossing keeping its O/U role under a fresh
    label and with its sign flipped.  A ribbon knot, so virtually slice."""
    (comp,) = d.components
    n = len(d.signs)
    tail = [(c + n, role) for c, role in reversed(comp)]
    return gauss.GaussDiagram([comp + tail], d.signs + [-e for e in d.signs])


def random_poly(rng, span=3, terms=4, coeff=9):
    """Random Laurent polynomial with exponents in [-span, span]."""
    from vkalex.laurent import LaurentPoly
    d = {}
    for _ in range(rng.randint(0, terms)):
        es = rng.randint(-span, span)
        et = rng.randint(-span, span)
        c = rng.randint(-coeff, coeff)
        if c:
            d[(es, et)] = d.get((es, et), 0) + c
    return LaurentPoly(d)


def divides(a, b):
    """True when the LaurentPoly a divides b exactly."""
    if a.is_zero():
        return b.is_zero()
    try:
        b.exact_div(a)
    except NotDivisible:
        return False
    return True


def fox_derivative(w, gen):
    """Formal free derivative of the groups.Word w by the given generator:
    a list of (+-1, Word prefix) pairs, one per occurrence.  The symbolic
    oracle for groups.alexander_matrix, which streams the prefix images."""
    out = []
    prefix = []
    for (g, e) in w:
        if e == 1:
            if g == gen:
                out.append((1, groups.Word(prefix)))
            prefix.append((g, e))
        else:
            prefix.append((g, e))
            if g == gen:
                out.append((-1, groups.Word(prefix)))
    return out


def det_cofactor(m):
    """Cofactor-expansion determinant of the PolyMatrix m, the independent
    oracle for PolyMatrix.det.  Exponential; refuses anything larger than
    8x8."""
    if m.rows != m.cols:
        raise NotSquare("det of a %dx%d matrix" % (m.rows, m.cols))
    if m.rows > 8:
        raise SizeTooLarge("cofactor oracle capped at 8x8")
    memo = {}

    def minor(rows_left, cols_left):
        if not rows_left:
            return ONE
        key = (rows_left, cols_left)
        if key in memo:
            return memo[key]
        r = rows_left[0]
        rest = rows_left[1:]
        acc = ZERO
        for pos, c in enumerate(cols_left):
            e = m[r, c]
            if not e:
                continue
            term = e * minor(rest, cols_left[:pos] + cols_left[pos + 1:])
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    n = m.rows
    return minor(tuple(range(n)), tuple(range(n)))


def det_bareiss(m):
    """Plain fraction-free Bareiss determinant of the PolyMatrix m: step k
    pivots on the first nonzero entry of column k from row k down, with no
    unit pivots and no pre-scaling.  The oracle for PolyMatrix.det on
    matrices too large for det_cofactor."""
    if m.rows != m.cols:
        raise NotSquare("det of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    if n == 0:
        return ONE
    a = [m.row(i) for i in range(n)]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return ZERO
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]
