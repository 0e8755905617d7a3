"""Shared fixtures: the golden table of small virtual knots, every
one-circle diagram with a few chords, random diagram generators for
fuzzing, ribbon doubles and concordant knots, a PolyMatrix built from
nested lists, the reference code the tests compare against (exact
division and divisibility, the pseudo-remainder gcd, unit substitution,
the writhe polynomial by division and from the terms of delta0, the
symbolic Fox derivative and the Fox matrix of any unit images built on
it, the cofactor-expansion and plain Bareiss determinant oracles, the
rescanning unit-pivot search and Tietze elimination, the elementary
ideals over all minors, M - P over the short arcs and its Schur
complement on the arcs entering U slots, and the chord indices that
decide almost-classical diagrams), the rejected short-arc and Zh head
rules the calibration tests check against, the diagram transforms the
invariance and symmetry tests apply (basepoint rotation, chord
relabelling, deleting a component or the omega circle, reversal, sign
negation and the O/U swap), and the Reidemeister rewrites they walk
diagrams with."""

from itertools import combinations, product
from math import gcd as igcd

from vkalex import gauss, groups
from vkalex.alexander import NotAKnot
from vkalex.zh import ZhDiagram, zh
from vkalex.laurent import (
    LaurentPoly, NotDivisible, NotSquare, ONE, PolyMatrix, S, SizeTooLarge, T,
    ZERO, _ONE, _add, _canon_monomial_sign, _min_exp, _mul, _neg, _quo,
    _render, _shift, gcd,
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


def knot_diagrams(n):
    """Every one-circle Gauss diagram with n chords: each perfect matching
    of 2n points up to rotation, the least of its rotations in sorted pair
    order, with every O/U choice and every sign per chord.  4, 32, 320 and
    4,608 diagrams for n = 1..4, Reidemeister-reducible ones included."""
    def matchings(points):
        if not points:
            yield []
            return
        for i in range(1, len(points)):
            rest = points[1:i] + points[i + 1:]
            for m in matchings(rest):
                yield [(points[0], points[i])] + m

    def rotation(m, k):
        return sorted(tuple(sorted(((a + k) % (2 * n), (b + k) % (2 * n))))
                      for a, b in m)

    flip = {gauss.OVER: gauss.UNDER, gauss.UNDER: gauss.OVER}
    out = []
    for m in matchings(list(range(2 * n))):
        if any(rotation(m, k) < m for k in range(1, 2 * n)):
            continue
        for roles in product((gauss.OVER, gauss.UNDER), repeat=n):
            for signs in product((1, -1), repeat=n):
                comp = [None] * (2 * n)
                for k, ((a, b), role) in enumerate(zip(m, roles)):
                    comp[a] = (k, role)
                    comp[b] = (k, flip[role])
                out.append(gauss.GaussDiagram([comp], list(signs)))
    return out


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


def connected_sum(a, b, p, q):
    """The connected sum of the one-component diagrams a and b, cut before
    slot p of a and before slot q of b: a's word from slot p on, then b's
    from slot q on, with b's chords relabelled after a's."""
    (ca,), (cb,) = a.components, b.components
    n = len(a.signs)
    tail = [(c + n, role) for c, role in cb[q:] + cb[:q]]
    return gauss.GaussDiagram([ca[p:] + ca[:p] + tail], a.signs + b.signs)


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


def matrix(grid):
    """The PolyMatrix of a nested list of rows, all of one length; ints are
    taken as constants."""
    grid = [list(r) for r in grid]
    cols = len(grid[0]) if grid else 0
    if any(len(r) != cols for r in grid):
        raise ValueError("ragged rows")
    return PolyMatrix(len(grid), cols, {(i, j): e for i, r in enumerate(grid)
                                        for j, e in enumerate(r)})


def _div_exact(a, b):
    """Exact quotient a/b of raw dicts in the Laurent ring; NotDivisible if
    it does not exist.  Both arguments are shifted to least exponents 0,
    divided by laurent._quo, and the monomial shift is applied back at the
    end."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    ams, amt = _min_exp(a)
    bms, bmt = _min_exp(b)
    quo = _quo(_shift(a, -ams, -amt), _shift(b, -bms, -bmt))
    if quo is None:
        raise NotDivisible("%s is not divisible by %s"
                           % (_render(a), _render(b)))
    return _shift(quo, ams - bms, amt - bmt)


def exact_div(p, q):
    """The exact quotient p/q of two LaurentPolys; NotDivisible if it does
    not exist, ZeroDivisionError if q is zero."""
    return LaurentPoly(_div_exact(p.terms, q.terms))


def divides(a, b):
    """True when the LaurentPoly a divides b exactly."""
    if a.is_zero():
        return b.is_zero()
    try:
        exact_div(b, a)
    except NotDivisible:
        return False
    return True


# ---------------------------------------------------------------------------
# the gcd oracle: a primitive pseudo-remainder sequence (PRS) in t over Z[s]
# on raw dicts.  The content of a polynomial (the gcd of its t-coefficients)
# is a gcd of t-free polynomials, which _prs_gcd takes by swapping s and t
# and recursing; two integers end the recursion.  It swells on mid-sized
# inputs: one gcd of two 28- and 56-term minors with coefficients under 2^8
# takes about 10 s in the content gcds of _primitive.

def _swap(a):
    return {(et, es): c for (es, et), c in a.items()}


def _t_lead(a):
    """t-degree of the nonzero a and its t-leading coefficient."""
    d = max(et for _, et in a)
    return d, {(es, 0): c for (es, et), c in a.items() if et == d}


def _primitive(a):
    """(content, primitive part) of the nonzero a as a polynomial in t over
    Z[s]; the content is canonical up to +-s^k."""
    by_t = {}
    for (es, et), c in a.items():
        by_t.setdefault(et, {})[(es, 0)] = c
    g = {}
    for coeff in by_t.values():
        g = _prs_gcd(g, coeff)
        if g == _ONE:
            return g, a
    return g, _div_exact(a, g)


def _prem(a, b):
    """Pseudo-remainder of the nonzero a by b as polynomials in t."""
    db, lb = _t_lead(b)
    da, la = _t_lead(a)
    while da >= db:
        a = _add(_mul(lb, a), _shift(_mul(_neg(la), b), 0, da - db))
        if not a:
            break
        d, la = _t_lead(a)
        if d >= da:
            raise NotDivisible("pseudo-remainder failed to drop degree")
        da = d
    return a


def _prs_gcd(p, q):
    """gcd of raw dicts in Z[s^{+-1}, t^{+-1}], canonicalized up to
    +-s^a t^b."""
    if not p or not q:
        return _canon_monomial_sign(p or q)
    p = _canon_monomial_sign(p)
    q = _canon_monomial_sign(q)
    if not any(et for _, et in p) and not any(et for _, et in q):
        if len(p) == 1 and len(q) == 1:
            return {(0, 0): igcd(p[(0, 0)], q[(0, 0)])}
        return _canon_monomial_sign(_swap(_prs_gcd(_swap(p), _swap(q))))
    cp, f = _primitive(p)
    cq, g = _primitive(q)
    if _t_lead(f)[0] < _t_lead(g)[0]:
        f, g = g, f
    while g:
        r = _prem(f, g)
        f, g = g, (_primitive(r)[1] if r else r)
    return _canon_monomial_sign(_mul(f, _prs_gcd(cp, cq)))


def prs_gcd(p, q):
    """The gcd of two LaurentPolys by the PRS, canonical up to +-s^a t^b as
    laurent.gcd's is: the oracle for the heuristic."""
    return LaurentPoly(_prs_gcd(p.terms, q.terms))


def substitute(p, s_image, t_image):
    """p with s -> s_image, t -> t_image, both units +-s^a t^b: a linear map
    on exponents with a sign.  A non-unit image raises ValueError."""
    for image in (s_image, t_image):
        if not isinstance(image, LaurentPoly) or image.inverse() is None:
            raise ValueError("substitution needs a unit image "
                             "+-s^a t^b, got %s" % image)
    ((sa, sb), sc), = s_image.terms.items()
    ((ta, tb), tc), = t_image.terms.items()
    out = {}
    get = out.get
    for (es, et), c in p.terms.items():
        k = (sa * es + ta * et, sb * es + tb * et)
        out[k] = get(k, 0) + c * sc ** (es % 2) * tc ** (et % 2)
    return LaurentPoly(out)


def writhe_by_division(g):
    """-(g / (1 - st)) at (s, t) = (t^-1, t) for the delta0 g of a knot, by
    long division and substitution: an oracle for
    alexander.writhe_polynomial."""
    return -substitute(exact_div(g, ONE - ST), T.inverse(), T)


def writhe_from_delta0(g, d):
    """The writhe polynomial of the knot d from its delta0 g, in one pass
    over g's terms: an oracle for alexander.writhe_polynomial.  With u = st,
    g = sum c s^a t^b is F(u, t) = sum c u^a t^(b-a).  1 - st divides it
    exactly when F(1, t) = 0, which holds for every knot, and then the
    writhe polynomial is dF/du at u = 1, sum a c t^(b-a).  A factor (st)^k
    adds k F(1, t) = 0, so the result needs no unit normalization.  A
    nonzero F(1, t) raises NotDivisible."""
    if len(d.components) != 1:
        raise NotAKnot("the writhe polynomial is defined for knots only")
    at_one, slope = {}, {}
    for (a, b), c in g.terms.items():
        at_one[b - a] = at_one.get(b - a, 0) + c
        slope[b - a] = slope.get(b - a, 0) + a * c
    if any(at_one.values()):
        raise NotDivisible("1 - st does not divide det(M - P)")
    return LaurentPoly({(0, e): c for e, c in slope.items()})


def fox_derivative(w, gen):
    """Formal free derivative of the word w, a sequence of letters
    (generator id, +-1), by the given generator: a list of (+-1, prefix)
    pairs, one per occurrence, each prefix a tuple of letters.  The symbolic
    oracle for groups.alexander_matrix, which streams the prefix images."""
    out = []
    prefix = []
    for (g, e) in w:
        if e == 1:
            if g == gen:
                out.append((1, tuple(prefix)))
            prefix.append((g, e))
        else:
            prefix.append((g, e))
            if g == gen:
                out.append((-1, tuple(prefix)))
    return out


def tag_images(p):
    """The program's abelianization of the presentation p: omega generators
    to s, every other generator to t."""
    return {g: S if p.tags[g] == groups.OMEGA else T for g in p.generators}


def fox_matrix(p, images):
    """Alexander matrix of the presentation p under the abelianization
    sending generator g to the unit images[g]: entry (i, j) is the image of
    the Fox derivative of relator i by generator j, summed term by term
    from fox_derivative.  The oracle for groups.alexander_matrix, which
    takes tag_images(p) only, and the tests' way to other abelianizations."""
    def image(w):
        out = ONE
        for (g, e) in w:
            out = out * (images[g] if e == 1 else images[g].inverse())
        return out

    return PolyMatrix(len(p.relators), len(p.generators), {
        (i, j): sum((sign * image(prefix)
                     for sign, prefix in fox_derivative(w, g)), ZERO)
        for i, w in enumerate(p.relators)
        for j, g in enumerate(p.generators)})


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
    a = [[m[i, j] for j in range(n)] for i in range(n)]
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
                a[i][j] = exact_div(a[k][k] * a[i][j] - a[i][k] * a[k][j],
                                    prev)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def unit_schur_scan(rows, ncols):
    """The pivot-order oracle for laurent._unit_schur on the r x ncols matrix
    of the sparse rows: the same unit-pivot Schur steps and return value,
    with each step's pivot found by rating every unit entry of every live
    row afresh, the least fill cost (nnz(row) - 1) * (nnz(col) - 1) first,
    then the first in row and then column order.  A row that empties stays
    live."""
    live = list(range(len(rows)))
    cols = list(range(ncols))
    where = [set() for _ in cols]          # column -> rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    sign = 1
    ds = dt = 0
    while True:
        best = None
        for i in live:
            row = rows[i]
            fill = len(row) - 1
            for j in sorted(row):
                e = row[j]
                if len(e) == 1 and abs(next(iter(e.values()))) == 1:
                    cost = fill * (len(where[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and not best[0]:
                break
        if best is None:
            return sign, ds, dt, live, cols
        _, i, j = best
        top = rows[i]
        for col in top:
            where[col].discard(i)
        ((a, b), c), = top.pop(j).items()
        sign *= -c if (live.index(i) + cols.index(j)) % 2 else c
        ds += a
        dt += b
        live.remove(i)
        cols.remove(j)
        for k in where[j]:
            row = rows[k]
            f = {(es - a, et - b): -c * v
                 for (es, et), v in row.pop(j).items()}
            for col, v in top.items():
                e = _add(row.get(col, {}), _mul(f, v))
                if e:
                    if col not in row:
                        where[col].add(k)
                    row[col] = e
                elif col in row:
                    del row[col]
                    where[col].discard(k)


def tietze_scan(p):
    """The order oracle for groups.tietze_eliminate: the same eliminations
    and result, with every relator's letters and the totals over all of
    them counted afresh before each step, and every relator substituted
    into and cyclically reduced after it."""
    tags = dict(p.tags)
    rels = [groups._cyclically_reduced(w) for w in p.relators]
    rels = [w for w in rels if w]
    while True:
        total = {}
        for v in rels:
            for (h, _) in v:
                total[h] = total.get(h, 0) + 1
        best = None
        for ri, w in enumerate(rels):
            counts = {}
            for (g, _) in w:
                counts[g] = counts.get(g, 0) + 1
            for g, c in counts.items():
                if c != 1:
                    continue
                key = (len(w), total[g], g)
                if best is None or key < best[0]:
                    best = (key, ri, g)
        if best is None:
            break
        _, ri, g = best
        w = rels[ri]
        i = next(i for i, (h, _) in enumerate(w) if h == g)
        inverse = groups._inverse
        repl = groups._free_reduced(inverse(w[:i]) + inverse(w[i + 1:]))
        sub = {w[i]: repl, (g, -w[i][1]): inverse(repl)}
        rels = [groups._cyclically_reduced(
                    [y for l in x for y in sub.get(l, (l,))])
                for x in rels[:ri] + rels[ri + 1:]]
        rels = [x for x in rels if x]
        del tags[g]
    return groups.GroupPresentation(tags, rels)


def ideals_by_all_minors(mat, k_max):
    """(gcd, generator count) of E_0 .. E_k_max of the Fox matrix mat, g =
    mat.cols generators, with the gcd taken over every (g-k)-minor from
    PolyMatrix.minors: the oracle for groups.elementary_ideals, which takes
    only the minors it needs.  Minors of negative size give the full ring,
    minors larger than the row count the zero ideal."""
    g = mat.cols
    out = []
    for k in range(k_max + 1):
        size = g - k
        if size < 0:
            out.append((ONE, 1))
        elif size > mat.rows:
            out.append((ZERO, 0))
        else:
            mins = mat.minors(size)
            acc = ZERO
            for m in mins:
                acc = gcd(acc, m)
            out.append((acc, len(mins)))
    return out


# ---------------------------------------------------------------------------
# M - P over the short arcs, the matrix alexander.delta0 reduces to its
# crossing matrix N in one pass, built entry by entry from its definition

class NoCrossings(ValueError):
    """Operation needs at least one crossing."""


# Which of the pair (2k, 2k+1) the arc incoming at the over passage takes:
# 2k at a positive crossing, 2k+1 at a negative one, where the two strands
# trade sides ("over-first").  The mirror rule fails the worked 5.344
# polynomial; tests/test_alexander.py builds it from this one and checks so.
def _arc_offset(role, sign):
    return (role == gauss.OVER) != (sign > 0)


def short_arcs(d):
    """The successor map of the 2n short arcs of an n-crossing diagram, as a
    list: succ[a] is the arc that starts where arc a ends.  Arc ids are
    0-based; crossing k owns the incoming pair (2k, 2k+1), and the arc
    incoming at a slot ends there.  Raises NoCrossings on a chordless
    diagram."""
    n = len(d.signs)
    if n == 0:
        raise NoCrossings("no short arcs without crossings")
    succ = [None] * (2 * n)
    for comp in d.components:
        arcs = [2 * c + _arc_offset(role, d.signs[c]) for c, role in comp]
        for pos, a in enumerate(arcs):
            succ[a] = arcs[(pos + 1) % len(arcs)]
    return succ


_BLOCKS = {
    1: {(0, 0): T.inverse(), (0, 1): ONE - ST.inverse(), (1, 1): S.inverse()},
    -1: {(0, 0): S, (1, 0): ONE - ST, (1, 1): T},
}


def build_m_matrix(d):
    """Block-diagonal 2n x 2n matrix with the block of sign_k, whose nonzero
    entries _BLOCKS holds, at rows and columns (2k, 2k+1): the block of the
    alexander module docstring, its arcs entering O and U in that order at
    a positive crossing and swapped at a negative one (_arc_offset)."""
    n = len(d.signs)
    if n == 0:
        raise NoCrossings("M needs at least one crossing")
    return PolyMatrix(2 * n, 2 * n, {
        (2 * k + r, 2 * k + c): e for k, sign in enumerate(d.signs)
        for (r, c), e in _BLOCKS[sign].items()})


def p_matrix(successor):
    """P, the permutation matrix of the short-arc successor: entry (i, j)
    is 1 iff arc i immediately precedes arc j."""
    n = len(successor)
    return PolyMatrix(n, n, {ij: ONE for ij in enumerate(successor)})


def m_minus_p(d, successor):
    """M - P of the diagram d under the short-arc successor list."""
    diff = build_m_matrix(d)
    # P is nonzero only at (i, successor(i)), so only there is a 1 taken off
    for ij in enumerate(successor):
        e = diff.entries.pop(ij, ZERO) - ONE
        if e:
            diff.entries[ij] = e
    return diff


def under_schur(d):
    """The Schur complement of M - P on the arcs entering U slots of the
    circles that hold an O slot, taken one unit pivot at a time, with the
    rows and columns of the arcs of the other circles (U slots only)
    dropped: those rows hold no other column.  Rows and columns are the
    arcs entering O slots, in chord order, so this is the crossing matrix
    N that alexander.delta0 builds directly."""
    mp = m_minus_p(d, short_arcs(d))
    rows = [{} for _ in range(mp.rows)]
    for (i, j), e in mp.entries.items():
        rows[i][j] = e
    under = {}
    for comp in d.components:
        closed = all(role == gauss.UNDER for _, role in comp)
        for c, role in comp:
            if role == gauss.UNDER:
                under[2 * c + _arc_offset(role, d.signs[c])] = closed
    for a, closed in under.items():
        if closed:
            continue
        inv = rows[a].pop(a).inverse()
        for row in rows:
            if a in row:
                f = row.pop(a) * inv
                for j, e in rows[a].items():
                    row[j] = row.get(j, ZERO) - f * e
                    if not row[j]:
                        del row[j]
        rows[a] = {}
    overs = [a for a in range(mp.rows) if a not in under]
    index = {a: k for k, a in enumerate(overs)}
    return PolyMatrix(len(overs), len(overs), {
        (index[a], index[b]): e for a in overs for b, e in rows[a].items()
        if b in index})


def chord_indices(d):
    """index(c) of each chord c of the knot diagram d, in chord order: the
    sum of sign * (+1 at an O slot, -1 at a U slot) over the slots strictly
    after c's O slot and before its U slot.  These are the exponents of the
    affine index polynomial, and all are 0 exactly when d is almost
    classical (Alexander numberable)."""
    (comp,) = d.components
    at = {slot: p for p, slot in enumerate(comp)}
    out = []
    for c in range(len(d.signs)):
        p, q = at[c, gauss.OVER], at[c, gauss.UNDER]
        between = comp[p + 1:q] if p < q else comp[p + 1:] + comp[:q]
        out.append(sum(d.signs[x] if role == gauss.OVER else -d.signs[x]
                       for x, role in between))
    return out


# ---------------------------------------------------------------------------
# the rejected rules, built from the library's one rule each

def under_first_successor(d):
    """The short-arc successor under the mirror arc rule, in which the arc
    incoming at the under passage takes 2k at a positive crossing: the
    over-first successor conjugated by the swap 2k <-> 2k+1 of each
    crossing's pair of arcs."""
    succ = short_arcs(d)
    return [succ[i ^ 1] ^ 1 for i in range(len(succ))]


def zh_head_under(d):
    """The omega-extension with a chord's under endpoint taken as its head:
    the library's extension of the O/U-swapped diagram, with the O/U of the
    original chords (ids below n) swapped back."""
    n = len(d.signs)
    z = zh(swapped(d)).diagram
    flip = {gauss.OVER: gauss.UNDER, gauss.UNDER: gauss.OVER}
    comps = [[(c, flip[role] if c < n else role) for c, role in comp]
             for comp in z.components]
    return ZhDiagram(gauss.GaussDiagram(comps, z.signs), len(comps) - 1)


# ---------------------------------------------------------------------------
# diagram transforms

def rotated(d, ci, k):
    """Move the basepoint of component ci forward by k slots."""
    if not 0 <= ci < len(d.components):
        raise gauss.BadIndex("no component %d" % ci)
    comps = [list(c) for c in d.components]
    comp = comps[ci]
    if comp:
        k %= len(comp)
        comps[ci] = comp[k:] + comp[:k]
    return gauss.GaussDiagram(comps, d.signs)


def relabeled(d, perm):
    """Renumber chords: old id c becomes perm[c]."""
    if sorted(perm) != list(range(len(d.signs))):
        raise ValueError("perm must be a permutation of chord ids")
    comps = [[(perm[c], role) for (c, role) in comp]
             for comp in d.components]
    signs = [0] * len(d.signs)
    for old, new in enumerate(perm):
        signs[new] = d.signs[old]
    return gauss.GaussDiagram(comps, signs)


def reversed_diagram(d):
    """Every component walked the other way; signs kept."""
    return gauss.GaussDiagram([c[::-1] for c in d.components], d.signs)


def negated(d):
    """Every chord sign negated; O and U kept."""
    return gauss.GaussDiagram(d.components, [-e for e in d.signs])


def swapped(d):
    """O and U swapped at every chord; signs kept."""
    flip = {gauss.OVER: gauss.UNDER, gauss.UNDER: gauss.OVER}
    return gauss.GaussDiagram(
        [[(c, flip[role]) for c, role in comp] for comp in d.components],
        d.signs)


def delete_component(d, idx):
    """Remove component idx and every chord with an endpoint on it.
    Surviving chords are reindexed in order."""
    if not 0 <= idx < len(d.components):
        raise gauss.BadIndex("no component %d" % idx)
    rest = _remove_chords(d, {c for (c, _) in d.components[idx]})
    comps = rest.components
    return gauss.GaussDiagram(comps[:idx] + comps[idx + 1:], rest.signs)


def _remove_chords(d, doomed):
    keep = [c for c in range(len(d.signs)) if c not in doomed]
    newid = {c: i for i, c in enumerate(keep)}
    comps = [[(newid[c], role) for (c, role) in comp if c not in doomed]
             for comp in d.components]
    return gauss.GaussDiagram(comps, [d.signs[c] for c in keep])


def delete_omega(z):
    """Drop the omega component of a ZhDiagram and its chords; returns the
    original diagram."""
    return delete_component(z.diagram, z.omega_index)


# ---------------------------------------------------------------------------
# Reidemeister rewrites
#
# The chord-level patterns below were frozen by fuzzing: a candidate pattern
# counted as a valid move only if the generalized Alexander polynomial was
# unchanged across every random host diagram and site.  The surviving
# families are hard-coded here; the moves never search for sites.  Since
# that makes a delta0 check of them partly circular, tests/test_moves.py
# also checks them against the elementary ideals of the link group, which
# no pattern was chosen by.


class NotApplicable(ValueError):
    """Move preconditions not met at the requested site."""


def _insert(comps, jobs):
    """jobs: list of ((ci, pos), [slots]) gap insertions.  Inserting at a gap
    does not shift gaps with smaller positions, so apply each component's
    jobs from the largest position down."""
    comps = [list(c) for c in comps]
    order = sorted(range(len(jobs)),
                   key=lambda i: (jobs[i][0][0], -jobs[i][0][1], -i))
    for i in order:
        (ci, pos), slots = jobs[i]
        if not 0 <= ci < len(comps):
            raise gauss.BadIndex("no component %d" % ci)
        if not 0 <= pos <= len(comps[ci]):
            raise gauss.BadIndex("gap %d out of range on component %d" % (pos, ci))
        comps[ci][pos:pos] = slots
    return comps


def apply_r1(d, site, sign, kind="over-first"):
    """Insert an isolated kink chord at the gap `site` = (component, pos).
    kind 'over-first' inserts the O endpoint first along the orientation,
    'under-first' the U endpoint."""
    if kind not in ("over-first", "under-first"):
        raise NotApplicable("unknown R1 kind %r" % kind)
    if sign not in (1, -1):
        raise NotApplicable("sign must be +-1")
    c = len(d.signs)
    pair = [(c, gauss.OVER), (c, gauss.UNDER)]
    if kind == "under-first":
        pair.reverse()
    comps = _insert(d.components, [(site, pair)])
    return gauss.GaussDiagram(comps, d.signs + [sign])


def undo_r1(d, chord):
    """Remove a kink: the chord's endpoints must be adjacent slots."""
    if not 0 <= chord < len(d.signs):
        raise gauss.BadIndex("no chord %d" % chord)
    spots = [(ci, pos) for ci, comp in enumerate(d.components)
             for pos, (c, _) in enumerate(comp) if c == chord]
    (c1, p1), (c2, p2) = spots
    if c1 != c2:
        raise NotApplicable("chord %d spans two components" % chord)
    length = len(d.components[c1])
    if (p1 + 1) % length != p2 and (p2 + 1) % length != p1:
        raise NotApplicable("chord %d endpoints are not adjacent" % chord)
    return _remove_chords(d, {chord})


def apply_r2(d, site_a, site_b):
    """Insert a cancelling pair of chords: both O endpoints at gap site_a (in
    id order), both U endpoints at gap site_b, signs +1 then -1."""
    n = len(d.signs)
    c1, c2 = n, n + 1
    jobs = [(site_a, [(c1, gauss.OVER), (c2, gauss.OVER)]),
            (site_b, [(c1, gauss.UNDER), (c2, gauss.UNDER)])]
    comps = _insert(d.components, jobs)
    return gauss.GaussDiagram(comps, d.signs + [1, -1])


def undo_r2(d, chord_a, chord_b):
    """Remove a cancelling pair.  Valid iff the two O endpoints are adjacent
    at one site, the two U endpoints adjacent at the other (either order at
    each site), and the signs are opposite."""
    if chord_a == chord_b:
        raise NotApplicable("need two distinct chords")
    for c in (chord_a, chord_b):
        if not 0 <= c < len(d.signs):
            raise gauss.BadIndex("no chord %d" % c)
    if d.signs[chord_a] + d.signs[chord_b] != 0:
        raise NotApplicable("signs must cancel")
    pair = {chord_a, chord_b}
    sites = {gauss.OVER: [], gauss.UNDER: []}
    for ci, comp in enumerate(d.components):
        for pos, (c, role) in enumerate(comp):
            if c in pair:
                sites[role].append((ci, pos))
    for role in (gauss.OVER, gauss.UNDER):
        (c1, p1), (c2, p2) = sorted(sites[role])
        if c1 != c2:
            raise NotApplicable("the two %s endpoints sit on different components" % role)
        length = len(d.components[c1])
        if (p1 + 1) % length != p2 and (p2 + 1) % length != p1:
            raise NotApplicable("the two %s endpoints are not adjacent" % role)
    return _remove_chords(d, pair)


def _triangle_geometry(d, triangle):
    """Shared validation for the triangle move.  `triangle` is either three
    chord ids or three explicit (component, pos, pos+1-mod-L) slot pairs; the
    explicit form disambiguates the rare case where four triangle endpoints
    sit consecutively around a circle.  Returns (pairs, strand_chords) where
    pairs[i] = (ci, p, q) is the i-th adjacent slot pair and strand_chords[i]
    the two (chord, role) slots in walk order."""
    triangle = list(triangle)
    if len(triangle) != 3:
        raise NotApplicable("need three chords")
    if all(isinstance(x, tuple) for x in triangle):
        pairs = []
        for (ci, p, q) in triangle:
            if not 0 <= ci < len(d.components):
                raise gauss.BadIndex("no component %d" % ci)
            length = len(d.components[ci])
            if not (0 <= p < length and 0 <= q < length):
                raise gauss.BadIndex("slot out of range on component %d" % ci)
            if (p + 1) % length != q:
                raise NotApplicable("slots %d,%d are not adjacent in order" % (p, q))
            pairs.append((ci, p, q))
        seen = set()
        for (ci, p, q) in pairs:
            if (ci, p) in seen or (ci, q) in seen:
                raise NotApplicable("slot pairs overlap")
            seen.add((ci, p))
            seen.add((ci, q))
    else:
        tri = set(triangle)
        if len(tri) != 3:
            raise NotApplicable("need three distinct chords")
        for c in tri:
            if not 0 <= c < len(d.signs):
                raise gauss.BadIndex("no chord %d" % c)
        pairs = []
        for ci, comp in enumerate(d.components):
            length = len(comp)
            pos_tri = [p for p in range(length) if comp[p][0] in tri]
            used = set()
            for p in pos_tri:
                q = (p + 1) % length
                if comp[q][0] in tri and p not in used and q not in used:
                    pairs.append((ci, p, q))
                    used.add(p)
                    used.add(q)
            if len(used) != len(pos_tri):
                raise NotApplicable("triangle endpoints do not pair up into "
                                    "adjacent slots")
    if len(pairs) != 3:
        raise NotApplicable("expected 3 adjacent endpoint pairs, found %d"
                            % len(pairs))
    strand_chords = []
    for (ci, p, q) in pairs:
        a, b = d.components[ci][p], d.components[ci][q]
        if a[0] == b[0]:
            raise NotApplicable("chord %d meets itself across a pair" % a[0])
        strand_chords.append((a, b))
    return pairs, strand_chords


def _triangle_heights(strand_chords, signs):
    """Height order and sign rule for the triangle move; raises NotApplicable
    when the configuration is not slide-able."""
    chord_strands = {}
    for si, (a, b) in enumerate(strand_chords):
        for (c, role) in (a, b):
            chord_strands.setdefault(c, []).append((si, role))
    if any(len(v) != 2 for v in chord_strands.values()):
        raise NotApplicable("each chord must touch two of the three strands")
    edges = {}
    for c, ends in chord_strands.items():
        (s1, r1), (s2, r2) = ends
        if s1 == s2 or {r1, r2} != {gauss.OVER, gauss.UNDER}:
            raise NotApplicable("chord %d does not join two strands" % c)
        key = frozenset((s1, s2))
        if key in edges:
            raise NotApplicable("two chords join the same strand pair")
        above, below = (s1, s2) if r1 == gauss.OVER else (s2, s1)
        edges[key] = (c, above, below)
    if len(edges) != 3:
        raise NotApplicable("the three chords must pairwise join the strands")
    wins = {0: 0, 1: 0, 2: 0}
    for (_, above, _) in edges.values():
        wins[above] += 1
    if sorted(wins.values()) != [0, 1, 2]:
        raise NotApplicable("over/under roles are cyclic; no strand is on top")
    top = next(s for s, w in wins.items() if w == 2)
    mid = next(s for s, w in wins.items() if w == 1)
    bot = next(s for s, w in wins.items() if w == 0)
    c_tm = edges[frozenset((top, mid))][0]
    c_tb = edges[frozenset((top, bot))][0]
    c_mb = edges[frozenset((mid, bot))][0]

    def first_chord(strand):
        return strand_chords[strand][0][0]

    bit_t = first_chord(top) == c_tm
    bit_m = first_chord(mid) == c_tm
    bit_b = first_chord(bot) == c_tb
    if (signs[c_tm] * signs[c_tb] == 1) != (bit_m == bit_b):
        raise NotApplicable("sign pattern does not match the slide (top pair)")
    if (signs[c_tb] * signs[c_mb] == 1) != (bit_t == bit_m):
        raise NotApplicable("sign pattern does not match the slide (bottom pair)")


def apply_r3(d, triangle):
    """Slide move on three chords.  Their six endpoints must form three
    adjacent slot pairs, one per strand, the over/under roles must order the
    three strands top/middle/bottom, and the signs must satisfy the parity
    rule frozen from invariance fuzzing (see tests).  The move transposes
    each adjacent pair and is its own inverse."""
    pairs, strand_chords = _triangle_geometry(d, triangle)
    _triangle_heights(strand_chords, d.signs)
    comps = [list(c) for c in d.components]
    for (ci, p, q) in pairs:
        comps[ci][p], comps[ci][q] = comps[ci][q], comps[ci][p]
    return gauss.GaussDiagram(comps, d.signs)


def concordant(d, rng):
    """A knot concordant to the knot d: d joined by connected_sum to one or
    two ribbon_doubles of random 1-3-chord knots at random slots, then one
    to four Reidemeister moves, each an R1 kink, an R2 pair or an R3 slide
    where one applies.  Each sum is concordant to d by one saddle and the
    slice disc of the ribbon double."""
    for _ in range(rng.randint(1, 2)):
        j = ribbon_double(random_knot(rng, rng.randint(1, 3)))
        d = connected_sum(d, j, rng.randrange(len(d.components[0])),
                          rng.randrange(2 * len(j.signs)))
    for _ in range(rng.randint(1, 4)):
        slides = []
        for tri in combinations(range(len(d.signs)), 3):
            try:
                slides.append(apply_r3(d, tri))
            except NotApplicable:
                pass
        move = rng.choice(("r1", "r2", "r3") if slides else ("r1", "r2"))
        gaps = len(d.components[0]) + 1
        if move == "r3":
            d = rng.choice(slides)
        elif move == "r1":
            d = apply_r1(d, (0, rng.randrange(gaps)), rng.choice((1, -1)),
                         rng.choice(("over-first", "under-first")))
        else:
            d = apply_r2(d, (0, rng.randrange(gaps)), (0, rng.randrange(gaps)))
    return d
