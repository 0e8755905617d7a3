"""Exact arithmetic in Z[s^{+-1}, t^{+-1}] plus the small amount of linear
algebra (fraction-free determinants, minors, gcd) the invariant engines need.

A polynomial is stored as a dict mapping exponent pairs (e_s, e_t) to nonzero
integer coefficients; the zero polynomial is the empty dict.  All arithmetic
is exact integer arithmetic, no floats anywhere.  The raw-dict helpers at the
top are the hot path; LaurentPoly is a thin immutable wrapper around them.
"""

import operator
from itertools import combinations
from math import gcd as igcd, isqrt, prod


class NotDivisible(ArithmeticError):
    """Exact division requested but the quotient does not exist."""


class NotSquare(ValueError):
    """Determinant of a non-square matrix."""


class SizeTooLarge(ValueError):
    """Minor size exceeds the matrix dimensions."""


# unit classes for canonical forms
MONOMIAL_SIGN = "monomial-sign"   # up to +- s^a t^b
POWERS_OF_ST = "st-powers"        # up to (st)^k, sign kept
EXACT = "exact"                   # no normalization
UNIT_CLASSES = (MONOMIAL_SIGN, POWERS_OF_ST, EXACT)


# ---------------------------------------------------------------------------
# raw dict arithmetic

_ONE = {(0, 0): 1}


def _add(a, b):
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, 0) + c
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


def _neg(a):
    return {k: -c for k, c in a.items()}


def _mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for (e1s, e1t), c1 in a.items():
        for (e2s, e2t), c2 in b.items():
            k = (e1s + e2s, e1t + e2t)
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _shift(a, ds, dt):
    if not (ds or dt):
        return dict(a)
    return {(es + ds, et + dt): c for (es, et), c in a.items()}


def _min_exp(a):
    ms = min(es for es, _ in a)
    mt = min(et for _, et in a)
    return ms, mt


def _quo(a, b):
    """The quotient a/b of the nonzero a and b in Z[s, t] by lex-leading long
    division, or None when b does not divide a there."""
    lb = max(b)
    lcb = b[lb]
    rem = dict(a)
    get = rem.get
    quo = {}
    while rem:
        la = max(rem)
        ca = rem[la]
        ds, dt = la[0] - lb[0], la[1] - lb[1]
        if ds < 0 or dt < 0 or ca % lcb != 0:
            return None
        qc = ca // lcb
        quo[(ds, dt)] = qc
        for (es, et), c in b.items():
            k = (es + ds, et + dt)
            nc = get(k, 0) - qc * c
            if nc:
                rem[k] = nc
            else:
                del rem[k]
    return quo


def _render_key(k):
    # report order: ascending t-exponent, then ascending s-exponent
    return (k[1], k[0])


def _canon_monomial_sign(a):
    """Representative of the +-s^a t^b orbit: min exponents at 0 in each
    variable, first term in report order positive."""
    if not a:
        return {}
    ms, mt = _min_exp(a)
    out = _shift(a, -ms, -mt)
    if out[min(out, key=_render_key)] < 0:
        out = _neg(out)
    return out


def _canon_st_powers(a):
    """Representative of the (st)^k orbit: smallest of the two minimum
    exponents brought to 0.  The sign is meaningful here and kept."""
    if not a:
        return {}
    ms, mt = _min_exp(a)
    k = min(ms, mt)
    return _shift(a, -k, -k)


def _render(a):
    if not a:
        return "0"
    bits = []
    for (es, et) in sorted(a, key=_render_key):
        c = a[(es, et)]
        term = []
        if es:
            term.append("s" if es == 1 else "s^%d" % es)
        if et:
            term.append("t" if et == 1 else "t^%d" % et)
        body = "*".join(term)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        bits.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# ---------------------------------------------------------------------------
# gcd: GCDHEU (Char, Geddes and Gonnet 1989) on the same (e_s, e_t) dicts as
# the rest of the ring.
#
# The heuristic evaluates s at an integer xi, takes the gcd of the two images
# in Z[t] by the same heuristic at t = xi' (there the images are integers and
# math.gcd ends the recursion), and reads the gcd of the images back as
# balanced xi-adic digits in s.  With xi at least 2 min(|p|, |q|) + 2, a
# primitive candidate that divides both primitive inputs is their gcd.  The
# gcd of the images keeps its integer content: a factor in s alone, such as
# 1 + s, evaluates to an integer.  Evaluating s and t together, at s = xi
# and t = xi^k, would map 1 - s to a divisor of the image of 1 - t for every
# k, so the Alexander-type inputs of the ideals path, which carry both, would
# never pass the division.
#
# The loop over xi has no cap, and it ends.  Let G be the gcd of the
# primitive inputs and p', q' the cofactors, which are coprime.  For all but
# finitely many xi the images p'(xi, t) and q'(xi, t) share no factor of
# positive degree (their resultant in t and their leading coefficients do not
# vanish at xi), so the gcd of the images is +-k G(xi, t), with k an integer
# that divides every t-coefficient of p' and q' at xi.  Those coefficients
# have no common factor in Z[s], so a Bezout combination of them over Z[s]
# is a fixed nonzero integer R, and k divides R.  Once xi > 2 |R| |G|, with
# |G| the largest coefficient, the balanced digits read back k G, whose
# primitive part G passes the division.  xi grows by 73794/27011 at each
# point, so it gets there.  The univariate level follows by the same
# argument.

def _divides(b, a):
    """True when the nonzero b divides a in Z[s, t]: the heuristic's trial
    division, which needs no quotient and no message."""
    return _quo(a, b) is not None


def _at_s(f, xi):
    """f at s = xi, a polynomial in t, with t renamed s: {(e_t, 0): c}."""
    img = {}
    for (es, et), v in f.items():
        img[et] = img.get(et, 0) + v * xi ** es
    return {(et, 0): v for et, v in img.items() if v}


def _heu(p, q):
    """gcd of the nonzero p and q in Z[s, t], both with least exponents 0, by
    GCDHEU: the points xi grow until a candidate passes the division."""
    cp, cq = igcd(*p.values()), igcd(*q.values())
    c = igcd(cp, cq)
    # least exponents 0: a single term is a constant
    if len(p) == 1 or len(q) == 1:
        return {(0, 0): c}
    p = {k: v // cp for k, v in p.items()}
    q = {k: v // cq for k, v in q.items()}
    xi = 2 * min(max(map(abs, p.values())), max(map(abs, q.values()))) + 2
    while True:
        a, b = _at_s(p, xi), _at_s(q, xi)
        # an image that lost its constant term has a factor t the inputs
        # lack: try the next point
        if (0, 0) in a and (0, 0) in b:
            g = _heu(a, b)
            h = {}
            half = xi // 2
            for (et, _), v in g.items():
                es = 0
                while v:
                    d = v % xi
                    if d > half:
                        d -= xi
                    if d:
                        h[(es, et)] = d
                    v = (v - d) // xi
                    es += 1
            ch = igcd(*h.values())
            h = {k: v // ch for k, v in h.items()}
            if _divides(h, p) and _divides(h, q):
                return {k: c * v for k, v in h.items()}
        xi = xi * 73794 // 27011


# ---------------------------------------------------------------------------
# public value types

class LaurentPoly:
    """Immutable bivariate integer Laurent polynomial.

    LaurentPoly(terms) is the one public constructor: `terms` maps
    (e_s, e_t) to int coefficients, zeros dropped.  Instances are
    hashable and must not be mutated after construction.  Exponents and
    coefficients must be integers (operator.index): a float or a string
    raises TypeError rather than being truncated.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        t = {}
        for (es, et), c in terms.items():
            c = operator.index(c)
            if c:
                t[(operator.index(es), operator.index(et))] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _raw(cls, terms):
        # trusted internal constructor, terms already normalized
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    # ring structure ----------------------------------------------------
    def __add__(self, other):
        return LaurentPoly._raw(_add(self.terms, _coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return LaurentPoly._raw(_add(self.terms, _neg(_coerce(other))))

    def __rsub__(self, other):
        return LaurentPoly._raw(_add(_coerce(other), _neg(self.terms)))

    def __neg__(self):
        return LaurentPoly._raw(_neg(self.terms))

    def __mul__(self, other):
        return LaurentPoly._raw(_mul(self.terms, _coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            inv = self.inverse()
            if inv is None:
                raise NotDivisible("negative power of a non-unit")
            return inv ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        """Inverse if this is a unit (+- a monomial), else None."""
        if len(self.terms) != 1:
            return None
        ((es, et), c), = self.terms.items()
        if c not in (1, -1):
            return None
        return LaurentPoly._raw({(-es, -et): c})

    # predicates and views ----------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == _coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return _render(self.terms)

    def __repr__(self):
        return "LaurentPoly(%s)" % _render(self.terms)


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x.terms
    if isinstance(x, int):
        return {(0, 0): x} if x else {}
    raise TypeError("cannot mix LaurentPoly with %r" % type(x).__name__)


ZERO = LaurentPoly({})
ONE = LaurentPoly({(0, 0): 1})
S = LaurentPoly({(1, 0): 1})
T = LaurentPoly({(0, 1): 1})


# module-level operations ---------------------------------------------------

def gcd(p, q):
    """A gcd in the UFD Z[s^{+-1}, t^{+-1}], canonical up to +-s^a t^b, by
    the heuristic GCDHEU, which tries points until one certifies its
    candidate.  gcd(0, 0) = 0."""
    a, b = p.terms, q.terms
    if not a or not b:
        return LaurentPoly._raw(_canon_monomial_sign(a or b))
    return LaurentPoly._raw(_canon_monomial_sign(
        _heu(_canon_monomial_sign(a), _canon_monomial_sign(b))))


def canonicalize(p, mode=MONOMIAL_SIGN):
    """The representative of p under the unit class mode (UNIT_CLASSES)."""
    if mode == MONOMIAL_SIGN:
        return LaurentPoly._raw(_canon_monomial_sign(p.terms))
    if mode == POWERS_OF_ST:
        return LaurentPoly._raw(_canon_st_powers(p.terms))
    if mode == EXACT:
        return p
    raise ValueError("unknown unit class %r" % (mode,))


# ---------------------------------------------------------------------------
# Schur steps on unit pivots (+-s^a t^b) in Markowitz (1957) order, on
# sparse rows {col: raw dict}

def _rating(i, row, where):
    """(fill cost, i, j) of the cheapest unit entry (i, j) of the row, the
    first such in column order, or None when the row holds no unit."""
    fill = len(row) - 1
    best = None
    for j, e in row.items():
        if len(e) == 1 and abs(*e.values()) == 1:
            r = (fill * (len(where[j]) - 1), i, j)
            if best is None or r < best:
                best = r
    return best


def _unit_schur(rows, ncols):
    """Eliminate unit pivots from the r x ncols matrix given by the sparse
    rows, in place.  Each step takes the unit entry (i, j) of least fill cost
    (nnz(row i) - 1) * (nnz(col j) - 1), the first such in row and then
    column order, and sets row k <- row k - (a_kj / u) row i for every other
    row k with an entry in column j; a unit divides exactly, so this is a
    monomial shift and a sign.  Stops when no unit is left.  Returns
    (sign, ds, dt, live rows, live cols), the live rows holding entries in
    live columns only.  A square matrix has determinant sign * s^ds t^dt
    times that of the live rows and columns in their original order.  A row
    that empties stays empty and live, as it has no entry in a later pivot
    column.

    Each live row's best (cost, i, j) is kept between steps.  A step changes
    only the rows it updates and the counts of the pivot row's columns, so
    only the rows in those columns are rated again."""
    live = list(range(len(rows)))
    cols = list(range(ncols))
    where = [set() for _ in cols]          # column -> rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    ratings = {}
    for i, row in enumerate(rows):
        r = _rating(i, row, where)
        if r is not None:
            ratings[i] = r
    sign = 1
    ds = dt = 0
    while ratings:
        _, i, j = min(ratings.values())
        del ratings[i]
        top = rows[i]
        for col in top:
            where[col].discard(i)
        ((a, b), c), = top.pop(j).items()
        # Laplace expansion along column j once the rest of it is cleared
        sign *= -c if (live.index(i) + cols.index(j)) % 2 else c
        ds += a
        dt += b
        live.remove(i)
        cols.remove(j)
        for k in where[j]:
            row = rows[k]
            # -a_kj / u, with 1/u = c s^-a t^-b
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
        stale = set(where[j])
        for col in top:
            stale |= where[col]
        for k in stale:
            r = _rating(k, rows[k], where)
            if r is None:
                ratings.pop(k, None)
            else:
                ratings[k] = r
    return sign, ds, dt, live, cols


# ---------------------------------------------------------------------------
# the residual left by the unit pivots: one fraction-free (Bareiss 1968)
# integer determinant by Kronecker (1882) substitution

def _exact_quo(a, b):
    """The integer a // b, raising NotDivisible unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise NotDivisible("Bareiss division failed")
    return q


def _coeff_bound(l1):
    """Bound H on the coefficients of the determinant of a square matrix whose
    entries have L1 norms l1: the smaller of Hadamard's row and column
    bounds.  A coefficient is at most the determinant's L2 norm, so its
    maximum, on |s| = |t| = 1, and an integer at most sqrt(X) is at most
    isqrt(X)."""
    return min(isqrt(prod(sum(x * x for x in r) for r in l1)),
               isqrt(prod(sum(x * x for x in c) for c in zip(*l1))))


def _kronecker_det(rows, ri, ci):
    """Determinant of the square matrix of the sparse rows ri and columns ci,
    each row nonempty, with entries in the columns ci only.

    Each row is divided by s^rs_i t^rt_i, its least exponents, then each
    nonempty column by s^cs_j t^ct_j, its least exponents after that, and
    the entries, now in Z[s, t], are mapped to Z by the ring homomorphism
    s = 2^B, t = 2^(B*Ds) (Kronecker), so fraction-free Bareiss over Z gives
    the image of the determinant.  Ds exceeds its s-degree (the smaller of
    the row and column sums of the largest scaled s-exponents) and 2^(B-1)
    exceeds its coefficients (|c| <= H, _coeff_bound), so the image reads
    back as balanced base-2^B digits, digit p the coefficient of
    s^(p%Ds) t^(p//Ds), times the scaling."""
    rows = [rows[i] for i in ri]
    low = [{j: _min_exp(e) for j, e in row.items()} for row in rows]
    rs = [min(es for es, _ in lo.values()) for lo in low]
    rt = [min(et for _, et in lo.values()) for lo in low]
    cs, ct = {}, {}
    for lo, x, y in zip(low, rs, rt):
        for j, (es, et) in lo.items():
            cs[j] = min(cs.get(j, es - x), es - x)
            ct[j] = min(ct.get(j, et - y), et - y)
    smax = [{j: max(es for es, _ in e) - x - cs[j] for j, e in row.items()}
            for row, x in zip(rows, rs)]
    big_s = min(sum(max(hi.values()) for hi in smax),
                sum(max(hi.get(j, 0) for hi in smax) for j in cs)) + 1
    l1 = [[sum(map(abs, row[j].values())) if j in row else 0 for j in ci]
          for row in rows]
    b = (2 * _coeff_bound(l1)).bit_length() + 1
    a = [[sum(c << b * (es - x - cs[j] + big_s * (et - y - ct[j]))
              for (es, et), c in row[j].items()) if j in row else 0
          for j in ci] for row, x, y in zip(rows, rs, rt)]
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return {}
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = _exact_quo(pivot * row[j] - lead * top[j], prev)
        prev = pivot
    d = sign * a[-1][-1]
    if not d:
        return {}
    # d has at most n balanced digits c, and d + sum of 2^(B-1) 2^(B p) over
    # p < n has the plain digits c + 2^(B-1): one binary string, read in
    # linear time, where peeling digits off d one by one is quadratic
    n = d.bit_length() // b + 1
    zero = "1" + "0" * (b - 1)
    bits = format(d + int(zero * n, 2), "b").zfill(n * b)
    half = 1 << (b - 1)
    digits = (bits[i - b:i] for i in range(n * b, 0, -b))
    ds = sum(rs) + sum(cs.values())
    dt = sum(rt) + sum(ct.values())
    return {(p % big_s + ds, p // big_s + dt): int(c, 2) - half
            for p, c in enumerate(digits) if c != zero}


def _det(rows):
    """Determinant of the square matrix given by the sparse rows
    {col: raw dict}, which it consumes: Schur steps on unit pivots, then
    one Kronecker-substituted integer Bareiss on the rows and columns left.
    An empty live row gives 0, no rows left give 1 and one row its entry."""
    sign, ds, dt, ri, ci = _unit_schur(rows, len(rows))
    if not all(rows[i] for i in ri):
        return {}
    if len(ri) < 2:
        d = rows[ri[0]][ci[0]] if ri else _ONE
    else:
        d = _kronecker_det(rows, ri, ci)
    return {(es + ds, et + dt): sign * c for (es, et), c in d.items()}


# ---------------------------------------------------------------------------
# matrices

class PolyMatrix:
    """Sparse matrix over LaurentPoly: `entries` maps (i, j) to the nonzero
    entries only.  Ints are taken as constants, a float or a string raises
    TypeError, a key outside the matrix ValueError, and zeros are dropped."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self.rows, self.cols, self.entries = rows, cols, {}
        ri, ci = range(rows), range(cols)
        for (i, j), e in entries.items():
            if i not in ri or j not in ci:
                raise ValueError("entry (%r, %r) outside a %dx%d matrix"
                                 % (i, j, rows, cols))
            if not isinstance(e, LaurentPoly):
                e = LaurentPoly({(0, 0): e})
            if e.terms:
                self.entries[i, j] = e

    def __getitem__(self, rc):
        return self.entries.get(rc, ZERO)

    def submatrix(self, row_idx, col_idx):
        """The rows row_idx and columns col_idx, each of distinct indices."""
        ri = {r: i for i, r in enumerate(row_idx)}
        ci = {c: j for j, c in enumerate(col_idx)}
        if len(ri) != len(row_idx) or len(ci) != len(col_idx):
            raise ValueError("repeated row or column index")
        return PolyMatrix(len(ri), len(ci), {
            (ri[r], ci[c]): e for (r, c), e in self.entries.items()
            if r in ri and c in ci})

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
               (other.rows, other.cols, other.entries)

    def __repr__(self):
        return "PolyMatrix(%d, %d, %r)" % (self.rows, self.cols, self.entries)

    def _sparse_rows(self):
        rows = [{} for _ in range(self.rows)]
        for (i, j), e in self.entries.items():
            rows[i][j] = e.terms
        return rows

    def det(self):
        """Determinant, by unit pivots and then a Kronecker-substituted
        integer Bareiss.  0x0 matrices have determinant 1."""
        if self.rows != self.cols:
            raise NotSquare("det of a %dx%d matrix" % (self.rows, self.cols))
        return LaurentPoly._raw(_det(self._sparse_rows()))

    def unit_reduced(self):
        """(p, A'): the number p of unit pivots det's Schur steps take on
        this matrix, and the residual A' they leave, its zero rows and
        columns dropped.  Row and column steps on a unit pivot u keep each
        ideal I_m of m x m minors, and I_m(u + A') = I_(m-1)(A') for the
        block sum, so I_m of this matrix is I_(m-p)(A')."""
        rows = self._sparse_rows()
        ri = _unit_schur(rows, self.cols)[3]
        pivots = self.rows - len(ri)
        ri = [i for i in ri if rows[i]]
        used = sorted({j for i in ri for j in rows[i]})
        cj = {j: n for n, j in enumerate(used)}
        return pivots, PolyMatrix(len(ri), len(cj), {
            (n, cj[j]): LaurentPoly._raw(e)
            for n, i in enumerate(ri) for j, e in rows[i].items()})

    def minors(self, k):
        """All k x k minors, ordered by (row-set, col-set) lexicographically,
        each taken as its own determinant.  k = 0 yields the single empty
        minor 1."""
        if k < 0 or k > min(self.rows, self.cols):
            raise SizeTooLarge(
                "no %dx%d minors of a %dx%d matrix" % (k, k, self.rows, self.cols))
        col_sets = list(combinations(range(self.cols), k))
        return [self.submatrix(ri, ci).det()
                for ri in combinations(range(self.rows), k)
                for ci in col_sets]
