"""Exact arithmetic in Z[s^{+-1}, t^{+-1}] plus the small amount of linear
algebra (fraction-free determinants, minors, gcd) the invariant engines need.

A polynomial is stored as a dict mapping exponent pairs (e_s, e_t) to nonzero
integer coefficients; the zero polynomial is the empty dict.  All arithmetic
is exact integer arithmetic, no floats anywhere.  The raw-dict helpers at the
top are the hot path; LaurentPoly is a thin immutable wrapper around them.
"""

from itertools import combinations
from math import gcd as igcd


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


def _sub(a, b):
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, 0) - c
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


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


def _div_exact(a, b):
    """Exact quotient a/b in the Laurent ring, or None if it does not exist.

    Both arguments are shifted to honest polynomials, divided by lex-leading
    long division, and the monomial shift is applied back at the end.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    ams, amt = _min_exp(a)
    bms, bmt = _min_exp(b)
    aa = _shift(a, -ams, -amt)
    bb = _shift(b, -bms, -bmt)
    lb = max(bb)
    lcb = bb[lb]
    rem = dict(aa)
    quo = {}
    while rem:
        la = max(rem)
        ca = rem[la]
        ds, dt = la[0] - lb[0], la[1] - lb[1]
        if ds < 0 or dt < 0 or ca % lcb != 0:
            return None
        qc = ca // lcb
        quo[(ds, dt)] = qc
        rem = _sub(rem, _mul({(ds, dt): qc}, bb))
    return _shift(quo, ams - bms, amt - bmt)


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
# gcd: a primitive pseudo-remainder sequence in t over Z[s], run on the same
# (e_s, e_t) dicts as the rest of the ring.  The content of a polynomial (the
# gcd of its t-coefficients) is a gcd of t-free polynomials, which _gcd takes
# by swapping s and t and recursing; two integers end the recursion.
# Desk-scale degrees, no modular tricks needed.

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
        g = _gcd(g, coeff)
        if g == _ONE:
            return g, a
    q = _div_exact(a, g)
    if q is None:
        raise NotDivisible("content does not divide its polynomial")
    return g, q


def _prem(a, b):
    """Pseudo-remainder of the nonzero a by b as polynomials in t."""
    db, lb = _t_lead(b)
    da, la = _t_lead(a)
    while da >= db:
        a = _sub(_mul(lb, a), _shift(_mul(la, b), 0, da - db))
        if not a:
            break
        d, la = _t_lead(a)
        if d >= da:
            raise NotDivisible("pseudo-remainder failed to drop degree")
        da = d
    return a


def _gcd(p, q):
    """gcd in Z[s^{+-1}, t^{+-1}], canonicalized up to +-s^a t^b."""
    if not p or not q:
        return _canon_monomial_sign(p or q)
    p = _canon_monomial_sign(p)
    q = _canon_monomial_sign(q)
    if not any(et for _, et in p) and not any(et for _, et in q):
        if len(p) == 1 and len(q) == 1:
            return {(0, 0): igcd(p[(0, 0)], q[(0, 0)])}
        return _canon_monomial_sign(_swap(_gcd(_swap(p), _swap(q))))
    cp, f = _primitive(p)
    cq, g = _primitive(q)
    if _t_lead(f)[0] < _t_lead(g)[0]:
        f, g = g, f
    while g:
        r = _prem(f, g)
        f, g = g, (_primitive(r)[1] if r else r)
    return _canon_monomial_sign(_mul(f, _gcd(cp, cq)))


# ---------------------------------------------------------------------------
# public value types

class LaurentPoly:
    """Immutable bivariate integer Laurent polynomial.

    `terms` maps (e_s, e_t) to nonzero int coefficients.  Instances are
    hashable and must not be mutated after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                if c:
                    es, et = k
                    t[(int(es), int(et))] = int(c)
        object.__setattr__(self, "terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # constructors -----------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def mono(cls, c, es, et):
        return cls({(es, et): c})

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
        return LaurentPoly._raw(_sub(self.terms, _coerce(other)))

    def __rsub__(self, other):
        return LaurentPoly._raw(_sub(_coerce(other), self.terms))

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
        return LaurentPoly.mono(c, -es, -et)

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

    # division and substitution ------------------------------------------
    def exact_div(self, other):
        q = _div_exact(self.terms, _coerce_nonzero(other))
        if q is None:
            raise NotDivisible("%s is not divisible by %s" % (self, other))
        return LaurentPoly._raw(q)

    def substitute(self, s_image, t_image):
        """Map s -> s_image, t -> t_image (both LaurentPoly).  Negative
        exponents require the corresponding image to be a unit."""
        out = {}
        cache_s = {}
        cache_t = {}
        for (es, et), c in self.terms.items():
            ps = _pow_image(s_image, es, cache_s)
            pt = _pow_image(t_image, et, cache_t)
            out = _add(out, _mul({(0, 0): c}, _mul(ps.terms, pt.terms)))
        return LaurentPoly._raw(out)


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x.terms
    if isinstance(x, int):
        return {(0, 0): x} if x else {}
    raise TypeError("cannot mix LaurentPoly with %r" % type(x).__name__)


def _coerce_nonzero(x):
    t = _coerce(x)
    if not t:
        raise ZeroDivisionError("division by the zero polynomial")
    return t


def _pow_image(image, e, cache):
    if e in cache:
        return cache[e]
    if e >= 0:
        r = image ** e
    else:
        inv = image.inverse()
        if inv is None:
            raise NotDivisible("substitution needs a unit image for "
                               "negative exponents, got %s" % image)
        r = inv ** (-e)
    cache[e] = r
    return r


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
S = LaurentPoly.mono(1, 1, 0)
T = LaurentPoly.mono(1, 0, 1)


class CanonicalForm:
    """A polynomial together with the unit class it was normalized under."""

    __slots__ = ("poly", "unit_class")

    def __init__(self, poly, unit_class):
        if unit_class not in UNIT_CLASSES:
            raise ValueError("unknown unit class %r" % (unit_class,))
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "unit_class", unit_class)

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalForm is immutable")

    def __eq__(self, other):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return (self.unit_class == other.unit_class
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.poly, self.unit_class))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return "CanonicalForm(%s, %r)" % (self.poly, self.unit_class)


# module-level operations ---------------------------------------------------

def gcd(p, q):
    """A gcd in the UFD Z[s^{+-1}, t^{+-1}], canonical up to +-s^a t^b.
    gcd(0, 0) = 0."""
    return LaurentPoly._raw(_gcd(p.terms, q.terms))


def canonicalize(p, mode=MONOMIAL_SIGN):
    if mode == MONOMIAL_SIGN:
        return CanonicalForm(LaurentPoly._raw(_canon_monomial_sign(p.terms)), mode)
    if mode == POWERS_OF_ST:
        return CanonicalForm(LaurentPoly._raw(_canon_st_powers(p.terms)), mode)
    if mode == EXACT:
        return CanonicalForm(p, mode)
    raise ValueError("unknown unit class %r" % (mode,))


# ---------------------------------------------------------------------------
# Schur steps on unit pivots (+-s^a t^b) in Markowitz (1957) order, on
# sparse rows {col: raw dict}

def _unit_schur(rows):
    """Eliminate unit pivots from the square matrix given by the sparse rows,
    in place.  Each step takes the unit entry (i, j) of least fill cost
    (nnz(row i) - 1) * (nnz(col j) - 1), the first such in row and then
    column order, and sets row k <- row k - (a_kj / u) row i for every other
    row k with an entry in column j; a unit divides exactly, so this is a
    monomial shift and a sign.  Stops when no unit is left.  Returns
    (sign, ds, dt, live rows, live cols): the determinant is
    sign * s^ds t^dt times that of the live rows and columns in their
    original order.  Returns None when a row empties, the determinant being
    0 then."""
    live = list(range(len(rows)))
    cols = list(range(len(rows)))
    where = [set() for _ in cols]          # column -> rows with an entry there
    for i, row in enumerate(rows):
        if not row:
            return None
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
        # Laplace expansion along column j once the rest of it is cleared
        sign *= -c if (live.index(i) + cols.index(j)) % 2 else c
        ds += a
        dt += b
        live.remove(i)
        cols.remove(j)
        for k in where[j]:
            row = rows[k]
            # a_kj / u, with 1/u = c s^-a t^-b
            f = {(es - a, et - b): c * v for (es, et), v in row.pop(j).items()}
            for col, v in top.items():
                e = _sub(row.get(col, {}), _mul(f, v))
                if e:
                    if col not in row:
                        where[col].add(k)
                    row[col] = e
                elif col in row:
                    del row[col]
                    where[col].discard(k)
            if not row:
                return None


# ---------------------------------------------------------------------------
# fraction-free (Bareiss 1968) elimination on rows of raw dicts

def _prescale(rows):
    """Multiply each row, in place, by the monomial that clears its negative
    exponents.  Returns the (ds, dt) to shift a determinant back by, or None
    when some row is zero."""
    shift_s = shift_t = 0
    for i, row in enumerate(rows):
        entries = [e for e in row if e]
        if not entries:
            return None
        ds = min(0, min(es for e in entries for es, _ in e))
        dt = min(0, min(et for e in entries for _, et in e))
        if ds or dt:
            rows[i] = [_shift(e, -ds, -dt) if e else e for e in row]
            shift_s += ds
            shift_t += dt
    return shift_s, shift_t


def _step(m, k, prev):
    """Bareiss step k in place: pivot on m[k][k], swapping a lower row up if
    it is zero, then clear column k below row k over every later column;
    prev is the previous pivot.  Returns -1 after a swap, 0 when the column
    is zero from row k down, else 1."""
    sign = 1
    if not m[k][k]:
        piv = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        m[k], m[piv] = m[piv], m[k]
        sign = -1
    top = m[k]
    pivot = top[k]
    rest = range(k + 1, len(top))
    for i in range(k + 1, len(m)):
        row = m[i]
        lead = row[k]
        for j in rest:
            q = _div_exact(_sub(_mul(pivot, row[j]), _mul(lead, top[j])), prev)
            if q is None:
                raise NotDivisible("Bareiss division failed")
            row[j] = q
        row[k] = {}
    return sign


def _det(rows):
    """Determinant of the square matrix given by the sparse rows
    {col: raw dict}, which it consumes: Schur steps on unit pivots, then
    fraction-free Bareiss on the rows and columns left.  Those are
    pre-scaled by monomials to clear negative exponents, and the scaling is
    divided back out of the result.  No rows give 1."""
    left = _unit_schur(rows)
    if left is None:
        return {}
    sign, ds, dt, ri, ci = left
    m = [[rows[i].get(j, {}) for j in ci] for i in ri]
    shift = _prescale(m)
    if shift is None:
        return {}
    prev = _ONE
    for k in range(len(m) - 1):
        s = _step(m, k, prev)
        if not s:
            return {}
        sign *= s
        prev = m[k][k]
    d = m[-1][-1] if m else _ONE
    ds += shift[0]
    dt += shift[1]
    return {(es + ds, et + dt): sign * c for (es, et), c in d.items()}


# ---------------------------------------------------------------------------
# matrices

class PolyMatrix:
    """Dense matrix over LaurentPoly, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols=None, entries=None):
        if cols is None and entries is None:
            # construct from nested lists
            grid = [list(r) for r in rows]
            nr = len(grid)
            nc = len(grid[0]) if grid else 0
            if any(len(r) != nc for r in grid):
                raise ValueError("ragged rows")
            flat = []
            for r in grid:
                for e in r:
                    flat.append(e if isinstance(e, LaurentPoly)
                                else LaurentPoly.const(e))
            self.rows, self.cols, self.entries = nr, nc, flat
        else:
            if len(entries) != rows * cols:
                raise ValueError("entries length must be rows*cols")
            self.rows, self.cols, self.entries = rows, cols, list(entries)

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def submatrix(self, row_idx, col_idx):
        ent = [self.entries[r * self.cols + c]
               for r in row_idx for c in col_idx]
        return PolyMatrix(len(row_idx), len(col_idx), ent)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
               (other.rows, other.cols, other.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in self.row(r)) for r in range(self.rows))
        return "PolyMatrix[%s]" % body

    def det(self):
        """Determinant, by unit pivots and then fraction-free Bareiss.  0x0
        matrices have determinant 1."""
        if self.rows != self.cols:
            raise NotSquare("det of a %dx%d matrix" % (self.rows, self.cols))
        rows = [{j: e.terms for j, e in enumerate(self.row(i)) if e.terms}
                for i in range(self.rows)]
        return LaurentPoly._raw(_det(rows))

    def minors(self, k):
        """All k x k minors, ordered by (row-set, col-set) lexicographically,
        each taken as its own determinant.  k = 0 yields the single empty
        minor 1."""
        if k < 0 or k > min(self.rows, self.cols):
            raise SizeTooLarge(
                "no %dx%d minors of a %dx%d matrix" % (k, k, self.rows, self.cols))
        col_sets = list(combinations(range(self.cols), k))
        out = []
        for ri in combinations(range(self.rows), k):
            m = [[e.terms for e in self.row(i)] for i in ri]
            for ci in col_sets:
                rows = [{p: row[j] for p, j in enumerate(ci) if row[j]}
                        for row in m]
                out.append(LaurentPoly._raw(_det(rows)))
        return out
