"""Exact arithmetic in Z[s^{+-1}, t^{+-1}] plus the small amount of linear
algebra (fraction-free determinants, minors, gcd) the invariant engines need.

A polynomial is stored as a dict mapping exponent pairs (e_s, e_t) to nonzero
integer coefficients; the zero polynomial is the empty dict.  All arithmetic
is exact integer arithmetic, no floats anywhere.  The raw-dict helpers at the
top are the hot path; LaurentPoly is a thin immutable wrapper around them.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd as igcd


class NotDivisible(ArithmeticError):
    """Exact division requested but the quotient does not exist."""


class NotSquare(ValueError):
    """Determinant of a non-square matrix."""


class SizeTooLarge(ValueError):
    """Minor size exceeds the matrix dimensions."""


class ZeroSubstitution(ZeroDivisionError):
    """Evaluation at s=0 or t=0, which Laurent polynomials do not permit."""


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

    def shifted(self, ds, dt):
        return LaurentPoly._raw(_shift(self.terms, ds, dt))

    # predicates and views ----------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def min_exponents(self):
        if not self.terms:
            return (0, 0)
        return _min_exp(self.terms)

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

    # division, gcd support, evaluation ----------------------------------
    def exact_div(self, other):
        q = _div_exact(self.terms, _coerce_nonzero(other))
        if q is None:
            raise NotDivisible("%s is not divisible by %s" % (self, other))
        return LaurentPoly._raw(q)

    def divides(self, other):
        """True when self divides other exactly."""
        if not self.terms:
            return not _coerce(other)
        return _div_exact(_coerce(other), self.terms) is not None

    def eval_at(self, s_val, t_val):
        s_val = Fraction(s_val)
        t_val = Fraction(t_val)
        if s_val == 0 or t_val == 0:
            raise ZeroSubstitution("cannot evaluate at s=0 or t=0")
        tot = Fraction(0)
        for (es, et), c in self.terms.items():
            tot += c * s_val ** es * t_val ** et
        return tot

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


# module-level operations, mirroring the engine interfaces ------------------

def add(p, q):
    return p + q


def mul(p, q):
    return p * q


def exact_div(p, q):
    return p.exact_div(q)


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


def eval_at(p, s_val, t_val):
    return p.eval_at(s_val, t_val)


def substitute(p, s_image, t_image):
    return p.substitute(s_image, t_image)


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


def _step(m, k, cols, prev):
    """Bareiss step k in place: pivot on column cols[k], swapping a lower row
    up if m[k] has a zero there, then clear that column below row k over the
    columns cols[k+1:]; prev is the previous pivot.  Returns -1 after a swap,
    0 when the column is zero from row k down, else 1."""
    ck = cols[k]
    sign = 1
    if not m[k][ck]:
        piv = next((i for i in range(k + 1, len(m)) if m[i][ck]), None)
        if piv is None:
            return 0
        m[k], m[piv] = m[piv], m[k]
        sign = -1
    top = m[k]
    pivot = top[ck]
    rest = cols[k + 1:]
    for i in range(k + 1, len(m)):
        row = m[i]
        lead = row[ck]
        for cj in rest:
            q = _div_exact(_sub(_mul(pivot, row[cj]), _mul(lead, top[cj])),
                           prev)
            if q is None:
                raise NotDivisible("Bareiss division failed")
            row[cj] = q
        row[ck] = {}
    return sign


def _eliminate(m, cols, k, prev, sign):
    """Determinant of the square block of rows m and columns cols whose first
    k Bareiss steps are done, prev being the last pivot and sign the parity
    of the row swaps so far.  Finishes the elimination in place."""
    for k in range(k, len(cols) - 1):
        s = _step(m, k, cols, prev)
        if not s:
            return {}
        sign *= s
        prev = m[k][cols[k]]
    if not cols:
        return dict(_ONE)
    d = m[-1][cols[-1]]
    return _neg(d) if sign < 0 else d


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

    def transpose(self):
        out = [self.entries[r * self.cols + c]
               for c in range(self.cols) for r in range(self.rows)]
        return PolyMatrix(self.cols, self.rows, out)

    def with_rows_swapped(self, i, j):
        rows = [self.row(r) for r in range(self.rows)]
        rows[i], rows[j] = rows[j], rows[i]
        return PolyMatrix([r for r in rows])

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
        """Fraction-free Bareiss determinant.  Rows are pre-scaled by
        monomials to clear negative exponents; the scaling is divided back
        out of the result.  0x0 matrices have determinant 1."""
        if self.rows != self.cols:
            raise NotSquare("det of a %dx%d matrix" % (self.rows, self.cols))
        m = [[e.terms for e in self.row(r)] for r in range(self.rows)]
        shift = _prescale(m)
        if shift is None:
            return ZERO
        d = _eliminate(m, list(range(self.rows)), 0, _ONE, 1)
        return LaurentPoly._raw(_shift(d, *shift))

    def det_cofactor(self):
        """Cofactor-expansion determinant, the independent oracle for det().
        Exponential; refuses anything larger than 8x8."""
        if self.rows != self.cols:
            raise NotSquare("det of a %dx%d matrix" % (self.rows, self.cols))
        if self.rows > 8:
            raise SizeTooLarge("cofactor oracle capped at 8x8")
        raw = [[e.terms for e in self.row(r)] for r in range(self.rows)]
        memo = {}

        def minor(rows_left, cols_left):
            if not rows_left:
                return {(0, 0): 1}
            key = (rows_left, cols_left)
            if key in memo:
                return memo[key]
            r = rows_left[0]
            rest = rows_left[1:]
            acc = {}
            for pos, c in enumerate(cols_left):
                e = raw[r][c]
                if not e:
                    continue
                sub = minor(rest, cols_left[:pos] + cols_left[pos + 1:])
                term = _mul(e, sub)
                acc = _add(acc, term) if pos % 2 == 0 else _sub(acc, term)
            memo[key] = acc
            return acc

        n = self.rows
        return LaurentPoly._raw(minor(tuple(range(n)), tuple(range(n))))

    def minors(self, k):
        """All k x k minors, ordered by (row-set, col-set) lexicographically.
        k = 0 yields the single empty minor 1."""
        if k < 0 or k > min(self.rows, self.cols):
            raise SizeTooLarge(
                "no %dx%d minors of a %dx%d matrix" % (k, k, self.rows, self.cols))
        if k == 0:
            return [ONE]
        if k == self.rows and self.cols == self.rows + 1:
            # shared-prefix fast path; lex order over column sets means the
            # dropped column runs from last to first
            return self._dets_dropping_one_column()[::-1]
        out = []
        for ri in combinations(range(self.rows), k):
            for ci in combinations(range(self.cols), k):
                out.append(self.submatrix(ri, ci).det())
        return out

    def _dets_dropping_one_column(self):
        """For an r x (r+1) matrix: the r+1 maximal minors, the j-th being
        the determinant with column j removed.  Minor j shares its first j
        elimination steps with every later minor, so they are done once."""
        r = self.rows
        m = [[e.terms for e in self.row(i)] for i in range(r)]
        shift = _prescale(m)  # every minor uses every row
        if shift is None:
            return [ZERO] * (r + 1)
        cols = list(range(r + 1))
        out = []
        prev, sign = _ONE, 1
        for c in range(r):
            d = _eliminate([row[:] for row in m], cols[:c] + cols[c + 1:],
                           c, prev, sign)
            out.append(LaurentPoly._raw(_shift(d, *shift)))
            s = _step(m, c, cols, prev)
            if not s:
                # every later minor keeps column c, zero from row c down
                return out + [ZERO] * (r - c)
            sign *= s
            prev = m[c][c]
        d = _eliminate(m, cols[:r], r, prev, sign)
        out.append(LaurentPoly._raw(_shift(d, *shift)))
        return out


def det(m):
    return m.det()


def minors(m, k):
    return m.minors(k)
