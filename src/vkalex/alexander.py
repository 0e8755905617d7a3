"""The generalized Alexander polynomial det(M - P) of a virtual link, taken
as the determinant of an n x n crossing matrix N, and the writhe polynomial
derived from it.  A nonzero determinant obstructs the knot from being slice.

M - P lives on the 2n short arcs, one ending at each slot.  M is block
diagonal, the block of chord k, of sign eps_k, on the arcs entering its O
and U slots in that order being

    [[t^-eps_k, 1 - (st)^-eps_k],
     [0,        s^-eps_k       ]],

and P is the permutation matrix of the successor sigma, which takes an arc
to the one that starts where it ends.  This is the over-first rule; the
mirror rule, which gives the arc entering U the first row, fails the
worked 5.344 polynomial.  det(M - P) is an invariant up to powers of st;
canonical comparison also quotients by the sign, i.e. by +-s^a t^b.

With e_a the unit row of arc a, the row of the arc a entering U_k is
s^-eps_k e_a - e_sigma(a).  A Schur step on its unit diagonal rewrites e_a
as s^eps_k e_sigma(a), with no fill and no sign, as it removes the same row
and column.  Along a circle these steps take a to the arc entering the
next O slot.  A circle of U slots only closes on itself and splits off its
block's determinant s^-(sum of its eps) - 1; a circle with no slots has no
arcs.  Row and column k of N stand for the arc entering O_k.  With w the
sum of eps over the U slots strictly between a slot and the next O slot
(O_k itself on a circle with one O slot), entries in one column add:

    t^-eps_k                            at column k,
    -s^w                                at the next O slot after O_k,
    (1 - (st)^-eps_k) s^(eps_k + w)     at the next O slot after U_k,

the last left out when U_k is on a circle of U slots only.  Then
det(M - P) = s^x * prod_C (s^-(sum of eps over C) - 1) * det(N), with x
minus the sum of eps over the U slots of the circles with an O slot and C
running over the circles of U slots only.  A circle of U slots only whose
eps sum to 0 has the factor s^0 - 1 = 0, so delta0 returns zero as soon
as it meets one, without building N.
"""

from . import gauss
from .laurent import (
    LaurentPoly, NotDivisible, PolyMatrix, canonicalize, MONOMIAL_SIGN, ONE,
    ZERO,
)


class NotAKnot(ValueError):
    """Operation defined only for one-component diagrams."""


class GeneralizedAlexander:
    """det(M - P) with its canonical form and vanishing verdict."""

    def __init__(self, raw):
        self.raw = raw
        self.is_zero = raw.is_zero()

    @property
    def canonical(self):
        """The monomial-sign canonical form, computed when read: the CLI
        prints raw under its own unit class, and the writhe needs neither."""
        return canonicalize(self.raw, MONOMIAL_SIGN)

    def __repr__(self):
        return "GeneralizedAlexander(%s)" % self.canonical


def delta0(d):
    """Generalized Alexander polynomial of the diagram, det(M - P) by way
    of the crossing matrix N (see the module docstring), built in one walk
    back along each circle from an O slot.  A chordless diagram gets the
    zero polynomial directly: det of the empty matrix is 1, but the unknot
    is classical and the invariant vanishes on classical links."""
    n = len(d.signs)
    if n == 0:
        return GeneralizedAlexander(ZERO)
    entries = {}

    def put(k, m, key, c):
        e = entries.setdefault((k, m), {})
        e[key] = e.get(key, 0) + c

    shift, unit = 0, ONE
    for comp in d.components:
        start = next((p for p, (_, role) in enumerate(comp)
                      if role == gauss.OVER), None)
        if start is None:
            if comp:
                total = sum(d.signs[c] for c, _ in comp)
                if total == 0:
                    # its factor s^0 - 1 is zero, whatever det(N) is
                    return GeneralizedAlexander(ZERO)
                unit *= LaurentPoly({(-total, 0): 1}) - ONE
            continue
        slots = comp[start:] + comp[:start]
        # the next O slot's chord and w, seen from the slot being visited
        nxt, w = slots[0][0], 0
        for c, role in reversed(slots):
            e = d.signs[c]
            if role == gauss.OVER:
                put(c, c, (0, -e), 1)
                put(c, nxt, (w, 0), -1)
                nxt, w = c, 0
            else:
                put(c, nxt, (e + w, 0), 1)
                put(c, nxt, (w, -e), -1)
                shift -= e
                w += e
    det = PolyMatrix(n, n, {km: LaurentPoly(e)
                            for km, e in entries.items()}).det()
    return GeneralizedAlexander(LaurentPoly({(shift, 0): 1}) * unit * det)


def writhe_polynomial(d):
    """-(det(M-P)/(1-st)) at (s, t) = (t^-1, t); a one-variable concordance
    invariant of the knot."""
    return writhe_from_delta0(delta0(d), d)


def writhe_from_delta0(g, d):
    """The writhe polynomial of the knot d from its GeneralizedAlexander g.
    With u = st, det(M-P) = sum c s^a t^b is F(u, t) = sum c u^a t^(b-a).
    1 - st divides it exactly when F(1, t) = 0, which holds for every knot,
    and then the writhe polynomial is dF/du at u = 1, sum a c t^(b-a).  A
    factor (st)^k adds k F(1, t) = 0, so the result needs no unit
    normalization.  A nonzero F(1, t) is an implementation bug, not an
    input problem, so its NotDivisible is allowed to escape."""
    if len(d.components) != 1:
        raise NotAKnot("divisibility statement applies to knots")
    at_one, slope = {}, {}
    for (a, b), c in g.raw.terms.items():
        at_one[b - a] = at_one.get(b - a, 0) + c
        slope[b - a] = slope.get(b - a, 0) + a * c
    if any(at_one.values()):
        raise NotDivisible("1 - st does not divide det(M - P)")
    return LaurentPoly({(0, e): c for e, c in slope.items()})
