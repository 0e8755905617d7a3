"""The generalized Alexander polynomial det(M - P) of a virtual link, taken
as the determinant of an n x n crossing matrix N, and the writhe polynomial
of a knot, read off its chord indices.  A nonzero determinant obstructs the
knot from being slice.

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

The writhe polynomial W(t) = -(det(M - P)/(1 - st))(t^-1, t) of a knot is
Kauffman's affine index polynomial (JKTR 22, 2013), as Mellor showed (JKTR
25, 2016): W(t) = sum over chords c of eps_c (t^-index(c) - 1), index(c)
being the sum of eps * (+1 at an O slot, -1 at a U slot) over the slots
strictly after O_c and before U_c.  It takes one pass along the circle and
no determinant.
"""

from . import gauss
# canonicalize stays importable here: bench/tracing.py patches it by name
from .laurent import LaurentPoly, PolyMatrix, canonicalize, ONE, ZERO


class NotAKnot(ValueError):
    """Operation defined only for one-component diagrams."""


def delta0(d):
    """Generalized Alexander polynomial of the diagram, det(M - P) by way
    of the crossing matrix N (see the module docstring), built in one walk
    back along each circle from an O slot.  A chordless diagram gets the
    zero polynomial directly: det of the empty matrix is 1, but the unknot
    is classical and the invariant vanishes on classical links."""
    n = len(d.signs)
    if n == 0:
        return ZERO
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
                    return ZERO
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
    return LaurentPoly({(shift, 0): 1}) * unit * det


def writhe_polynomial(d):
    """The writhe polynomial of the knot d, a one-variable concordance
    invariant, from its chord indices (see the module docstring).  With
    sigma the running sum of +eps at an O slot and -eps at a U slot along
    the circle, index(c) is sigma just before U_c less sigma just after
    O_c; across the basepoint too, as sigma returns to 0."""
    if len(d.components) != 1:
        raise NotAKnot("the writhe polynomial is defined for knots only")
    sigma, exponent = 0, [0] * len(d.signs)
    for c, role in d.components[0]:
        if role == gauss.OVER:
            sigma += d.signs[c]
            exponent[c] += sigma
        else:
            exponent[c] -= sigma
            sigma -= d.signs[c]
    terms = {(0, 0): -sum(d.signs)}
    for e, k in zip(d.signs, exponent):
        terms[0, k] = terms.get((0, k), 0) + e
    return LaurentPoly(terms)
