"""The generalized Alexander polynomial of a virtual link, computed as the
determinant det(M - P) over the short-arc structure of its Gauss diagram,
plus the quantities derived from it (divisibility by 1-st and the writhe
polynomial).  A nonzero value obstructs the knot from being slice.

M is block diagonal with one 2x2 block per crossing:

    positive:  [[t^-1, 1-(st)^-1],      negative:  [[s,    0],
                [0,    s^-1      ]]                 [1-st, t]]

P is the permutation matrix of the short-arc successor map.  det(M - P) is
an invariant of the link up to multiplication by powers of st; canonical
comparison additionally quotients by the sign, i.e. by +-s^a t^b.
"""

from . import gauss
from .laurent import PolyMatrix, canonicalize, MONOMIAL_SIGN, ONE, S, T, ZERO


class NotAKnot(ValueError):
    """Operation defined only for one-component diagrams."""


# Which incoming short arc at crossing k takes index 2k: the one arriving at
# the over passage ("over-first") or at the under passage ("under-first"),
# with the roles swapping at negative crossings either way.  Exactly one
# choice reproduces the worked 4.12 polynomial; the calibration test in
# tests/test_alexander.py documents the survivor.  Flip only to recalibrate.
ARC_CONVENTION = "over-first"

_ST = S * T
_ONE_MINUS_ST = ONE - _ST


_BLOCKS = {
    1: PolyMatrix([[T.inverse(), ONE - _ST.inverse()], [ZERO, S.inverse()]]),
    -1: PolyMatrix([[S, ZERO], [ONE - _ST, T]]),
}


class GeneralizedAlexander:
    """det(M - P) with its canonical form and vanishing verdict."""

    def __init__(self, raw):
        self.raw = raw
        self.canonical = canonicalize(raw, MONOMIAL_SIGN)
        self.is_zero = raw.is_zero()

    def __repr__(self):
        return "GeneralizedAlexander(%s)" % self.canonical


def build_m_matrix(d):
    """Block-diagonal 2n x 2n matrix with the block of sign_k (see the module
    docstring) at rows and columns (2k, 2k+1)."""
    n = len(d.signs)
    if n == 0:
        raise gauss.NoCrossings("M needs at least one crossing")
    entries = [ZERO] * (2 * n) * (2 * n)
    for k, sign in enumerate(d.signs):
        blk = _BLOCKS[sign]
        for r in range(2):
            for c in range(2):
                entries[(2 * k + r) * 2 * n + (2 * k + c)] = blk[r, c]
    return PolyMatrix(2 * n, 2 * n, entries)


def delta0(d):
    """Generalized Alexander polynomial of the diagram.  A chordless diagram
    gets the zero polynomial directly: det of the empty matrix is 1 by
    convention, but the unknot is classical and the invariant vanishes on
    classical links."""
    n = len(d.signs)
    if n == 0:
        return GeneralizedAlexander(ZERO)
    diff = build_m_matrix(d)
    # P is nonzero only at (i, successor(i)), so only there is a 1 taken off
    for i, j in enumerate(gauss.short_arcs(d, ARC_CONVENTION).successor):
        k = i * 2 * n + j
        diff.entries[k] = diff.entries[k] - ONE
    return GeneralizedAlexander(diff.det())


def divisibility_check(g, d):
    """(1 - st) divides det(M - P) for every knot; return the quotient.
    A failure is an implementation bug, not an input problem, so the
    NotDivisible from the division is allowed to escape."""
    if len(d.components) != 1:
        raise NotAKnot("divisibility statement applies to knots")
    if g.raw.is_zero():
        return ZERO
    return g.raw.exact_div(_ONE_MINUS_ST)


def writhe_polynomial(d):
    """-(det(M-P)/(1-st)) at (s, t) = (t^-1, t); a one-variable concordance
    invariant of the knot.  Powers of st die under the substitution, so the
    result needs no unit normalization."""
    return writhe_from_delta0(delta0(d), d)


def writhe_from_delta0(g, d):
    """The writhe polynomial of the knot d from its GeneralizedAlexander g."""
    quotient = divisibility_check(g, d)
    return (-quotient).substitute(T.inverse(), T)
