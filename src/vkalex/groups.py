"""Link group presentations and their Alexander invariants.

The Wirtinger presentation has one generator per arc, where arcs are the
pieces of a component between consecutive undercrossings, and one relator
per undercrossing: passing under chord c with sign e conjugates the incoming
arc a into the outgoing arc d by the arc b carrying the over strand,

    r = b^e a b^-e d^-1.

A component with no undercrossing contributes a single free generator.
Words are plain letters (generator id, +-1): relators are tuples of them
and longitudes lists, and word_text prints one as a1 a3^-1 a2.  A
presentation is its dict of generator tags, in generator order, and its
relators.

A generator's tag is its component's index, or OMEGA on the circle that
wirtinger is told is omega: a position zh reports, not a mark the diagram
carries.  The one abelianization the program uses sends every generator
tagged OMEGA to s and every other generator to t.  Fox differentiation of
the relators followed by this map yields the Alexander matrix, whose
ideals of minors are the elementary ideals.  Each ideal comes back as its
(gcd, generator count) pair.

When A is r x (r + 1) and its one omega column goes to s, the gcd of E_1
takes one determinant.  Fox's fundamental formula, the sum over generators
of (dr/dx_j)(x_j - 1) = r - 1, maps to sum_j A_j (phi(x_j) - 1) = 0 over the
columns A_j, so a maximal minor A^j (column j deleted) satisfies
A^j (phi(x_k) - 1) = +-A^k (phi(x_j) - 1).  For the omega column and any
other column k this reads A^omega (t - 1) = +-A^k (s - 1); 1 - s and 1 - t
are coprime, so 1 - s divides A^omega, every minor is +-(phi(x_j) - 1) D
with D = A^omega / (1 - s), and D generates gcd(E_1) (Crowell and Fox,
Introduction to Knot Theory, 1963).  Every other ideal, and E_1 of any
other matrix, is taken from one reduction of the matrix by unit pivots
u = +-s^a t^b: row and column operations keep every ideal of minors, and
the block sum u + A' has I_m(u + A') = I_(m-1)(A').
"""

import operator
from collections import Counter
from itertools import combinations
from math import comb

from . import gauss
from .zh import zh as _zh
from .laurent import (LaurentPoly, NotDivisible, PolyMatrix, gcd, ONE, ZERO,
                      _add_term, _canon_monomial_sign, _quo)

OMEGA = "omega"


def word_text(letters):
    """A word's letters as text, a1 a3^-1 a2, and 1 for the empty word."""
    return " ".join("a%d" % (g + 1) if e == 1 else "a%d^-1" % (g + 1)
                    for (g, e) in letters) or "1"


def _free_reduced(letters):
    """The letters, as a list, with every adjacent g^e g^-e cancelled."""
    out = []
    for (g, e) in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return out


def _cyclically_reduced(letters):
    """Free reduction, then cancelling first/last pairs stripped; what is
    left of a freely reduced word stays freely reduced."""
    w = _free_reduced(letters)
    i, j = 0, len(w)
    while j - i >= 2 and w[i][0] == w[j - 1][0] and w[i][1] == -w[j - 1][1]:
        i += 1
        j -= 1
    return w[i:j]


def _inverse(letters):
    return [(g, -e) for (g, e) in reversed(letters)]


class GroupPresentation:
    """tags: the component tag of each generator id, in generator order,
    either a component index or OMEGA; relators:
    words, each a sequence of letters (generator id, +-1)."""

    def __init__(self, tags, relators):
        self.tags = dict(tags)
        self.relators = [tuple(w) for w in relators]
        for w in self.relators:
            for (g, e) in w:
                g, e = operator.index(g), operator.index(e)
                if e not in (1, -1):
                    raise ValueError("letter exponents must be +-1")
                if g not in self.tags:
                    raise ValueError("relator uses undeclared generator %d" % g)

    @property
    def generators(self):
        return list(self.tags)

    def __str__(self):
        gens = " ".join("a%d" % (g + 1) for g in self.tags)
        rels = " ; ".join(word_text(w) for w in self.relators)
        return "gens: %s ; rels: %s" % (gens, rels) if rels else \
               "gens: %s ; rels:" % gens

    def deficiency(self):
        return len(self.tags) - len(self.relators)


# ---------------------------------------------------------------------------
# presentations from diagrams

def _arcs(d, omega=None):
    """One pass over the slots.  Returns at[ci][pos], the generator of the
    arc covering slot pos of component ci; over[c], the generator of the arc
    carrying chord c's over strand; and the component tag of each generator,
    OMEGA on component omega.
    Arc j of a component runs up to and including its j-th under slot, the
    slots after its last under slot belong to arc 0, and a component without
    under slots is one free arc."""
    at = []
    over = {}
    tags = {}
    for ci, comp in enumerate(d.components):
        first = len(tags)
        nu = sum(1 for _, role in comp if role == gauss.UNDER)
        tag = OMEGA if ci == omega else ci
        for g in range(first, first + max(1, nu)):
            tags[g] = tag
        row = []
        j = 0
        for c, role in comp:
            g = first + (j if j < nu else 0)
            row.append(g)
            if role == gauss.UNDER:
                j += 1
            else:
                over[c] = g
        at.append(row)
    return at, over, tags


def wirtinger(d, omega=None):
    """Wirtinger presentation of the diagram's group; the generators of
    component omega, if given, are tagged OMEGA."""
    at, over, tags = _arcs(d, omega)
    relators = []
    for ci, comp in enumerate(d.components):
        row = at[ci]
        for pos, (c, role) in enumerate(comp):
            if role == gauss.UNDER:
                a, b, eps = row[pos], over[c], d.signs[c]
                nxt = row[(pos + 1) % len(row)]
                relators.append(((b, eps), (a, 1), (b, -eps), (nxt, -1)))
    return GroupPresentation(tags, relators)


def reduced_group(d):
    """Group of the omega-extension; the omega generators are tagged so the
    abelianization can separate them."""
    z = _zh(d)
    return wirtinger(z.diagram, z.omega_index)


# ---------------------------------------------------------------------------
# Fox calculus

def alexander_matrix(p):
    """Row per relator, column per generator; entry = image of the Fox
    derivative under the abelianization (omega generators to s, the rest
    to t).  The image of every prefix of a relator is a monomial s^a t^b,
    so the running prefix is streamed as the exponents (a, b), and each
    derivative adds +-1 at them."""
    index = {g: j for j, g in enumerate(p.generators)}
    step = {g: (1, 0) if p.tags[g] == OMEGA else (0, 1)
            for g in p.generators}
    entries = {}
    for i, w in enumerate(p.relators):
        a = b = 0
        for (g, e) in w:
            da, db = step[g]
            if e == 1:
                _add_term(entries, (i, index[g]), (a, b), 1)
                a, b = a + da, b + db
            else:
                a, b = a - da, b - db
                _add_term(entries, (i, index[g]), (a, b), -1)
    return PolyMatrix(len(p.relators), len(p.generators), entries)


_ONE_MINUS_S = {(0, 0): 1, (1, 0): -1}


def _omega_quotient(mat, omega):
    """D = A^omega / (1 - s) for the r x (r + 1) matrix A = mat: the
    monomial-sign form of the minor without column omega, whose least
    exponents are 0, divided exactly by 1 - s, which keeps that form.
    Raises NotDivisible when 1 - s does not divide it."""
    keep = [j for j in range(mat.cols) if j != omega]
    minor = _canon_monomial_sign(
        mat.submatrix(range(mat.rows), keep).det().terms)
    if not minor:
        return ZERO
    quo = _quo(minor, _ONE_MINUS_S)
    if quo is None:
        raise NotDivisible("1 - s does not divide the minor without the "
                           "omega column")
    return LaurentPoly._raw(quo)


def elementary_ideals(mat, k_max, omega=None):
    """Elementary ideals E_0 .. E_k_max of the Alexander matrix A = mat,
    whose g columns are the generators of its presentation.  E_k is
    generated by the (g-k) x (g-k) minors of A and is the full ring when
    g-k <= 0.

    omega names the column of the one generator alexander_matrix sends
    to s, every other column's generator going to t.  When it is given
    and A has g = r + 1 >= 2 columns for its r rows, Fox's formula
    (module docstring) makes every maximal minor +-(s - 1) D or
    +-(t - 1) D, so E_0 = 0 and gcd(E_1) = D = A^omega / (1 - s), one
    determinant and no gcd; for k_max <= 1 nothing else is computed.

    Every other ideal, and E_1 when omega is None or A has another shape
    (a link with a chordless circle, say), takes the gcd route.  A is
    reduced once by unit pivots (PolyMatrix.unit_reduced): a step on the
    unit u turns A into u + A' by row and column operations, which keep
    each ideal of minors, and I_m(u + A') = I_(m-1)(A').  After p pivots
    E_k = I_(g-k-p)(A'), the full ring when g-k-p <= 0 and zero when
    g-k-p exceeds a side of A'.  Otherwise its gcd starts from that of
    E_(k-1), D included, takes the minors of A' one at a time, by (row
    set, column set), and stops once it is 1.  Returns one (gcd,
    generator count) pair per ideal, E_k at index k; the count is that of
    all the (g-k)-minors of A."""
    g = mat.cols
    out = []
    if omega is not None and g == mat.rows + 1 >= 2 and k_max >= 1:
        out = [(ZERO, 0), (_omega_quotient(mat, omega), g)]
        if k_max == 1:
            return out
    pivots, res = mat.unit_reduced()
    for k in range(len(out), k_max + 1):
        size = max(g - k, 0)
        m = size - pivots
        if m <= 0:
            acc = ONE
        elif m > min(res.rows, res.cols):
            acc = ZERO
        else:
            # E_(k-1) lies in E_k, so the gcd of E_k divides that of
            # E_(k-1) and may start from it
            acc = out[-1][0] if out else ZERO
            index_sets = ((ri, ci)
                          for ri in combinations(range(res.rows), m)
                          for ci in combinations(range(res.cols), m))
            for ri, ci in index_sets:
                if acc == ONE:
                    break
                acc = gcd(acc, res.submatrix(ri, ci).det())
        out.append((acc, comb(mat.rows, size) * comb(g, size)))
    return out


# ---------------------------------------------------------------------------
# longitudes

def longitude(d, comp):
    """Longitude word of a component, as a list of letters: walk it from
    slot 0, record the over arc with the crossing sign at each
    undercrossing, then append m^-w where m is the arc through the
    basepoint and w the exponent sum of the letters living on this
    component.  The correction makes the m-exponent sum zero."""
    if not 0 <= comp < len(d.components):
        raise gauss.BadIndex("no component %d" % comp)
    at, over, _ = _arcs(d)
    letters = [(over[c], d.signs[c])
               for c, role in d.components[comp] if role == gauss.UNDER]
    own = set(at[comp])
    w = sum(e for (g, e) in letters if g in own)
    if w:
        letters += [(at[comp][0], -1 if w > 0 else 1)] * abs(w)
    return _free_reduced(letters)


# ---------------------------------------------------------------------------
# Tietze elimination

def tietze_eliminate(p):
    """Repeatedly eliminate a generator that occurs exactly once in some
    relator, substituting its expression into the rest.  Candidate order:
    shortest defining relator, then fewest total occurrences of the
    generator, then smallest generator id, the first relator on ties.
    Relators are kept cyclically reduced and empty relators dropped, in
    their order; generator ids are preserved.  Each relator is kept with
    its letter counts, and the totals over all of them are kept up to
    date: an elimination of g rewrites and counts again only the relators
    that hold g."""
    tags = dict(p.tags)
    rels = [_cyclically_reduced(w) for w in p.relators]
    rels = [(w, Counter(g for g, _ in w)) for w in rels if w]
    total = Counter(g for w, _ in rels for g, _ in w)
    while True:
        best = None
        for ri, (w, cw) in enumerate(rels):
            n = len(w)
            if best is not None and n > best[0]:
                continue
            for g, c in cw.items():
                if c == 1:
                    key = (n, total[g], g, ri)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, _, g, ri = best
        w = rels[ri][0]
        i = next(i for i, (h, _) in enumerate(w) if h == g)
        # w = u g^e v, so g^e = u^-1 v^-1
        repl = _free_reduced(_inverse(w[:i]) + _inverse(w[i + 1:]))
        sub = {w[i]: repl, (g, -w[i][1]): _inverse(repl)}
        kept = []
        for rj, (x, cx) in enumerate(rels):
            if g in cx:
                for h, c in cx.items():
                    total[h] -= c
                if rj == ri:
                    continue
                x = _cyclically_reduced(
                    [y for l in x for y in sub.get(l, (l,))])
                if not x:
                    continue
                cx = Counter(h for h, _ in x)
                for h, c in cx.items():
                    total[h] += c
            kept.append((x, cx))
        rels = kept
        del tags[g]
    return GroupPresentation(tags, [w for w, _ in rels])
