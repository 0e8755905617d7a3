"""Link group presentations and their Alexander invariants.

The Wirtinger presentation has one generator per arc, where arcs are the
pieces of a component between consecutive undercrossings, and one relator
per undercrossing: passing under chord c with sign e conjugates the incoming
arc a into the outgoing arc d by the arc b carrying the over strand,

    r = b^e a b^-e d^-1.

A component with no undercrossing contributes a single free generator.

The one abelianization the program uses sends every generator on an omega
component to s and every other generator to t, so the generators are told
apart by their component tags alone.  Fox differentiation of the relators
followed by this map yields the Alexander matrix, whose ideals of minors are
the elementary ideals.  They are taken from one reduction of the matrix by
unit pivots u = +-s^a t^b: row and column operations keep every ideal of
minors, and the block sum u + A' has I_m(u + A') = I_(m-1)(A').
"""

import operator
from collections import Counter
from itertools import combinations
from math import comb

from . import gauss
from .zh import zh as _zh
from .laurent import LaurentPoly, PolyMatrix, gcd, ONE, ZERO


class Word:
    """Word in free group generators: a sequence of (generator id, +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple((operator.index(g), operator.index(e))
                             for (g, e) in letters)
        if any(e not in (1, -1) for (_, e) in self.letters):
            raise ValueError("letter exponents must be +-1")

    def free_reduced(self):
        return Word(_free_reduced(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join("a%d" % (g + 1) if e == 1 else "a%d^-1" % (g + 1)
                        for (g, e) in self.letters)

    def __repr__(self):
        return "Word(%s)" % str(self)


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
    """generators: list of ids; tags: per-generator component tag, either a
    regular component index or the string 'omega'; relators: list of Word."""

    def __init__(self, generators, tags, relators):
        self.generators = list(generators)
        self.tags = dict(tags)
        self.relators = [w if isinstance(w, Word) else Word(w) for w in relators]
        declared = set(self.generators)
        for w in self.relators:
            for (g, _) in w:
                if g not in declared:
                    raise ValueError("relator uses undeclared generator %d" % g)

    def __str__(self):
        gens = " ".join("a%d" % (g + 1) for g in self.generators)
        rels = " ; ".join(str(w) for w in self.relators)
        return "gens: %s ; rels: %s" % (gens, rels) if rels else \
               "gens: %s ; rels:" % gens

    def __repr__(self):
        return "GroupPresentation(%s)" % str(self)

    def deficiency(self):
        return len(self.generators) - len(self.relators)


class ElementaryIdeal:
    """k-th elementary ideal: the number of minors generating it and their
    gcd."""

    def __init__(self, k, generator_count, gcd_generator):
        self.k = k
        self.generator_count = generator_count
        self.gcd_generator = gcd_generator

    def is_zero(self):
        return self.gcd_generator.is_zero()

    def __repr__(self):
        return "ElementaryIdeal(k=%d, gcd=%s)" % (self.k, self.gcd_generator)


# ---------------------------------------------------------------------------
# presentations from diagrams

def _arcs(d):
    """One pass over the slots.  Returns at[ci][pos], the generator of the
    arc covering slot pos of component ci; over[c], the generator of the arc
    carrying chord c's over strand; and the component tag of each generator.
    Arc j of a component runs up to and including its j-th under slot, the
    slots after its last under slot belong to arc 0, and a component without
    under slots is one free arc."""
    at = []
    over = {}
    tags = {}
    for ci, comp in enumerate(d.components):
        first = len(tags)
        nu = sum(1 for _, role in comp if role == gauss.UNDER)
        tag = gauss.OMEGA if d.component_roles[ci] == gauss.OMEGA else ci
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


def wirtinger(d):
    """Wirtinger presentation of the diagram's group."""
    at, over, tags = _arcs(d)
    relators = []
    for ci, comp in enumerate(d.components):
        row = at[ci]
        for pos, (c, role) in enumerate(comp):
            if role == gauss.UNDER:
                a, b, eps = row[pos], over[c], d.signs[c]
                nxt = row[(pos + 1) % len(row)]
                relators.append(Word([(b, eps), (a, 1), (b, -eps), (nxt, -1)]))
    return GroupPresentation(list(tags), tags, relators)


def reduced_group(d):
    """Group of the omega-extension; the omega generators are tagged so the
    abelianization can separate them."""
    return wirtinger(_zh(d).diagram)


# ---------------------------------------------------------------------------
# Fox calculus

def alexander_matrix(p):
    """Row per relator, column per generator; entry = image of the Fox
    derivative under the abelianization (omega generators to s, the rest
    to t).  The image of every prefix of a relator is a monomial s^a t^b,
    so the running prefix is streamed as the exponents (a, b), and each
    derivative adds +-1 at them."""
    index = {g: j for j, g in enumerate(p.generators)}
    step = {g: (1, 0) if p.tags[g] == gauss.OMEGA else (0, 1)
            for g in p.generators}
    entries = {}
    for i, w in enumerate(p.relators):
        a = b = 0
        for (g, e) in w:
            terms = entries.setdefault((i, index[g]), {})
            da, db = step[g]
            if e == 1:
                terms[a, b] = terms.get((a, b), 0) + 1
                a, b = a + da, b + db
            else:
                a, b = a - da, b - db
                terms[a, b] = terms.get((a, b), 0) - 1
    return PolyMatrix(len(p.relators), len(p.generators),
                      {ij: LaurentPoly(t) for ij, t in entries.items()})


def elementary_ideals(mat, k_max):
    """Elementary ideals E_0 .. E_k_max of the Alexander matrix A = mat,
    whose g columns are the generators of its presentation.  E_k is
    generated by the (g-k) x (g-k) minors of A and is the full ring when
    g-k <= 0.  A is reduced once by unit pivots (PolyMatrix.unit_reduced):
    a step on the unit u turns A into u + A' by row and column
    operations, which keep each ideal of minors, and
    I_m(u + A') = I_(m-1)(A').  After p pivots E_k = I_(g-k-p)(A'), the
    full ring when g-k-p <= 0 and zero when g-k-p exceeds a side of A'.
    Otherwise its gcd starts from that of E_(k-1), takes the minors of A'
    one at a time, by (row set, column set), and stops once it is 1.  The
    generator count is that of all the (g-k)-minors of A."""
    g = mat.cols
    pivots, res = mat.unit_reduced()
    out = []
    for k in range(k_max + 1):
        size = max(g - k, 0)
        m = size - pivots
        if m <= 0:
            acc = ONE
        elif m > min(res.rows, res.cols):
            acc = ZERO
        else:
            # E_(k-1) lies in E_k, so the gcd of E_k divides that of
            # E_(k-1) and may start from it
            acc = out[-1].gcd_generator if out else ZERO
            index_sets = ((ri, ci)
                          for ri in combinations(range(res.rows), m)
                          for ci in combinations(range(res.cols), m))
            for ri, ci in index_sets:
                if acc == ONE:
                    break
                acc = gcd(acc, res.submatrix(ri, ci).det())
        out.append(ElementaryIdeal(
            k, comb(mat.rows, size) * comb(g, size), acc))
    return out


# ---------------------------------------------------------------------------
# longitudes

def longitude(d, comp):
    """Longitude word of a component: walk it from slot 0, record the over
    arc with the crossing sign at each undercrossing, then append m^-w where
    m is the arc through the basepoint and w the exponent sum of the letters
    living on this component.  The correction makes the m-exponent sum zero."""
    if not 0 <= comp < len(d.components):
        raise gauss.BadIndex("no component %d" % comp)
    at, over, _ = _arcs(d)
    letters = [(over[c], d.signs[c])
               for c, role in d.components[comp] if role == gauss.UNDER]
    own = set(at[comp])
    w = sum(e for (g, e) in letters if g in own)
    if w:
        letters += [(at[comp][0], -1 if w > 0 else 1)] * abs(w)
    return Word(letters).free_reduced()


# ---------------------------------------------------------------------------
# Tietze elimination

def tietze_eliminate(p):
    """Repeatedly eliminate a generator that occurs exactly once in some
    relator, substituting its expression into the rest.  Candidate order:
    shortest defining relator, then fewest total occurrences of the
    generator, then smallest generator id, the first relator on ties.
    Relators are kept cyclically reduced and empty relators dropped, in
    their order; generator ids are preserved.  The relators stay letter
    lists until the result is built, each with its letter counts, and the
    totals over all of them are kept up to date: an elimination of g
    rewrites and counts again only the relators that hold g."""
    gens = list(p.generators)
    tags = dict(p.tags)
    rels = [_cyclically_reduced(w.letters) for w in p.relators]
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
        gens.remove(g)
        tags.pop(g, None)
    return GroupPresentation(gens, tags, [Word(w) for w, _ in rels])
