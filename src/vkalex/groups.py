"""Link group presentations and their Alexander invariants.

The Wirtinger presentation has one generator per arc, where arcs are the
pieces of a component between consecutive undercrossings, and one relator
per undercrossing: passing under chord c with sign e conjugates the incoming
arc a into the outgoing arc d by the arc b carrying the over strand,

    r = b^e a b^-e d^-1.

A component with no undercrossing contributes a single free generator.

The abelianization sends every generator on a regular component to t and
every generator on an omega component to s; Fox differentiation of the
relators followed by this map yields the Alexander matrix, whose ideals of
minors are the elementary ideals.
"""

from itertools import combinations
from math import comb

from . import gauss
from .zh import zh as _zh
from .laurent import PolyMatrix, gcd, ONE, S, T, ZERO


class Word:
    """Word in free group generators: a sequence of (generator id, +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple((int(g), int(e)) for (g, e) in letters)
        if any(e not in (1, -1) for (_, e) in self.letters):
            raise ValueError("letter exponents must be +-1")

    def free_reduced(self):
        return Word(_free_reduced(self.letters))

    def cyclically_reduced(self):
        return Word(_cyclically_reduced(self.letters))

    def inverse(self):
        return Word(_inverse(self.letters))

    def __mul__(self, other):
        return Word(self.letters + other.letters)

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

    def exponent_sum(self, g):
        return sum(e for (h, e) in self.letters if h == g)

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


class Abelianization:
    """Map from generator ids to monomials: regular components share t,
    omega components share s."""

    def __init__(self, images):
        self.images = dict(images)

    @classmethod
    def standard(cls, presentation):
        images = {}
        for g in presentation.generators:
            tag = presentation.tags[g]
            images[g] = S if tag == gauss.OMEGA else T
        return cls(images)

    def __call__(self, g):
        return self.images[g]


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

def alexander_matrix(p, alpha):
    """Row per relator, column per generator; entry = image of the Fox
    derivative under the abelianization.  Streams the running prefix image
    instead of materializing each derivative."""
    index = {g: i for i, g in enumerate(p.generators)}
    ncols = len(p.generators)
    rows = []
    for w in p.relators:
        row = [ZERO] * ncols
        prefix = ONE
        for (g, e) in w:
            img = alpha(g)
            if e == 1:
                row[index[g]] = row[index[g]] + prefix
                prefix = prefix * img
            else:
                prefix = prefix * img.inverse()
                row[index[g]] = row[index[g]] - prefix
        rows.append(row)
    return PolyMatrix(rows) if rows else PolyMatrix(0, ncols, [])


def _column_sets(mat, images, size):
    """Column sets whose size x size minors, over every row set, have the
    same gcd as all of them; images[j] is the image of generator j.  For
    size g - 1, when Fox's fundamental formula sum_j A_ij (images[j] - 1)
    = 0 holds (alpha kills every relator), that vector lies in the kernel
    of each row set's g - 1 rows, and so does the vector of signed maximal
    minors: two maximal minors of one row set whose dropped columns have
    the same image agree up to sign.  One dropped column per image class
    is then enough; a generator sent to 1 gets no relation and is its own
    class."""
    g = mat.cols
    if size != g - 1:
        return list(combinations(range(g), size))
    v = [img - ONE for img in images]
    if any(sum((e * vj for e, vj in zip(mat.row(i), v) if e), ZERO)
           for i in range(mat.rows)):
        return list(combinations(range(g), size))
    seen = set()
    dropped = []
    for j, img in enumerate(images):
        if img == ONE or img not in seen:
            seen.add(img)
            dropped.append(j)
    return [tuple(c for c in range(g) if c != j) for j in reversed(dropped)]


def elementary_ideals(p, alpha, k_max):
    """Ideals E_0 .. E_k_max of the presentation's Alexander matrix.  E_k is
    generated by the (g-k) x (g-k) minors, g the number of generators; when
    g-k exceeds the row count the ideal is zero, and when g-k <= 0 it is the
    full ring.  The gcd of E_k starts from that of E_(k-1), takes the
    minors one at a time, by (row set, column set), and stops once it is 1;
    for E_1 only the column sets of `_column_sets` are taken.  The generator
    count is that of all the minors, whether taken or not."""
    mat = alexander_matrix(p, alpha)
    g = len(p.generators)
    images = [alpha(gen) for gen in p.generators]
    out = []
    for k in range(k_max + 1):
        size = g - k
        if size <= 0:
            out.append(ElementaryIdeal(k, 1, ONE))
        elif size > mat.rows:
            out.append(ElementaryIdeal(k, 0, ZERO))
        else:
            col_sets = _column_sets(mat, images, size)
            index_sets = ((ri, ci)
                          for ri in combinations(range(mat.rows), size)
                          for ci in col_sets)
            # E_(k-1) lies in E_k, so the gcd of E_k divides that of
            # E_(k-1) and may start from it
            acc = out[-1].gcd_generator if out else ZERO
            for ri, ci in index_sets:
                if acc == ONE:
                    break
                acc = gcd(acc, mat.submatrix(ri, ci).det())
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
    generator, then smallest generator id.  Relators are kept cyclically
    reduced and empty relators dropped; generator ids are preserved.  The
    relators stay letter lists until the result is built."""
    gens = list(p.generators)
    tags = dict(p.tags)
    rels = [_cyclically_reduced(w.letters) for w in p.relators]
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
        # w = u g^e v, so g^e = u^-1 v^-1
        repl = _free_reduced(_inverse(w[:i]) + _inverse(w[i + 1:]))
        sub = {w[i]: repl, (g, -w[i][1]): _inverse(repl)}
        rels = [_cyclically_reduced([y for l in x for y in sub.get(l, (l,))])
                for x in rels[:ri] + rels[ri + 1:]]
        rels = [x for x in rels if x]
        gens.remove(g)
        tags.pop(g, None)
    return GroupPresentation(gens, tags, [Word(w) for w in rels])
