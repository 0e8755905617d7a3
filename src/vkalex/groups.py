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

from . import gauss
from .zh import zh as _zh
from .laurent import LaurentPoly, PolyMatrix, gcd, ONE, S, T, ZERO


class Word:
    """Word in free group generators: a sequence of (generator id, +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple((int(g), int(e)) for (g, e) in letters)
        if any(e not in (1, -1) for (_, e) in self.letters):
            raise ValueError("letter exponents must be +-1")

    def free_reduced(self):
        out = []
        for (g, e) in self.letters:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
        return Word(out)

    def cyclically_reduced(self):
        w = list(self.free_reduced().letters)
        while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
            w = list(Word(w[1:-1]).free_reduced().letters)
        return Word(w)

    def inverse(self):
        return Word([(g, -e) for (g, e) in reversed(self.letters)])

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
    """k-th elementary ideal: the minors generating it and their gcd."""

    def __init__(self, k, generators, gcd_generator):
        self.k = k
        self.generators = generators
        self.gcd_generator = gcd_generator

    def is_zero(self):
        return self.gcd_generator.is_zero()

    def __repr__(self):
        return "ElementaryIdeal(k=%d, gcd=%s)" % (self.k, self.gcd_generator)


# ---------------------------------------------------------------------------
# presentations from diagrams

def _arc_tables(d):
    """Per component: positions of under slots, and generator ids for the
    arcs (arc j of component ci ends at its j-th under slot; a component
    without under slots keeps one free generator)."""
    gen_of_arc = {}
    under_pos = []
    tags = {}
    count = 0
    for ci, comp in enumerate(d.components):
        ups = [p for p, (c, role) in enumerate(comp) if role == gauss.UNDER]
        under_pos.append(ups)
        for j in range(max(1, len(ups))):
            gen_of_arc[(ci, j)] = count
            tags[count] = gauss.OMEGA if d.component_roles[ci] == gauss.OMEGA else ci
            count += 1
    return gen_of_arc, under_pos, tags


def _containing_arc(gen_of_arc, under_pos, ci, pos):
    """Generator of the arc covering slot (ci, pos): arc j covers the slots
    up to and including its ending under slot."""
    ups = under_pos[ci]
    if not ups:
        return gen_of_arc[(ci, 0)]
    for j, u in enumerate(ups):
        if u >= pos:
            return gen_of_arc[(ci, j)]
    return gen_of_arc[(ci, 0)]


def wirtinger(d):
    """Wirtinger presentation of the diagram's group."""
    gen_of_arc, under_pos, tags = _arc_tables(d)
    over_at = {}
    for ci, comp in enumerate(d.components):
        for pos, (c, role) in enumerate(comp):
            if role == gauss.OVER:
                over_at[c] = (ci, pos)
    relators = []
    for ci, comp in enumerate(d.components):
        ups = under_pos[ci]
        for j, u in enumerate(ups):
            c, _ = comp[u]
            eps = d.signs[c]
            oc, op = over_at[c]
            b = _containing_arc(gen_of_arc, under_pos, oc, op)
            a = gen_of_arc[(ci, j)]
            nxt = gen_of_arc[(ci, (j + 1) % len(ups))]
            relators.append(Word([(b, eps), (a, 1), (b, -eps), (nxt, -1)]))
    return GroupPresentation(sorted(set(gen_of_arc.values())), tags, relators)


def reduced_group(d):
    """Group of the omega-extension; the omega generators are tagged so the
    abelianization can separate them."""
    return wirtinger(_zh(d).diagram)


# ---------------------------------------------------------------------------
# Fox calculus

def fox_derivative(w, gen):
    """Formal free derivative of the word w by the given generator: a list
    of (+-1, Word prefix) pairs, one per occurrence."""
    out = []
    prefix = []
    for (g, e) in w:
        if e == 1:
            if g == gen:
                out.append((1, Word(prefix)))
            prefix.append((g, e))
        else:
            prefix.append((g, e))
            if g == gen:
                out.append((-1, Word(prefix)))
    return out


def _alpha_word(alpha, w):
    out = ONE
    for (g, e) in w:
        img = alpha(g)
        out = out * (img if e == 1 else img.inverse())
    return out


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


def elementary_ideals(p, alpha, k_max):
    """Ideals E_0 .. E_k_max of the presentation's Alexander matrix.  E_k is
    generated by the (g-k) x (g-k) minors, g the number of generators; when
    g-k exceeds the row count the ideal is zero, and when g-k <= 0 it is the
    full ring."""
    mat = alexander_matrix(p, alpha)
    g = len(p.generators)
    out = []
    for k in range(k_max + 1):
        size = g - k
        if size <= 0:
            out.append(ElementaryIdeal(k, [ONE], ONE))
        elif size > mat.rows:
            out.append(ElementaryIdeal(k, [], ZERO))
        else:
            mins = mat.minors(size)
            acc = ZERO
            for m in mins:
                acc = gcd(acc, m)
                if acc == ONE:
                    break
            out.append(ElementaryIdeal(k, mins, acc))
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
    gen_of_arc, under_pos, tags = _arc_tables(d)
    comp_of_gen = {}
    for (ci, j), g in gen_of_arc.items():
        comp_of_gen[g] = ci
    over_at = {}
    for ci, cc in enumerate(d.components):
        for pos, (c, role) in enumerate(cc):
            if role == gauss.OVER:
                over_at[c] = (ci, pos)
    letters = []
    for pos, (c, role) in enumerate(d.components[comp]):
        if role != gauss.UNDER:
            continue
        oc, op = over_at[c]
        b = _containing_arc(gen_of_arc, under_pos, oc, op)
        letters.append((b, d.signs[c]))
    w = sum(e for (g, e) in letters if comp_of_gen[g] == comp)
    m = _containing_arc(gen_of_arc, under_pos, comp, 0)
    letters.extend([(m, -1)] * w if w > 0 else [(m, 1)] * (-w))
    return Word(letters).free_reduced()


# ---------------------------------------------------------------------------
# Tietze elimination

def _substituted(w, g, repl):
    out = []
    for (h, e) in w:
        if h == g:
            out.extend(repl.letters if e == 1 else repl.inverse().letters)
        else:
            out.append((h, e))
    return Word(out).cyclically_reduced()


def tietze_eliminate(p):
    """Repeatedly eliminate a generator that occurs exactly once in some
    relator, substituting its expression into the rest.  Candidate order:
    shortest defining relator, then fewest total occurrences of the
    generator, then smallest generator id.  Relators are kept cyclically
    reduced and empty relators dropped; generator ids are preserved."""
    gens = list(p.generators)
    tags = dict(p.tags)
    rels = [w.cyclically_reduced() for w in p.relators]
    rels = [w for w in rels if len(w)]
    while True:
        best = None
        for ri, w in enumerate(rels):
            counts = {}
            for (g, _) in w:
                counts[g] = counts.get(g, 0) + 1
            for g, c in counts.items():
                if c != 1:
                    continue
                total = sum(1 for v in rels for (h, _) in v if h == g)
                key = (len(w), total, g)
                if best is None or key < best[0]:
                    best = (key, ri, g)
        if best is None:
            break
        _, ri, g = best
        w = rels[ri]
        i = next(i for i, (h, _) in enumerate(w.letters) if h == g)
        u = Word(w.letters[:i])
        e = w.letters[i][1]
        v = Word(w.letters[i + 1:])
        repl = (u.inverse() * v.inverse()).free_reduced()
        if e == -1:
            repl = repl.inverse()
        rels = [_substituted(x, g, repl) for j, x in enumerate(rels) if j != ri]
        rels = [x for x in rels if len(x)]
        gens.remove(g)
        tags.pop(g, None)
    return GroupPresentation(gens, tags, rels)
