"""Gauss codes and Gauss diagrams of virtual links.

Grammar (case-sensitive, whitespace between tokens ignored):

    code      := component (',' component)* | <empty>
    component := token*
    token     := ('O'|'U') digit+ ('+'|'-')

Every crossing label must occur exactly twice, once as O and once as U, with
the same sign both times.  The empty code denotes the 0-crossing unknot; an
empty component between commas is a chordless circle, so "," is a 2-component
unlink.

A GaussDiagram stores each component as a list of slots (chord_id, role) with
role 'O' or 'U', plus a sign per chord.  Chord ids are dense 0..n-1; moves
that remove chords reindex the survivors in order, so undoing a move returns
a diagram structurally equal to the original.
"""

import re


class GaussSyntaxError(ValueError):
    """Malformed token stream."""


class GaussValidationError(ValueError):
    """Token stream parses but violates the pairing rules."""


class NoCrossings(ValueError):
    """Operation needs at least one crossing."""


class BadIndex(IndexError):
    """Component or slot index out of range."""


class NotApplicable(ValueError):
    """Move preconditions not met at the requested site."""


OVER = "O"
UNDER = "U"
REGULAR = "regular"
OMEGA = "omega"

_TOKEN = re.compile(r"([OU])(\d+)([+-])")


class GaussCode:
    """Validated parse of a Gauss code string.

    components: list of token lists, token = (passage, label, sign).
    """

    def __init__(self, components):
        self.components = [list(c) for c in components]
        _validate(self.components)

    def __eq__(self, other):
        if not isinstance(other, GaussCode):
            return NotImplemented
        return self.components == other.components

    def __str__(self):
        return ",".join(
            "".join("%s%s%s" % (p, l, "+" if s > 0 else "-") for (p, l, s) in comp)
            for comp in self.components)

    def __repr__(self):
        return "GaussCode(%r)" % str(self)


def _validate(components):
    seen = {}
    for comp in components:
        for (passage, label, sign) in comp:
            rec = seen.setdefault(label, {"O": 0, "U": 0, "signs": set()})
            rec[passage] += 1
            rec["signs"].add(sign)
    for label, rec in seen.items():
        if rec["O"] != 1 or rec["U"] != 1:
            raise GaussValidationError(
                "label %s appears %d times as O and %d as U; need exactly one of each"
                % (label, rec["O"], rec["U"]))
        if len(rec["signs"]) != 1:
            raise GaussValidationError(
                "label %s has mismatched signs on its two passages" % label)


def parse_gauss_code(text):
    """Parse and validate a Gauss code.  The empty string is the 0-crossing
    unknot.  Raises GaussSyntaxError / GaussValidationError."""
    stripped = "".join(text.split())
    if stripped == "":
        return GaussCode([[]])
    components = []
    for part in stripped.split(","):
        toks = []
        pos = 0
        while pos < len(part):
            mo = _TOKEN.match(part, pos)
            if mo is None:
                raise GaussSyntaxError("bad token at %r" % part[pos:])
            toks.append((mo.group(1), mo.group(2),
                         1 if mo.group(3) == "+" else -1))
            pos = mo.end()
        components.append(toks)
    return GaussCode(components)


class GaussDiagram:
    """Chord diagram of a virtual link.

    components: list of slot lists, slot = (chord_id, 'O'|'U')
    signs: list of +-1, indexed by chord id
    component_roles: 'regular' or 'omega' per component
    """

    def __init__(self, components, signs, component_roles=None):
        self.components = [list(c) for c in components]
        self.signs = list(signs)
        if component_roles is None:
            component_roles = [REGULAR] * len(self.components)
        self.component_roles = list(component_roles)
        if len(self.component_roles) != len(self.components):
            raise ValueError("one role per component required")
        self._check()

    def _check(self):
        ends = {}
        for comp in self.components:
            for (c, role) in comp:
                ends.setdefault(c, []).append(role)
        n = len(self.signs)
        if sorted(ends) != list(range(n)):
            raise ValueError("chord ids must be dense 0..n-1")
        for c, roles in ends.items():
            if sorted(roles) != [OVER, UNDER]:
                raise ValueError("chord %d needs exactly one O and one U endpoint" % c)

    # ------------------------------------------------------------- views
    @property
    def crossings(self):
        return len(self.signs)

    def __eq__(self, other):
        if not isinstance(other, GaussDiagram):
            return NotImplemented
        return (self.components == other.components
                and self.signs == other.signs
                and self.component_roles == other.component_roles)

    def __repr__(self):
        return "GaussDiagram(%r)" % str(to_code(self))

    # ------------------------------------------------------ derived forms
    def rotated(self, ci, k):
        """Move the basepoint of component ci forward by k slots."""
        if not 0 <= ci < len(self.components):
            raise BadIndex("no component %d" % ci)
        comps = [list(c) for c in self.components]
        comp = comps[ci]
        if comp:
            k %= len(comp)
            comps[ci] = comp[k:] + comp[:k]
        return GaussDiagram(comps, self.signs, self.component_roles)

    def relabeled(self, perm):
        """Renumber chords: old id c becomes perm[c]."""
        if sorted(perm) != list(range(len(self.signs))):
            raise ValueError("perm must be a permutation of chord ids")
        comps = [[(perm[c], role) for (c, role) in comp]
                 for comp in self.components]
        signs = [0] * len(self.signs)
        for old, new in enumerate(perm):
            signs[new] = self.signs[old]
        return GaussDiagram(comps, signs, self.component_roles)


def to_diagram(code):
    """GaussCode -> GaussDiagram with chord ids in first-appearance order."""
    ids = {}
    signs = {}
    comps = []
    for comp in code.components:
        cl = []
        for (passage, label, sign) in comp:
            if label not in ids:
                ids[label] = len(ids)
            k = ids[label]
            signs[k] = sign
            cl.append((k, passage))
        comps.append(cl)
    return GaussDiagram(comps, [signs[i] for i in range(len(ids))])


def to_code(d):
    """Readback: walk each circle from its basepoint and emit tokens.
    Labels are 1-based in first-appearance order of the walk."""
    labels = {}
    comps = []
    for comp in d.components:
        toks = []
        for (c, role) in comp:
            if c not in labels:
                labels[c] = str(len(labels) + 1)
            toks.append((role, labels[c], d.signs[c]))
        comps.append(toks)
    return GaussCode(comps)


def delete_component(d, idx):
    """Remove component idx and every chord with an endpoint on it.
    Surviving chords are reindexed in order."""
    if not 0 <= idx < len(d.components):
        raise BadIndex("no component %d" % idx)
    rest = _remove_chords(d, {c for (c, _) in d.components[idx]})
    comps, roles = rest.components, rest.component_roles
    return GaussDiagram(comps[:idx] + comps[idx + 1:], rest.signs,
                        roles[:idx] + roles[idx + 1:])


# ---------------------------------------------------------------------------
# short arcs

class ShortArcStructure:
    """The 2n short arcs of an n-crossing diagram.

    Arc ids are 0-based; crossing k owns the incoming pair (2k, 2k+1).
    successor[a] is the arc that starts where arc a ends; end_slot[a] is the
    (component, position) slot that arc a runs into.
    """

    def __init__(self, successor, end_slot):
        self.successor = successor
        self.end_slot = end_slot


# Which of the pair (2k, 2k+1) the arc incoming at the over passage takes.
# "over-first": over-incoming gets 2k at a positive crossing, and the roles
# swap at a negative crossing (the two strands trade sides when the crossing
# sign flips).  "under-first" is the mirror convention.  The choice is
# calibrated against the worked 4.12 polynomial; see alexander.ARC_CONVENTION.
def _arc_offset(convention, role, sign):
    first = (sign > 0) if convention == "over-first" else (sign < 0)
    if role == OVER:
        return 0 if first else 1
    return 1 if first else 0


def short_arcs(d, convention="over-first"):
    """ShortArcStructure of the diagram under the given incoming-arc
    convention.  Raises NoCrossings on a chordless diagram."""
    n = len(d.signs)
    if n == 0:
        raise NoCrossings("no short arcs without crossings")
    end_slot = {}
    for ci, comp in enumerate(d.components):
        for pos, (c, role) in enumerate(comp):
            arc = 2 * c + _arc_offset(convention, role, d.signs[c])
            end_slot[arc] = (ci, pos)
    arc_at_slot = {v: k for k, v in end_slot.items()}
    succ = [None] * (2 * n)
    for (ci, pos), a in arc_at_slot.items():
        length = len(d.components[ci])
        succ[a] = arc_at_slot[(ci, (pos + 1) % length)]
    return ShortArcStructure(succ, end_slot)


# ---------------------------------------------------------------------------
# moves
#
# The chord-level patterns below were frozen by fuzzing: a candidate pattern
# counts as a valid move only if the generalized Alexander polynomial is
# unchanged across every random host diagram and site.  The surviving
# families are hard-coded here; the moves never search for sites.

def _insert(comps, jobs):
    """jobs: list of ((ci, pos), [slots]) gap insertions.  Inserting at a gap
    does not shift gaps with smaller positions, so apply each component's
    jobs from the largest position down."""
    comps = [list(c) for c in comps]
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i][0][0], -jobs[i][0][1], -i))
    for i in order:
        (ci, pos), slots = jobs[i]
        if not 0 <= ci < len(comps):
            raise BadIndex("no component %d" % ci)
        if not 0 <= pos <= len(comps[ci]):
            raise BadIndex("gap %d out of range on component %d" % (pos, ci))
        comps[ci][pos:pos] = slots
    return comps


def _remove_chords(d, doomed):
    keep = [c for c in range(len(d.signs)) if c not in doomed]
    newid = {c: i for i, c in enumerate(keep)}
    comps = [[(newid[c], role) for (c, role) in comp if c not in doomed]
             for comp in d.components]
    return GaussDiagram(comps, [d.signs[c] for c in keep], d.component_roles)


def apply_r1(d, site, sign, kind="over-first"):
    """Insert an isolated kink chord at the gap `site` = (component, pos).
    kind 'over-first' inserts the O endpoint first along the orientation,
    'under-first' the U endpoint."""
    if kind not in ("over-first", "under-first"):
        raise NotApplicable("unknown R1 kind %r" % kind)
    if sign not in (1, -1):
        raise NotApplicable("sign must be +-1")
    c = len(d.signs)
    pair = [(c, OVER), (c, UNDER)] if kind == "over-first" else [(c, UNDER), (c, OVER)]
    comps = _insert(d.components, [(site, pair)])
    return GaussDiagram(comps, d.signs + [sign], d.component_roles)


def undo_r1(d, chord):
    """Remove a kink: the chord's endpoints must be adjacent slots."""
    if not 0 <= chord < len(d.signs):
        raise BadIndex("no chord %d" % chord)
    spots = [(ci, pos) for ci, comp in enumerate(d.components)
             for pos, (c, _) in enumerate(comp) if c == chord]
    (c1, p1), (c2, p2) = spots
    if c1 != c2:
        raise NotApplicable("chord %d spans two components" % chord)
    length = len(d.components[c1])
    if (p1 + 1) % length != p2 and (p2 + 1) % length != p1:
        raise NotApplicable("chord %d endpoints are not adjacent" % chord)
    return _remove_chords(d, {chord})


def apply_r2(d, site_a, site_b):
    """Insert a cancelling pair of chords: both O endpoints at gap site_a (in
    id order), both U endpoints at gap site_b, signs +1 then -1."""
    n = len(d.signs)
    c1, c2 = n, n + 1
    jobs = [(site_a, [(c1, OVER), (c2, OVER)]),
            (site_b, [(c1, UNDER), (c2, UNDER)])]
    comps = _insert(d.components, jobs)
    return GaussDiagram(comps, d.signs + [1, -1], d.component_roles)


def undo_r2(d, chord_a, chord_b):
    """Remove a cancelling pair.  Valid iff the two O endpoints are adjacent
    at one site, the two U endpoints adjacent at the other (either order at
    each site), and the signs are opposite."""
    if chord_a == chord_b:
        raise NotApplicable("need two distinct chords")
    for c in (chord_a, chord_b):
        if not 0 <= c < len(d.signs):
            raise BadIndex("no chord %d" % c)
    if d.signs[chord_a] + d.signs[chord_b] != 0:
        raise NotApplicable("signs must cancel")
    pair = {chord_a, chord_b}
    sites = {OVER: [], UNDER: []}
    for ci, comp in enumerate(d.components):
        for pos, (c, role) in enumerate(comp):
            if c in pair:
                sites[role].append((ci, pos))
    for role in (OVER, UNDER):
        (c1, p1), (c2, p2) = sorted(sites[role])
        if c1 != c2:
            raise NotApplicable("the two %s endpoints sit on different components" % role)
        length = len(d.components[c1])
        if (p1 + 1) % length != p2 and (p2 + 1) % length != p1:
            raise NotApplicable("the two %s endpoints are not adjacent" % role)
    return _remove_chords(d, pair)


def _triangle_geometry(d, triangle):
    """Shared validation for the triangle move.  `triangle` is either three
    chord ids or three explicit (component, pos, pos+1-mod-L) slot pairs; the
    explicit form disambiguates the rare case where four triangle endpoints
    sit consecutively around a circle.  Returns (pairs, strand_chords) where
    pairs[i] = (ci, p, q) is the i-th adjacent slot pair and strand_chords[i]
    the two (chord, role) slots in walk order."""
    triangle = list(triangle)
    if len(triangle) != 3:
        raise NotApplicable("need three chords")
    if all(isinstance(x, tuple) for x in triangle):
        pairs = []
        for (ci, p, q) in triangle:
            if not 0 <= ci < len(d.components):
                raise BadIndex("no component %d" % ci)
            length = len(d.components[ci])
            if not (0 <= p < length and 0 <= q < length):
                raise BadIndex("slot out of range on component %d" % ci)
            if (p + 1) % length != q:
                raise NotApplicable("slots %d,%d are not adjacent in order" % (p, q))
            pairs.append((ci, p, q))
        seen = set()
        for (ci, p, q) in pairs:
            if (ci, p) in seen or (ci, q) in seen:
                raise NotApplicable("slot pairs overlap")
            seen.add((ci, p))
            seen.add((ci, q))
    else:
        tri = set(triangle)
        if len(tri) != 3:
            raise NotApplicable("need three distinct chords")
        for c in tri:
            if not 0 <= c < len(d.signs):
                raise BadIndex("no chord %d" % c)
        pairs = []
        for ci, comp in enumerate(d.components):
            length = len(comp)
            pos_tri = [p for p in range(length) if comp[p][0] in tri]
            used = set()
            for p in pos_tri:
                q = (p + 1) % length
                if comp[q][0] in tri and p not in used and q not in used:
                    pairs.append((ci, p, q))
                    used.add(p)
                    used.add(q)
            if len(used) != len(pos_tri):
                raise NotApplicable("triangle endpoints do not pair up into "
                                    "adjacent slots")
    if len(pairs) != 3:
        raise NotApplicable("expected 3 adjacent endpoint pairs, found %d"
                            % len(pairs))
    strand_chords = []
    for (ci, p, q) in pairs:
        a, b = d.components[ci][p], d.components[ci][q]
        if a[0] == b[0]:
            raise NotApplicable("chord %d meets itself across a pair" % a[0])
        strand_chords.append((a, b))
    return pairs, strand_chords


def _triangle_heights(strand_chords, signs):
    """Height order and sign rule for the triangle move; raises NotApplicable
    when the configuration is not slide-able."""
    chord_strands = {}
    for si, (a, b) in enumerate(strand_chords):
        for (c, role) in (a, b):
            chord_strands.setdefault(c, []).append((si, role))
    if any(len(v) != 2 for v in chord_strands.values()):
        raise NotApplicable("each chord must touch two of the three strands")
    edges = {}
    for c, ends in chord_strands.items():
        (s1, r1), (s2, r2) = ends
        if s1 == s2 or {r1, r2} != {OVER, UNDER}:
            raise NotApplicable("chord %d does not join two strands" % c)
        key = frozenset((s1, s2))
        if key in edges:
            raise NotApplicable("two chords join the same strand pair")
        above, below = (s1, s2) if r1 == OVER else (s2, s1)
        edges[key] = (c, above, below)
    if len(edges) != 3:
        raise NotApplicable("the three chords must pairwise join the strands")
    wins = {0: 0, 1: 0, 2: 0}
    for (_, above, _) in edges.values():
        wins[above] += 1
    if sorted(wins.values()) != [0, 1, 2]:
        raise NotApplicable("over/under roles are cyclic; no strand is on top")
    top = next(s for s, w in wins.items() if w == 2)
    mid = next(s for s, w in wins.items() if w == 1)
    bot = next(s for s, w in wins.items() if w == 0)
    c_tm = edges[frozenset((top, mid))][0]
    c_tb = edges[frozenset((top, bot))][0]
    c_mb = edges[frozenset((mid, bot))][0]

    def first_chord(strand):
        return strand_chords[strand][0][0]

    bit_t = first_chord(top) == c_tm
    bit_m = first_chord(mid) == c_tm
    bit_b = first_chord(bot) == c_tb
    if (signs[c_tm] * signs[c_tb] == 1) != (bit_m == bit_b):
        raise NotApplicable("sign pattern does not match the slide (top pair)")
    if (signs[c_tb] * signs[c_mb] == 1) != (bit_t == bit_m):
        raise NotApplicable("sign pattern does not match the slide (bottom pair)")


def apply_r3(d, triangle):
    """Slide move on three chords.  Their six endpoints must form three
    adjacent slot pairs, one per strand, the over/under roles must order the
    three strands top/middle/bottom, and the signs must satisfy the parity
    rule frozen from invariance fuzzing (see tests).  The move transposes
    each adjacent pair and is its own inverse."""
    pairs, strand_chords = _triangle_geometry(d, triangle)
    _triangle_heights(strand_chords, d.signs)
    comps = [list(c) for c in d.components]
    for (ci, p, q) in pairs:
        comps[ci][p], comps[ci][q] = comps[ci][q], comps[ci][p]
    return GaussDiagram(comps, d.signs, d.component_roles)
