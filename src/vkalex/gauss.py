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
role 'O' or 'U', plus a sign per chord.  Chord ids are dense 0..n-1.  The
Reidemeister rewrites are not in the library: the tests keep them, to check
that the invariants do not change under moves.
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


def _remove_chords(d, doomed):
    keep = [c for c in range(len(d.signs)) if c not in doomed]
    newid = {c: i for i, c in enumerate(keep)}
    comps = [[(newid[c], role) for (c, role) in comp if c not in doomed]
             for comp in d.components]
    return GaussDiagram(comps, [d.signs[c] for c in keep], d.component_roles)


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
