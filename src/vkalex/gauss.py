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
role 'O' or 'U', plus a sign (+1 or -1) per chord.  Chord ids are dense
0..n-1.  A diagram is circles and chords only and gives no circle a part
to play; a construction that adds a circle says which one it is.
Rotating a basepoint, relabelling chords, deleting a component and the
Reidemeister rewrites are not in the library: no command runs them, and
the tests keep them, to check that the invariants do not change under them.
"""

import re


class GaussSyntaxError(ValueError):
    """Malformed token stream."""


class GaussValidationError(ValueError):
    """Token stream parses but violates the pairing rules."""


class BadIndex(IndexError):
    """Component or slot index out of range."""


OVER = "O"
UNDER = "U"

_TOKEN = re.compile(r"([OU])(\d+)([+-])")


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
    """Parse and validate a Gauss code into its components, lists of tokens
    (passage, label, sign).  The empty string is the 0-crossing unknot,
    [[]].  Raises GaussSyntaxError / GaussValidationError."""
    stripped = "".join(text.split())
    if stripped == "":
        return [[]]
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
    _validate(components)
    return components


class GaussDiagram:
    """Chord diagram of a virtual link.

    components: list of slot lists, slot = (chord_id, 'O'|'U')
    signs: list of +-1, indexed by chord id
    """

    def __init__(self, components, signs):
        self.components = [list(c) for c in components]
        self.signs = list(signs)
        self._check()

    def _check(self):
        ends = {}
        for comp in self.components:
            for (c, role) in comp:
                ends.setdefault(c, []).append(role)
        n = len(self.signs)
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("chord signs must be +1 or -1")
        if sorted(ends) != list(range(n)):
            raise ValueError("chord ids must be dense 0..n-1")
        for c, roles in ends.items():
            if sorted(roles) != [OVER, UNDER]:
                raise ValueError("chord %d needs exactly one O and one U endpoint" % c)

    # ------------------------------------------------------------- views
    @property
    def crossings(self):
        return len(self.signs)


def to_diagram(components):
    """Parsed components -> GaussDiagram with chord ids in first-appearance
    order."""
    ids = {}
    signs = {}
    comps = []
    for comp in components:
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
    """Readback: walk each circle from its basepoint and emit the Gauss code.
    Labels are 1-based in first-appearance order of the walk."""
    labels = {}
    comps = []
    for comp in d.components:
        toks = []
        for (c, role) in comp:
            if c not in labels:
                labels[c] = len(labels) + 1
            toks.append("%s%d%s" % (role, labels[c],
                                    "+" if d.signs[c] > 0 else "-"))
        comps.append("".join(toks))
    return ",".join(comps)
