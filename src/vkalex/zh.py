"""The omega-extension of a Gauss diagram: add one extra component that
crosses over both strands of every classical crossing.

For each original chord c, two new chords are added.  Their under endpoints
land on the original circles, flanking c: one immediately after c's head,
one immediately before c's foot.  Their over endpoints all sit on the new
omega circle, in the traversal order of the flanking endpoints.  The chord
near the head inherits the sign of c; the one near the foot gets the
opposite sign, so the added chords contribute zero net writhe.  A chord's
head is its over endpoint and its foot the under one: the other choice
breaks the identity delta0 = (1 - t) gcd(E_1)(t, st), and tests/test_zh.py
builds that choice from this one to check so.

Deleting the omega component and its chords gives back the original
diagram; the tests check that, and the library has no deletion of its own.
"""

from . import gauss


class AlreadyHasOmega(ValueError):
    """The input diagram already carries an omega component."""


class ZhDiagram:
    """A GaussDiagram plus the index of its omega component (always last)."""

    def __init__(self, diagram, omega_index):
        if diagram.component_roles[omega_index] != gauss.OMEGA:
            raise ValueError("component %d is not tagged omega" % omega_index)
        self.diagram = diagram
        self.omega_index = omega_index

    def __eq__(self, other):
        if not isinstance(other, ZhDiagram):
            return NotImplemented
        return (self.diagram, self.omega_index) == (other.diagram, other.omega_index)

    def __repr__(self):
        return "ZhDiagram(%r, omega=%d)" % (gauss.to_code(self.diagram),
                                            self.omega_index)


def zh(d):
    """Build the omega-extension.  Input components must all be regular."""
    if any(role == gauss.OMEGA for role in d.component_roles):
        raise AlreadyHasOmega("diagram already has an omega component")
    n = len(d.signs)
    signs = list(d.signs)
    for e in d.signs:
        signs += [e, -e]
    comps = []
    for comp in d.components:
        out = []
        for (c, role) in comp:
            if role == gauss.OVER:      # the head: n + 2c follows it
                out += [(c, role), (n + 2 * c, gauss.UNDER)]
            else:                       # the foot: n + 2c + 1 precedes it
                out += [(n + 2 * c + 1, gauss.UNDER), (c, role)]
        comps.append(out)
    comps.append([(c, gauss.OVER) for comp in comps for (c, _) in comp
                  if c >= n])
    roles = list(d.component_roles) + [gauss.OMEGA]
    return ZhDiagram(gauss.GaussDiagram(comps, signs, roles), len(comps) - 1)
