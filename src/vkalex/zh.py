"""The omega-extension of a Gauss diagram: add one extra component that
crosses over both strands of every classical crossing.

For each original chord c, two new chords are added.  Their under endpoints
land on the original circles, flanking c: one immediately after c's head,
one immediately before c's foot.  Their over endpoints all sit on the new
omega circle, in the traversal order of the flanking endpoints.  The chord
near the head inherits the sign of c; the one near the foot gets the
opposite sign, so the added chords contribute zero net writhe.

Deleting the omega component and its chords gives back the original
diagram; the tests check that, and the library has no deletion of its own.
"""

from . import gauss


class AlreadyHasOmega(ValueError):
    """The input diagram already carries an omega component."""


# Which endpoint of a chord counts as its head: the over endpoint ("O") or
# the under endpoint ("U").  Calibrated against the reduced-group cross-check
# on the worked 4-crossing example; see tests/test_zh.py.  Flip only to
# recalibrate.
HEAD_ROLE = "O"


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
        return "ZhDiagram(%r, omega=%d)" % (str(gauss.to_code(self.diagram)),
                                            self.omega_index)


def zh(d, head_role=None):
    """Build the omega-extension.  Input components must all be regular."""
    if any(role == gauss.OMEGA for role in d.component_roles):
        raise AlreadyHasOmega("diagram already has an omega component")
    if head_role is None:
        head_role = HEAD_ROLE
    if head_role not in (gauss.OVER, gauss.UNDER):
        raise ValueError("head_role must be 'O' or 'U'")
    n = len(d.signs)
    signs = list(d.signs)
    near_head = {}
    near_foot = {}
    nid = n
    for c in range(n):
        near_head[c] = nid
        signs.append(d.signs[c])
        nid += 1
        near_foot[c] = nid
        signs.append(-d.signs[c])
        nid += 1
    comps = []
    for comp in d.components:
        out = []
        for (c, role) in comp:
            if role == head_role:
                out.append((c, role))
                out.append((near_head[c], gauss.UNDER))
            else:
                out.append((near_foot[c], gauss.UNDER))
                out.append((c, role))
        comps.append(out)
    omega = []
    for comp in comps:
        for (c, role) in comp:
            if c >= n and role == gauss.UNDER:
                omega.append((c, gauss.OVER))
    comps.append(omega)
    roles = list(d.component_roles) + [gauss.OMEGA]
    return ZhDiagram(gauss.GaussDiagram(comps, signs, roles), len(comps) - 1)
