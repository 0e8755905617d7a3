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

The omega circle is a position, not a mark: zh returns its index with
the diagram, which is circles and chords like any other.  Deleting the
omega component and its chords gives back the original diagram; the
tests check that, and the library has no deletion of its own.
"""

from collections import namedtuple

from . import gauss

ZhDiagram = namedtuple("ZhDiagram", "diagram omega_index")


def zh(d):
    """Build the omega-extension: a ZhDiagram whose omega circle, at
    omega_index, comes after every circle of d."""
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
    return ZhDiagram(gauss.GaussDiagram(comps, signs), len(comps) - 1)
