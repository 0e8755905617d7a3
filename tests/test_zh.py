import random

import pytest

from vkalex import alexander, gauss, groups
from vkalex.laurent import canonicalize, MONOMIAL_SIGN, ONE, S, T
from vkalex.zh import AlreadyHasOmega, ZhDiagram, delete_omega, zh
from _util import TABLE1, CLASSICAL_TREFOIL, KINK, random_knot, random_link


def test_zh_of_unknot():
    d = gauss.to_diagram(gauss.parse_gauss_code(""))
    z = zh(d)
    assert len(z.diagram.components) == 2
    assert z.diagram.crossings == 0
    assert z.omega_index == 1
    assert z.diagram.components[1] == []
    assert z.diagram.component_roles == [gauss.REGULAR, gauss.OMEGA]


def test_zh_structure():
    for code in TABLE1.values():
        d = gauss.to_diagram(gauss.parse_gauss_code(code))
        z = zh(d)
        n = d.crossings
        assert z.diagram.crossings == 3 * n
        assert len(z.diagram.components) == len(d.components) + 1
        assert z.omega_index == len(z.diagram.components) - 1
        assert z.diagram.component_roles[-1] == gauss.OMEGA
        # the omega circle carries one O endpoint per new chord
        omega = z.diagram.components[z.omega_index]
        assert len(omega) == 2 * n
        assert all(role == gauss.OVER for (_, role) in omega)
        # every new chord pairs with the original of the same crossing:
        # near-head keeps the sign, near-foot flips it
        for c in range(n):
            assert z.diagram.signs[n + 2 * c] == d.signs[c]
            assert z.diagram.signs[n + 2 * c + 1] == -d.signs[c]


def test_zh_round_trip():
    for code in TABLE1.values():
        d = gauss.to_diagram(gauss.parse_gauss_code(code))
        assert delete_omega(zh(d)) == d
    rng = random.Random(41)
    for _ in range(25):
        d = random_knot(rng, rng.randint(1, 5))
        assert delete_omega(zh(d)) == d
    for _ in range(10):
        d = random_link(rng, rng.randint(1, 4), rng.randint(2, 3))
        assert delete_omega(zh(d)) == d


def test_zh_kink():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    z = zh(d)
    code = gauss.to_code(z.diagram)
    assert str(code) == "O1+U2+U3-U1+,O2+O3-"


def test_zh_refuses_second_omega():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    z = zh(d)
    with pytest.raises(AlreadyHasOmega):
        zh(z.diagram)


def test_zh_diagram_validates_role():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    with pytest.raises(ValueError):
        ZhDiagram(d, 0)  # component 0 is not tagged omega


def test_head_role_calibration():
    """Which endpoint of a chord counts as its head decides where the new
    chords land.  The head = O choice is pinned by a worked example: the
    first elementary ideal of the extension's group, with omega generators
    sent to s and t lifted to st, recovers the determinant polynomial of the
    4-crossing knot after multiplying by (1 - s).  The head = U alternative
    breaks the identity on the same input."""
    from vkalex.zh import HEAD_ROLE
    assert HEAD_ROLE == "O"
    d = gauss.to_diagram(gauss.parse_gauss_code(TABLE1["4.12"]))
    target = alexander.delta0(d).canonical
    results = {}
    for head in ("O", "U"):
        p = groups.wirtinger(zh(d, head_role=head).diagram)
        alpha = groups.Abelianization.standard(p)
        g = groups.elementary_ideals(p, alpha, 1)[1].gcd_generator
        lifted = (ONE - S) * g.substitute(S, S * T)
        results[head] = canonicalize(lifted, MONOMIAL_SIGN) == target
    assert results["O"]
    assert not results["U"]


def test_zh_delta0_vanishes_on_extension_of_classical():
    # the extension of a classical knot splits off an unknotted circle,
    # and the determinant polynomial of the extension still vanishes
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    z = zh(d)
    assert alexander.delta0(z.diagram).is_zero
