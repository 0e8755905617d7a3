import itertools
import random

import pytest

from vkalex import alexander, gauss, groups
from vkalex.laurent import MONOMIAL_SIGN, canonicalize
from _util import (
    TABLE1, CLASSICAL_TREFOIL, NotApplicable, _insert, apply_r1, apply_r2,
    apply_r3, random_knot, random_link, rotated, table1_diagram, undo_r1,
    undo_r2, diagram_data,
)

# one circle, three chords, pairwise adjacent endpoint pairs, heights
# top > mid > bot: a valid triangle-move site
R3_HOST = "O1+O2+U1+O3+U2+U3+"


def _delta(d):
    return canonicalize(alexander.delta0(d), MONOMIAL_SIGN)


def test_r1_insert_then_undo():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    for kind in ("over-first", "under-first"):
        for sign in (1, -1):
            for pos in range(7):
                up = apply_r1(d, (0, pos), sign, kind)
                assert up.crossings == 4
                assert up.signs[-1] == sign
                assert diagram_data(undo_r1(up, 3)) == diagram_data(d)


def test_r1_preserves_delta0():
    d = gauss.to_diagram(gauss.parse_gauss_code(TABLE1["4.12"]))
    base = _delta(d)
    for kind in ("over-first", "under-first"):
        for sign in (1, -1):
            up = apply_r1(d, (0, 3), sign, kind)
            assert _delta(up) == base


def test_r1_errors():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    with pytest.raises(gauss.BadIndex):
        apply_r1(d, (1, 0), 1)
    with pytest.raises(gauss.BadIndex):
        apply_r1(d, (0, 9), 1)
    with pytest.raises(NotApplicable):
        apply_r1(d, (0, 0), 2)
    with pytest.raises(NotApplicable):
        apply_r1(d, (0, 0), 1, kind="sideways")
    # chord 0 endpoints are not adjacent in the trefoil
    with pytest.raises(NotApplicable):
        undo_r1(d, 0)
    with pytest.raises(gauss.BadIndex):
        undo_r1(d, 7)


def test_r1_wraparound_kink():
    # U first at the end of the walk, O at the start: still adjacent
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+U2+U1+O2+"))
    k = apply_r1(d, (0, 4), -1)
    assert diagram_data(undo_r1(k, 2)) == diagram_data(d)
    rot = rotated(k, 0, 5)  # kink chord now wraps the basepoint
    assert undo_r1(rot, 2).crossings == 2


def test_r2_insert_then_undo():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    up = apply_r2(d, (0, 1), (0, 4))
    assert up.crossings == 5
    assert up.signs[3:] == [1, -1]
    assert diagram_data(undo_r2(up, 3, 4)) == diagram_data(d)
    assert diagram_data(undo_r2(up, 4, 3)) == diagram_data(d)


def test_r2_across_components():
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+U2+,U1+O2+"))
    up = apply_r2(d, (0, 0), (1, 2))
    assert up.crossings == 4
    assert diagram_data(undo_r2(up, 2, 3)) == diagram_data(d)


def test_r2_preserves_delta0():
    d = gauss.to_diagram(gauss.parse_gauss_code(TABLE1["5.93"]))
    base = _delta(d)
    up = apply_r2(d, (0, 2), (0, 7))
    assert _delta(up) == base
    nested = apply_r2(up, (0, 0), (0, 13))
    assert _delta(nested) == base


def test_undo_r2_accepts_any_endpoint_order():
    # all four O/U orderings at the two sites are cancelling pairs
    for o_order in ((0, 1), (1, 0)):
        for u_order in ((0, 1), (1, 0)):
            comp = [(o_order[0], "O"), (o_order[1], "O"),
                    (u_order[0], "U"), (u_order[1], "U")]
            d = gauss.GaussDiagram([comp], [1, -1])
            undone = undo_r2(d, 0, 1)
            assert undone.crossings == 0


def test_undo_r2_rejections():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    with pytest.raises(NotApplicable):
        undo_r2(d, 0, 0)
    with pytest.raises(NotApplicable):
        undo_r2(d, 0, 1)  # same signs
    # opposite signs but endpoints not adjacent
    d2 = gauss.to_diagram(gauss.parse_gauss_code("O1+U2-O3+U1+O2-U3+"))
    with pytest.raises(NotApplicable):
        undo_r2(d2, 0, 1)
    # O endpoints adjacent, U endpoints adjacent, but signs equal
    comp = [(0, "O"), (1, "O"), (0, "U"), (1, "U")]
    d3 = gauss.GaussDiagram([comp], [1, 1])
    with pytest.raises(NotApplicable):
        undo_r2(d3, 0, 1)


def test_r3_triple_and_chord_forms_agree():
    d = gauss.to_diagram(gauss.parse_gauss_code(R3_HOST))
    by_ids = apply_r3(d, (0, 1, 2))
    by_slots = apply_r3(d, ((0, 0, 1), (0, 2, 3), (0, 4, 5)))
    assert diagram_data(by_ids) == diagram_data(by_slots)
    assert diagram_data(by_ids) != diagram_data(d)


def test_r3_is_self_inverse():
    d = gauss.to_diagram(gauss.parse_gauss_code(R3_HOST))
    once = apply_r3(d, (0, 1, 2))
    twice = apply_r3(once, (0, 1, 2))
    assert diagram_data(twice) == diagram_data(d)


def test_r3_preserves_delta0():
    d = gauss.to_diagram(gauss.parse_gauss_code(R3_HOST))
    assert _delta(apply_r3(d, (0, 1, 2))) == _delta(d)


def test_r3_rejects_cyclic_heights():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    with pytest.raises(NotApplicable):
        apply_r3(d, (0, 1, 2))


def test_r3_rejects_wrong_signs():
    # flip the sign of the mid-bot chord only: parity rule fails
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+O2+U1+O3-U2+U3-"))
    with pytest.raises(NotApplicable):
        apply_r3(d, (0, 1, 2))


def test_r3_rejects_non_adjacent():
    d = gauss.to_diagram(gauss.parse_gauss_code(TABLE1["4.12"]))
    with pytest.raises(NotApplicable):
        apply_r3(d, (0, 1, 2))


def test_moves_keep_diagrams_valid():
    rng = random.Random(5)
    for _ in range(25):
        d = random_knot(rng, rng.randint(1, 5))
        length = len(d.components[0])
        up = apply_r1(d, (0, rng.randint(0, length)), rng.choice((1, -1)))
        up._check()
        a = rng.randint(0, length)
        b = rng.randint(0, length)
        up2 = apply_r2(d, (0, a), (0, b))
        up2._check()


# ---------------------------------------------------------------------------
# an independent check: the move patterns were frozen by fuzzing on delta0,
# but the elementary ideals are invariants of the group (Fox, Free
# differential calculus II, 1954), which no pattern was chosen by

def _group_ideals(d):
    """gcds of E_0 - E_2 of the diagram's group and of E_0 - E_1 of its Zh
    group, up to units."""
    out = []
    for p, k_max in ((groups.wirtinger(d), 2), (groups.reduced_group(d), 1)):
        ideals = groups.elementary_ideals(groups.alexander_matrix(p), k_max)
        out += [canonicalize(g, MONOMIAL_SIGN) for g, _ in ideals]
    return out


def _triangle_host(d, bits, signs, gaps):
    """d plus three chords x, y, z joining the top and middle, top and
    bottom, middle and bottom strands of a triangle, with signs `signs`.
    Strand i is an adjacent slot pair inserted at gap gaps[i] of component
    0, and bits[i] says whether it meets x first (y on the bottom
    strand)."""
    n = len(d.signs)
    x, y, z = n, n + 1, n + 2
    strands = ([(x, gauss.OVER), (y, gauss.OVER)],
               [(x, gauss.UNDER), (z, gauss.OVER)],
               [(y, gauss.UNDER), (z, gauss.UNDER)])
    jobs = [((0, gap), strand if first else strand[::-1])
            for gap, strand, first in zip(gaps, strands, bits)]
    return gauss.GaussDiagram(_insert(d.components, jobs),
                              d.signs + list(signs))


def _r3_moves(d):
    """Every diagram apply_r3 reaches from d, one per accepted triple."""
    for tri in itertools.combinations(range(len(d.signs)), 3):
        try:
            yield apply_r3(d, tri)
        except NotApplicable:
            pass


def _random_gap(rng, d, ci):
    return (ci, rng.randint(0, len(d.components[ci])))


def test_moves_preserve_group_ideals():
    rng = random.Random(12)
    counts = {"r1": 0, "r2": 0, "r2 across": 0, "r3": 0, "r3 walk": 0}
    hosts = [table1_diagram(name) for name in TABLE1]
    hosts += [random_link(rng, rng.randint(2, 4), rng.randint(2, 3))
              for _ in range(4)]
    # R1 of both kinds and both signs, R2 within and across components
    for d in hosts:
        base = _group_ideals(d)
        for kind in ("over-first", "under-first"):
            for sign in (1, -1):
                ci = rng.randrange(len(d.components))
                up = apply_r1(d, _random_gap(rng, d, ci), sign, kind)
                assert _group_ideals(up) == base, (d, up)
                counts["r1"] += 1
        for shift in (0, 0, 1, 1):
            ci = rng.randrange(len(d.components))
            cj = (ci + shift) % len(d.components)
            up = apply_r2(d, _random_gap(rng, d, ci), _random_gap(rng, d, cj))
            assert _group_ideals(up) == base, (d, up)
            counts["r2 across" if ci != cj else "r2"] += 1
    # R3 on every order of the strand pairs and every sign pattern; those
    # apply_r3 accepts must keep the ideals
    accepted = {}
    for bits in itertools.product((True, False), repeat=3):
        for signs in itertools.product((1, -1), repeat=3):
            d = rng.choice(hosts[:len(TABLE1)])
            gaps = rng.sample(range(len(d.components[0])), 3)
            host = _triangle_host(d, bits, signs, gaps)
            n = len(d.signs)
            try:
                moved = apply_r3(host, (n, n + 1, n + 2))
            except NotApplicable:
                continue
            assert _group_ideals(moved) == _group_ideals(host), (host, moved)
            accepted.setdefault(bits, []).append(signs)
            counts["r3"] += 1
    # each strand order admits a sign pattern and its mirror
    assert len(accepted) == 8
    assert all(len(v) >= 2 for v in accepted.values())
    # a short walk of R1 and R2 moves that mostly takes an R3 where one
    # applies
    for name in TABLE1:
        d = table1_diagram(name)
        base = _group_ideals(d)
        for _ in range(6):
            moves = list(_r3_moves(d))
            if moves and rng.random() < 0.7:
                d = rng.choice(moves)
                counts["r3 walk"] += 1
            elif rng.random() < 0.5:
                d = apply_r1(d, _random_gap(rng, d, 0), rng.choice((1, -1)),
                             rng.choice(("over-first", "under-first")))
            else:
                d = apply_r2(d, _random_gap(rng, d, 0), _random_gap(rng, d, 0))
            assert _group_ideals(d) == base, (name, d)
    assert counts["r1"] >= 50
    assert counts["r2"] + counts["r2 across"] >= 25
    assert counts["r2 across"] >= 5
    assert counts["r3"] >= 16 and counts["r3 walk"] >= 5, counts
