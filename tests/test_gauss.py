import random

import pytest

from vkalex import gauss
from _util import (
    TABLE1, CLASSICAL_TREFOIL, NoCrossings, _arc_offset, delete_component,
    random_knot, random_link, relabeled, rotated, short_arcs,
    under_first_successor,
)


def test_parse_trefoil():
    components = gauss.parse_gauss_code(CLASSICAL_TREFOIL)
    assert len(components) == 1
    assert components[0][0] == ("O", "1", 1)
    assert components[0][1] == ("U", "2", 1)
    assert gauss.to_code(gauss.to_diagram(components)) == CLASSICAL_TREFOIL


def test_parse_whitespace_and_empty():
    assert gauss.parse_gauss_code(" O1+ U1+ ") == gauss.parse_gauss_code("O1+U1+")
    assert gauss.parse_gauss_code("") == [[]]
    assert gauss.parse_gauss_code(",") == [[], []]
    mixed = gauss.parse_gauss_code("O1+U1+,")
    assert len(mixed) == 2
    assert mixed[1] == []


def test_parse_syntax_errors():
    for bad in ("O1", "X1+", "O1+U1", "1+O1+", "O+", "o1+u1+"):
        with pytest.raises(gauss.GaussSyntaxError):
            gauss.parse_gauss_code(bad)


def test_parse_validation_errors():
    with pytest.raises(gauss.GaussValidationError):
        gauss.parse_gauss_code("O1+")  # missing under passage
    with pytest.raises(gauss.GaussValidationError):
        gauss.parse_gauss_code("O1+U1-")  # sign mismatch
    with pytest.raises(gauss.GaussValidationError):
        gauss.parse_gauss_code("O1+O1+U1+")  # label seen three times
    with pytest.raises(gauss.GaussValidationError):
        gauss.parse_gauss_code("O1+U2+,U1+O2+,O3+")


def test_code_string_round_trip():
    # table 1 labels its chords in first-appearance order, as to_code does
    for code_str in TABLE1.values():
        components = gauss.parse_gauss_code(code_str)
        assert gauss.to_code(gauss.to_diagram(components)) == code_str


def test_diagram_round_trip():
    for code_str in TABLE1.values():
        d = gauss.to_diagram(gauss.parse_gauss_code(code_str))
        assert gauss.to_diagram(gauss.parse_gauss_code(gauss.to_code(d))) == d
    # readback renames by first appearance
    shifted = gauss.parse_gauss_code("O7+U9+O8+U7+O9+U8+")
    d = gauss.to_diagram(shifted)
    assert gauss.to_code(d) == CLASSICAL_TREFOIL


def test_diagram_validation():
    with pytest.raises(ValueError):
        gauss.GaussDiagram([[(0, "O"), (0, "O")]], [1])
    with pytest.raises(ValueError):
        gauss.GaussDiagram([[(1, "O"), (1, "U")]], [1])  # ids not dense


def test_diagram_rejects_signs_other_than_plus_minus_one():
    # a sign of 2 used to pass and then fail inside delta0 with a KeyError
    comps = [[(0, "O"), (1, "U"), (0, "U"), (1, "O")]]
    for signs in ([2, 0], [1, 0], [1, -2]):
        with pytest.raises(ValueError):
            gauss.GaussDiagram(comps, signs)
    assert gauss.GaussDiagram(comps, [1, -1]).signs == [1, -1]


def test_multi_component_diagram():
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+U2+,U1+O2+"))
    assert len(d.components) == 2
    assert d.crossings == 2
    # chord 0 runs over on component 0 and under on 1, chord 1 the reverse
    assert d.components == [[(0, "O"), (1, "U")], [(0, "U"), (1, "O")]]
    assert d.signs == [1, 1]


def test_rotated():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    r = rotated(d, 0, 2)
    assert r.components[0] == d.components[0][2:] + d.components[0][:2]
    assert rotated(d, 0, 6) == d
    assert rotated(d, 0, 0) == d
    with pytest.raises(gauss.BadIndex):
        rotated(d, 1, 1)


def test_relabeled():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    assert relabeled(d, [0, 1, 2]) == d
    perm = [2, 0, 1]
    r = relabeled(d, perm)
    assert r.signs == d.signs  # all positive here
    inverse = [perm.index(i) for i in range(3)]
    assert relabeled(r, inverse) == d
    with pytest.raises(ValueError):
        relabeled(d, [0, 0, 1])


def test_delete_component():
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+U2+,U1+O2+,O3-U3-"))
    kept = delete_component(d, 0)
    assert len(kept.components) == 2
    assert kept.crossings == 1
    assert gauss.to_code(kept) == ",O1-U1-"
    with pytest.raises(gauss.BadIndex):
        delete_component(d, 3)


def test_short_arcs_successor_is_permutation():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(1, 6)
        d = random_knot(rng, n) if trial % 2 else random_link(rng, n, rng.randint(1, 3))
        succ = short_arcs(d)
        assert sorted(succ) == list(range(2 * n))
        # one cycle per component that carries chord endpoints, length = slots
        seen = set()
        cycles = []
        for a in range(2 * n):
            if a in seen:
                continue
            size = 0
            b = a
            while b not in seen:
                seen.add(b)
                size += 1
                b = succ[b]
            cycles.append(size)
        sizes = sorted(len(c) for c in d.components if c)
        assert sorted(cycles) == sizes


def test_short_arcs_end_slots():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    succ = short_arcs(d)
    # the arc incoming at a slot of chord c is 2c + offset, so it ends there
    end_slot = {2 * c + _arc_offset(role, d.signs[c]): (ci, pos)
                for ci, comp in enumerate(d.components)
                for pos, (c, role) in enumerate(comp)}
    # every slot is the end of exactly one arc
    slots = sorted(end_slot.values())
    assert slots == [(0, p) for p in range(6)]
    # successor of the arc ending at slot p ends at slot p+1
    for a, (ci, pos) in end_slot.items():
        nxt = succ[a]
        assert end_slot[nxt] == (ci, (pos + 1) % 6)


def test_short_arcs_convention_matters():
    d = gauss.to_diagram(gauss.parse_gauss_code(TABLE1["4.12"]))
    assert short_arcs(d) != under_first_successor(d)


def test_short_arcs_no_crossings():
    with pytest.raises(NoCrossings):
        short_arcs(gauss.to_diagram(gauss.parse_gauss_code("")))
