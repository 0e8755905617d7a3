import random

import pytest

from vkalex import gauss
from _util import TABLE1, CLASSICAL_TREFOIL, random_knot, random_link


def test_parse_trefoil():
    code = gauss.parse_gauss_code(CLASSICAL_TREFOIL)
    assert len(code.components) == 1
    assert code.components[0][0] == ("O", "1", 1)
    assert code.components[0][1] == ("U", "2", 1)
    assert str(code) == CLASSICAL_TREFOIL


def test_parse_whitespace_and_empty():
    assert gauss.parse_gauss_code(" O1+ U1+ ") == gauss.parse_gauss_code("O1+U1+")
    unknot = gauss.parse_gauss_code("")
    assert unknot.components == [[]]
    two = gauss.parse_gauss_code(",")
    assert two.components == [[], []]
    mixed = gauss.parse_gauss_code("O1+U1+,")
    assert len(mixed.components) == 2
    assert mixed.components[1] == []


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
    for code_str in TABLE1.values():
        code = gauss.parse_gauss_code(code_str)
        assert gauss.parse_gauss_code(str(code)) == code


def test_diagram_round_trip():
    for code_str in TABLE1.values():
        code = gauss.parse_gauss_code(code_str)
        d = gauss.to_diagram(code)
        assert gauss.to_code(d) == code
    # readback renames by first appearance
    shifted = gauss.parse_gauss_code("O7+U9+O8+U7+O9+U8+")
    d = gauss.to_diagram(shifted)
    assert str(gauss.to_code(d)) == CLASSICAL_TREFOIL


def test_diagram_validation():
    with pytest.raises(ValueError):
        gauss.GaussDiagram([[(0, "O"), (0, "O")]], [1])
    with pytest.raises(ValueError):
        gauss.GaussDiagram([[(1, "O"), (1, "U")]], [1])  # ids not dense
    with pytest.raises(ValueError):
        gauss.GaussDiagram([[(0, "O"), (0, "U")]], [1], ["regular", "omega"])


def test_multi_component_diagram():
    code = gauss.parse_gauss_code("O1+U2+,U1+O2+")
    d = gauss.to_diagram(code)
    assert len(d.components) == 2
    assert d.crossings == 2
    # chord 0 runs over on component 0 and under on 1, chord 1 the reverse
    assert d.components == [[(0, "O"), (1, "U")], [(0, "U"), (1, "O")]]
    assert d.signs == [1, 1]


def test_rotated():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    r = d.rotated(0, 2)
    assert r.components[0] == d.components[0][2:] + d.components[0][:2]
    assert d.rotated(0, 6) == d
    assert d.rotated(0, 0) == d
    with pytest.raises(gauss.BadIndex):
        d.rotated(1, 1)


def test_relabeled():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    assert d.relabeled([0, 1, 2]) == d
    perm = [2, 0, 1]
    r = d.relabeled(perm)
    assert r.signs == d.signs  # all positive here
    inverse = [perm.index(i) for i in range(3)]
    assert r.relabeled(inverse) == d
    with pytest.raises(ValueError):
        d.relabeled([0, 0, 1])


def test_delete_component():
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+U2+,U1+O2+,O3-U3-"))
    kept = gauss.delete_component(d, 0)
    assert len(kept.components) == 2
    assert kept.crossings == 1
    assert gauss.to_code(kept) == gauss.parse_gauss_code(",O1-U1-")
    with pytest.raises(gauss.BadIndex):
        gauss.delete_component(d, 3)


def test_short_arcs_successor_is_permutation():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(1, 6)
        d = random_knot(rng, n) if trial % 2 else random_link(rng, n, rng.randint(1, 3))
        sa = gauss.short_arcs(d)
        assert sorted(sa.successor) == list(range(2 * n))
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
                b = sa.successor[b]
            cycles.append(size)
        sizes = sorted(len(c) for c in d.components if c)
        assert sorted(cycles) == sizes


def test_short_arcs_end_slots():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    sa = gauss.short_arcs(d)
    # every slot is the end of exactly one arc
    slots = sorted(sa.end_slot.values())
    assert slots == [(0, p) for p in range(6)]
    # successor of the arc ending at slot p ends at slot p+1
    for a, (ci, pos) in sa.end_slot.items():
        nxt = sa.successor[a]
        assert sa.end_slot[nxt] == (ci, (pos + 1) % 6)


def test_short_arcs_convention_matters():
    d = gauss.to_diagram(gauss.parse_gauss_code(TABLE1["4.12"]))
    a = gauss.short_arcs(d, "over-first")
    b = gauss.short_arcs(d, "under-first")
    assert a.successor != b.successor


def test_short_arcs_no_crossings():
    with pytest.raises(gauss.NoCrossings):
        gauss.short_arcs(gauss.to_diagram(gauss.parse_gauss_code("")))
