import json
import os
import random
import time
from collections import Counter

import pytest

from vkalex import gauss, groups
from vkalex.laurent import (
    canonicalize, MONOMIAL_SIGN, ONE, PolyMatrix, S, T, ZERO,
)
from _util import (
    TABLE1, CLASSICAL_TREFOIL, KINK, divides, fox_derivative, fox_matrix,
    table1_diagram, ideals_by_all_minors, knot_diagrams, random_knot,
    random_link, rotated, tag_images, tietze_scan,
)

# a 6-crossing knot whose E_1 is 1 - t + t^2 and whose E_2 is the full ring
SIX_E2_ONE = "O1-U2+O2+U3+O3+U4-U1-O4-O5+U6+U5+O6+"


def test_word_basics():
    w = ((0, 1), (2, -1), (1, 1))
    assert groups.word_text(w) == "a1 a3^-1 a2"
    assert groups.word_text(()) == "1"
    assert groups._inverse(w) == [(1, -1), (2, 1), (0, -1)]
    assert groups._free_reduced(w + tuple(groups._inverse(w))) == []
    assert groups._free_reduced([(0, 1), (0, 1), (0, -1)]) == [(0, 1)]
    with pytest.raises(ValueError):
        groups.GroupPresentation({0: 0}, [[(0, 2)]])


def test_cyclic_reduction():
    w = ((0, -1), (1, 1), (2, 1), (0, 1))
    assert groups._cyclically_reduced(w) == [(1, 1), (2, 1)]
    # reduction cascades
    w2 = ((0, -1), (1, -1), (2, 1), (1, 1), (0, 1))
    assert groups._cyclically_reduced(w2) == [(2, 1)]
    assert groups._cyclically_reduced(((0, 1), (0, -1))) == []


def test_presentation_rendering():
    p = groups.GroupPresentation({0: 0, 1: 0}, [((0, 1), (1, -1))])
    assert str(p) == "gens: a1 a2 ; rels: a1 a2^-1"
    free = groups.GroupPresentation({0: 0}, [])
    assert str(free) == "gens: a1 ; rels:"
    with pytest.raises(ValueError):
        groups.GroupPresentation({0: 0}, [[(3, 1)]])


def test_wirtinger_trefoil():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    p = groups.wirtinger(d)
    assert len(p.generators) == 3
    assert len(p.relators) == 3
    assert all(len(w) == 4 for w in p.relators)
    # every relator is a conjugation b a b^-1 d^-1
    for w in p.relators:
        (b, e1), (a, e2), (b2, e3), (d2, e4) = w
        assert b == b2 and e1 == -e3 and e2 == 1 and e4 == -1


def test_wirtinger_kink():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    p = groups.wirtinger(d)
    assert len(p.generators) == 1
    assert len(p.relators) == 1
    assert groups._cyclically_reduced(p.relators[0]) == []


def test_wirtinger_degenerate_components():
    unknot = gauss.to_diagram(gauss.parse_gauss_code(""))
    p = groups.wirtinger(unknot)
    assert len(p.generators) == 1 and not p.relators
    unlink = gauss.to_diagram(gauss.parse_gauss_code(","))
    p2 = groups.wirtinger(unlink)
    assert len(p2.generators) == 2 and not p2.relators
    # an all-over component keeps one free generator
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+O2+,U1+U2+"))
    p3 = groups.wirtinger(d)
    assert len(p3.generators) == 3
    assert len(p3.relators) == 2


def test_wirtinger_tags_follow_components():
    d = gauss.to_diagram(gauss.parse_gauss_code("O1+U2+,U1+O2+"))
    p = groups.wirtinger(d)
    assert sorted(set(p.tags.values())) == [0, 1]
    z = groups.reduced_group(d)
    assert groups.OMEGA in z.tags.values()


def test_wirtinger_tags_the_named_circle_omega():
    """wirtinger(d, i) tags exactly the generators of circle i OMEGA and
    keeps every other tag and relator of wirtinger(d), which tags none; a
    circle with no U slot has one free generator, and that is tagged too."""
    rng = random.Random(50)
    free_omega = 0
    for _ in range(60):
        d = random_link(rng, rng.randint(0, 6), rng.randint(2, 4))
        plain = groups.wirtinger(d)
        assert groups.OMEGA not in plain.tags.values()
        for i in range(len(d.components)):
            p = groups.wirtinger(d, i)
            assert p.relators == plain.relators
            mine = [g for g in plain.generators if plain.tags[g] == i]
            assert [g for g in p.generators
                    if p.tags[g] == groups.OMEGA] == mine
            assert all(p.tags[g] == plain.tags[g]
                       for g in p.generators if g not in mine)
            if not any(role == gauss.UNDER for _, role in d.components[i]):
                assert len(mine) == 1
                free_omega += 1
    assert free_omega >= 20


def test_reduced_group_tags_its_last_generator_omega():
    """The omega circle of the extension has O slots only, so its one
    generator is free, comes last, and is the only one tagged OMEGA."""
    rng = random.Random(51)
    diagrams = [table1_diagram(name) for name in TABLE1]
    diagrams += [random_link(rng, rng.randint(0, 5), rng.randint(1, 3))
                 for _ in range(30)]
    for d in diagrams:
        p = groups.reduced_group(d)
        assert [g for g in p.generators
                if p.tags[g] == groups.OMEGA] == p.generators[-1:]


def test_abelianization_images():
    # the program's Fox matrix is the symbolic one under omega -> s and
    # every other generator -> t
    d = table1_diagram("4.12")
    p = groups.reduced_group(d)
    assert {p.tags[g] == groups.OMEGA for g in p.generators} == {True, False}
    assert fox_matrix(p, tag_images(p)) == groups.alexander_matrix(p)


def test_word_rejects_non_integer_letters():
    for letters in ([(0.9, 1)], [(0.0, 1)], [(0, 1.0)], [("0", 1)]):
        with pytest.raises(TypeError):
            groups.GroupPresentation({0: 0}, [letters])


def test_fox_derivative_goldens():
    # d/da (a b a^-1 b^-1) = 1 + (prefix a b a^-1) * (-1)
    w = ((0, 1), (1, 1), (0, -1), (1, -1))
    terms = fox_derivative(w, 0)
    assert terms[0] == (1, ())
    assert terms[1] == (-1, ((0, 1), (1, 1), (0, -1)))
    # d/da (a^-1) = -a^-1
    assert fox_derivative(((0, -1),), 0) == [(-1, ((0, -1),))]
    assert fox_derivative(w, 5) == []


def test_alexander_matrix_matches_symbolic_derivative():
    # random words over two regular and two omega generators
    rng = random.Random(47)
    tags = {0: 0, 1: groups.OMEGA, 2: 1, 3: groups.OMEGA}
    for _ in range(40):
        letters = [(rng.randint(0, 3), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 8))]
        p = groups.GroupPresentation(tags, [letters])
        assert groups.alexander_matrix(p) == fox_matrix(p, tag_images(p))


def _small_diagrams():
    """Every knot diagram of at most 3 chords, then 40 seeded links of 2-6
    chords on 2-3 circles, some with a chordless circle."""
    rng = random.Random(17)
    return ([d for n in (1, 2, 3) for d in knot_diagrams(n)]
            + [random_link(rng, rng.randint(2, 6), rng.randint(2, 3))
               for _ in range(40)])


def _omega_column(p):
    """The column of the presentation's omega generator, or None."""
    return next((j for j, g in enumerate(p.generators)
                 if p.tags[g] == groups.OMEGA), None)


def _one_minor_rule_applies(mat, omega):
    return omega is not None and mat.cols == mat.rows + 1 >= 2


def test_fox_fundamental_identity():
    # sum over generators of (d r / d g)^alpha (alpha(g) - 1) = 0 per
    # relator: the columns A_j of the Alexander matrix satisfy
    # sum_j A_j (phi(x_j) - 1) = 0
    diagrams = [table1_diagram(name) for name in ("4.12", "5.344", "5.2430")]
    for d in diagrams + _small_diagrams():
        for p in (groups.wirtinger(d), groups.reduced_group(d)):
            images = tag_images(p)
            mat = groups.alexander_matrix(p)
            for r in range(mat.rows):
                acc = ZERO
                for j, g in enumerate(p.generators):
                    acc = acc + mat[r, j] * (images[g] - ONE)
                assert acc == ZERO


def test_one_minor_rule_matches_the_gcd_route():
    """E_0 .. E_2 of the extension's Alexander matrix with its omega column
    named, where gcd(E_1) is one minor divided by 1 - s, equal those of the
    gcd route, taken with no omega column named, on every knot diagram of
    at most 3 chords and on seeded links, chordless circles included."""
    kinds = Counter()
    for d in _small_diagrams():
        p = groups.reduced_group(d)
        mat = groups.alexander_matrix(p)
        omega = _omega_column(p)
        assert omega is not None
        got = groups.elementary_ideals(mat, 2, omega)
        assert got == groups.elementary_ideals(mat, 2), gauss.to_code(d)
        assert groups.elementary_ideals(mat, 1, omega) == got[:2]
        kinds[_one_minor_rule_applies(mat, omega), got[1][0].is_zero()] += 1
    # the rule gives zero and nonzero D, and links with a chordless circle,
    # whose E_1 is zero, skip it
    assert kinds[True, True] and kinds[True, False] and kinds[False, True]
    assert not kinds[False, False]


def test_one_minor_rule_matches_all_minors():
    """The rule against the gcd over every minor, on seeded links where it
    applies (every circle with a chord) and where it does not."""
    rng = random.Random(29)
    applies = Counter()
    for _ in range(30):
        d = random_link(rng, rng.randint(1, 5), rng.randint(1, 3))
        p = groups.reduced_group(d)
        mat = groups.alexander_matrix(p)
        omega = _omega_column(p)
        k_max = 2 if mat.cols <= 8 else 1
        assert (groups.elementary_ideals(mat, k_max, omega)
                == ideals_by_all_minors(mat, k_max)), gauss.to_code(d)
        applies[_one_minor_rule_applies(mat, omega)] += 1
    assert applies[True] >= 10 and applies[False] >= 5


def test_elementary_ideal_conventions():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    p = groups.wirtinger(d)  # 1 generator, 1 relator
    ideals = groups.elementary_ideals(groups.alexander_matrix(p), 2)
    assert len(ideals) == 3
    # k >= generator count: full ring
    assert ideals[1][0] == ONE
    assert ideals[2][0] == ONE
    # free presentation: E_0 has no minors of positive size
    free = groups.GroupPresentation({0: 0}, [])
    fi = groups.elementary_ideals(groups.alexander_matrix(free), 1)
    assert fi[0][0].is_zero()
    assert fi[1][0] == ONE


def _assert_chain(p, k_max):
    ideals = groups.elementary_ideals(groups.alexander_matrix(p), k_max)
    for a, b in zip(ideals, ideals[1:]):
        ga, gb = a[0], b[0]
        if ga.is_zero():
            continue
        assert divides(gb, ga)


def test_ideal_chain_divisibility():
    tref = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    _assert_chain(groups.wirtinger(tref), 3)
    d = table1_diagram("4.12")
    _assert_chain(groups.tietze_eliminate(groups.reduced_group(d)), 2)


def _tag_alpha(p, images):
    """Images of the abelianization sending the generators of the i-th
    component tag, in sorted order, to images[i % len(images)]: a
    homomorphism, since every relator of these presentations has zero
    exponent sum on each component."""
    tags = sorted({str(t) for t in p.tags.values()})
    return {g: images[tags.index(str(p.tags[g])) % len(images)]
            for g in p.generators}


def test_elementary_ideals_match_all_minors():
    # differential test against the gcd over every minor, on the three
    # kinds of presentation and four abelianizations: the standard one, one
    # sending a component to 1, one with three distinct images when there
    # are three component tags, and one that need not kill the relators
    # (each generator at random to t or s), where the Fox shortcut must not
    # apply
    rng = random.Random(61)
    diagrams = [table1_diagram(name) for name in TABLE1]
    diagrams += [random_knot(rng, rng.randint(1, 5)) for _ in range(60)]
    diagrams += [random_link(rng, rng.randint(2, 5), rng.randint(2, 3))
                 for _ in range(20)]
    three = 0
    for d in diagrams:
        z = groups.reduced_group(d)
        for p in (groups.wirtinger(d), z, groups.tietze_eliminate(z)):
            alphas = [tag_images(p),
                      _tag_alpha(p, (ONE, T)),
                      _tag_alpha(p, (T, S, S * T)),
                      {g: rng.choice((T, S)) for g in p.generators}]
            assert fox_matrix(p, alphas[0]) == groups.alexander_matrix(p)
            three += len(set(alphas[2].values())) == 3
            # the oracle takes every minor; keep it to E_0, E_1 on the
            # larger extensions
            k_max = 3 if len(p.generators) <= 6 else 1
            for alpha in alphas:
                _assert_ideals_match(fox_matrix(p, alpha), k_max)
    assert three >= 10
    # torus knot groups <a, b | a^m b^-n>, under their abelianization
    # a -> t^n, b -> t^m and under the trivial one, whose kernel the Fox
    # formula does not see
    for m, n in ((2, 3), (2, 5), (3, 4)):
        p = groups.GroupPresentation(
            {0: 0, 1: 0}, [[(0, 1)] * m + [(1, -1)] * n])
        _assert_ideals_match(fox_matrix(p, {0: T ** n, 1: T ** m}), 2)
        _assert_ideals_match(fox_matrix(p, {0: ONE, 1: ONE}), 2)


def _assert_ideals_match(mat, k_max):
    got = groups.elementary_ideals(mat, k_max)
    want = ideals_by_all_minors(mat, k_max)
    assert got == want
    assert len(got) == k_max + 1


def _det_calls(monkeypatch):
    calls = []
    det = PolyMatrix.det

    def spy(self):
        calls.append(self.rows)
        return det(self)

    monkeypatch.setattr(PolyMatrix, "det", spy)
    return calls


def _dets_for_last_ideal(calls, p, k):
    """Sizes of the determinants elementary_ideals takes for E_k beyond
    those for E_0 .. E_(k-1), read from the spy list calls."""
    mat = groups.alexander_matrix(p)
    calls.clear()
    groups.elementary_ideals(mat, k - 1)
    before = len(calls)
    calls.clear()
    groups.elementary_ideals(mat, k)
    return calls[before:]


def test_first_ideal_takes_minors_of_the_residual(monkeypatch):
    # E_1 is taken from the residual the unit pivots leave, never from a
    # minor of the full Fox matrix
    calls = _det_calls(monkeypatch)
    for name in TABLE1:
        d = table1_diagram(name)
        for p in (groups.reduced_group(d), groups.wirtinger(d)):
            mat = groups.alexander_matrix(p)
            _, res = mat.unit_reduced()
            side = min(res.rows, res.cols)
            assert side < min(mat.rows, mat.cols) - 1
            assert all(n <= side for n in _dets_for_last_ideal(calls, p, 1))


def test_second_ideal_stops_at_gcd_one(monkeypatch):
    d = gauss.to_diagram(gauss.parse_gauss_code(SIX_E2_ONE))
    mat = groups.alexander_matrix(groups.wirtinger(d))
    want = ideals_by_all_minors(mat, 2)
    assert want[1][0] != ONE and want[2] == (ONE, 225)
    calls = _det_calls(monkeypatch)
    # the walk over all 225 minors in PolyMatrix.minors order reaches
    # gcd 1 at the 16th
    assert len(_dets_for_last_ideal(calls, groups.wirtinger(d), 2)) <= 16
    got = groups.elementary_ideals(mat, 2)
    assert got == want


def test_chordless_link_ideals_from_the_full_presentation():
    """E_0 .. E_3 of the extension of a link with two chordless circles,
    from its full Wirtinger presentation (30 relators, 33 generators, and
    E_3 the first nonzero ideal) and from the Tietze-reduced one, agree."""
    rng = random.Random(7)
    links = []
    while len(links) < 3:
        d = random_link(rng, 10, 3)
        if sum(1 for comp in d.components if not comp) == 2:
            links.append(d)
    start = time.perf_counter()
    for d in links:
        gcds = []
        z = groups.reduced_group(d)
        for p in (z, groups.tietze_eliminate(z)):
            ideals = groups.elementary_ideals(groups.alexander_matrix(p), 3)
            gcds.append([g for g, _ in ideals])
        assert gcds[0] == gcds[1]
        assert gcds[0][2].is_zero() and not gcds[0][3].is_zero()
    assert time.perf_counter() - start < 0.5


def test_trefoil_first_ideal_is_classical_alexander():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    # every basepoint, so that some walks end on an over slot and the arc
    # through the basepoint has to close up across the end of the word
    for k in range(6):
        p = groups.wirtinger(rotated(d, 0, k))
        ideals = groups.elementary_ideals(groups.alexander_matrix(p), 1)
        assert ideals[0][0] == ZERO
        got = canonicalize(ideals[1][0], MONOMIAL_SIGN)
        assert got == canonicalize(ONE - T + T * T, MONOMIAL_SIGN)


def test_plain_wirtinger_ideals_forget_virtual_structure():
    # with every generator sent to t, the group of this diagram looks
    # infinite cyclic: E_0 = 0 and E_1 the whole ring
    d = table1_diagram("4.12")
    p = groups.wirtinger(d)
    ideals = groups.elementary_ideals(groups.alexander_matrix(p), 1)
    assert ideals[0][0] == ZERO
    assert canonicalize(ideals[1][0], MONOMIAL_SIGN) \
        == canonicalize(ONE, MONOMIAL_SIGN)


def test_longitude_small_cases():
    unknot = gauss.to_diagram(gauss.parse_gauss_code(""))
    assert groups.longitude(unknot, 0) == []
    kink = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    assert groups.longitude(kink, 0) == []
    with pytest.raises(gauss.BadIndex):
        groups.longitude(kink, 1)


def test_longitude_exponent_sums_vanish():
    rng = random.Random(53)
    diagrams = [table1_diagram(name) for name in TABLE1]
    diagrams += [random_knot(rng, rng.randint(1, 5)) for _ in range(15)]
    diagrams.append(gauss.to_diagram(gauss.parse_gauss_code("O1+U2+,U1+O2+")))
    for d in diagrams:
        # no omega component here, so each tag is a component index
        comp_of_gen = groups.wirtinger(d).tags
        for ci in range(len(d.components)):
            w = groups.longitude(d, ci)
            own = sum(e for (g, e) in w if comp_of_gen[g] == ci)
            assert own == 0


def test_longitude_alpha_image_trivial_for_knots():
    for name in ("4.12", "5.93", "5.344"):
        d = table1_diagram(name)
        images = tag_images(groups.wirtinger(d))
        w = groups.longitude(d, 0)
        img = ONE
        for (g, e) in w:
            img = img * (images[g] if e == 1 else images[g].inverse())
        assert img == ONE


def test_tietze_trefoil():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    q = groups.tietze_eliminate(groups.wirtinger(d))
    assert len(q.generators) <= 2


def test_tietze_leaves_free_presentations_alone():
    free = groups.GroupPresentation({0: 0, 4: 0}, [])
    q = groups.tietze_eliminate(free)
    assert q.generators == [0, 4]
    assert q.relators == []


def test_tietze_drops_trivial_relators():
    kink = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    q = groups.tietze_eliminate(groups.wirtinger(kink))
    assert len(q.generators) == 1
    assert q.relators == []


def test_tietze_reduced_group_reaches_two_generators():
    d = table1_diagram("4.12")
    p = groups.reduced_group(d)
    q = groups.tietze_eliminate(p)
    assert len(q.generators) == 2
    assert len(q.relators) == 1
    # one survivor is an omega generator, the other a regular one
    tags = sorted(str(q.tags[g]) for g in q.generators)
    assert groups.OMEGA in tags
    # elimination preserved the first ideal gcd up to units
    g1 = groups.elementary_ideals(groups.alexander_matrix(p), 1)[1][0]
    g2 = groups.elementary_ideals(groups.alexander_matrix(q), 1)[1][0]
    assert canonicalize(g1, MONOMIAL_SIGN) == canonicalize(g2, MONOMIAL_SIGN)


def test_tietze_plain_knot_group_abelianizes_to_cyclic():
    d = table1_diagram("4.12")
    q = groups.tietze_eliminate(groups.wirtinger(d))
    assert len(q.generators) == 1
    assert q.relators == []


def test_tietze_matches_scan_oracle():
    """The kept counts and totals pick the same eliminations as counting
    afresh: the same str() on the plain and reduced presentations of every
    diagram of 0-3 chords and of 200 seeded knots and links of up to 10."""
    rng = random.Random(11)
    diagrams = [d for n in range(4) for d in knot_diagrams(n)]
    diagrams += [random_knot(rng, rng.randint(0, 10)) if i % 2
                 else random_link(rng, rng.randint(0, 10), rng.randint(2, 3))
                 for i in range(200)]
    eliminated = 0
    for d in diagrams:
        for p in (groups.wirtinger(d), groups.reduced_group(d)):
            got = groups.tietze_eliminate(p)
            assert str(got) == str(tietze_scan(p)), gauss.to_code(d)
            eliminated += len(p.generators) - len(got.generators)
    assert eliminated > 1000


def test_reduced_ideals_of_large_knots():
    """E_1 and E_2 of the reduced group of two 15- and two 20-chord knots
    (one Random(1): two knots each of 10, 15 and 20 chords), against the
    values the pseudo-remainder gcd gave, which takes 0.2-7 s a knot."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "large_reduced_ideals.json")
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    rng = random.Random(1)
    knots = [random_knot(rng, n) for n in (10, 10, 15, 15, 20, 20)][2:]
    assert [gauss.to_code(d) for d in knots] == [w["code"] for w in want]
    start = time.perf_counter()
    got = [groups.elementary_ideals(
               groups.alexander_matrix(groups.reduced_group(d)), 2)
           for d in knots]
    assert time.perf_counter() - start < 1.0
    for ideals, w in zip(got, want):
        (e1, _), (e2, _) = ideals[1:3]
        assert (str(e1), str(e2)) == (w["E1"], w["E2"])
        assert divides(e2, e1)
