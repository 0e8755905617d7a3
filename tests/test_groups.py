import random

import pytest

from vkalex import gauss, groups
from vkalex.laurent import canonicalize, MONOMIAL_SIGN, ONE, S, T, ZERO
from _util import (
    TABLE1, CLASSICAL_TREFOIL, KINK, divides, fox_derivative, table1_diagram,
    random_knot,
)

W = groups.Word


def test_word_basics():
    w = W([(0, 1), (2, -1), (1, 1)])
    assert str(w) == "a1 a3^-1 a2"
    assert str(W()) == "1"
    assert w.inverse().letters == ((1, -1), (2, 1), (0, -1))
    assert (w * w.inverse()).free_reduced() == W()
    assert len(w) == 3
    assert w.exponent_sum(0) == 1
    assert W([(0, 1), (0, 1), (0, -1)]).free_reduced() == W([(0, 1)])
    with pytest.raises(ValueError):
        W([(0, 2)])


def test_cyclic_reduction():
    w = W([(0, -1), (1, 1), (2, 1), (0, 1)])
    assert w.cyclically_reduced() == W([(1, 1), (2, 1)])
    # reduction cascades
    w2 = W([(0, -1), (1, -1), (2, 1), (1, 1), (0, 1)])
    assert w2.cyclically_reduced() == W([(2, 1)])
    assert W([(0, 1), (0, -1)]).cyclically_reduced() == W()


def test_presentation_rendering():
    p = groups.GroupPresentation([0, 1], {0: 0, 1: 0},
                                 [W([(0, 1), (1, -1)])])
    assert str(p) == "gens: a1 a2 ; rels: a1 a2^-1"
    free = groups.GroupPresentation([0], {0: 0}, [])
    assert str(free) == "gens: a1 ; rels:"
    with pytest.raises(ValueError):
        groups.GroupPresentation([0], {0: 0}, [W([(3, 1)])])


def test_wirtinger_trefoil():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    p = groups.wirtinger(d)
    assert len(p.generators) == 3
    assert len(p.relators) == 3
    assert all(len(w) == 4 for w in p.relators)
    # every relator is a conjugation b a b^-1 d^-1
    for w in p.relators:
        (b, e1), (a, e2), (b2, e3), (d2, e4) = w.letters
        assert b == b2 and e1 == -e3 and e2 == 1 and e4 == -1


def test_wirtinger_kink():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    p = groups.wirtinger(d)
    assert len(p.generators) == 1
    assert len(p.relators) == 1
    assert p.relators[0].cyclically_reduced() == W()


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
    assert gauss.OMEGA in z.tags.values()


def test_abelianization_images():
    d = table1_diagram("4.12")
    p = groups.reduced_group(d)
    alpha = groups.Abelianization.standard(p)
    for g in p.generators:
        expected = S if p.tags[g] == gauss.OMEGA else T
        assert alpha(g) == expected


def test_fox_derivative_goldens():
    # d/da (a b a^-1 b^-1) = 1 + (prefix a b a^-1) * (-1)
    w = W([(0, 1), (1, 1), (0, -1), (1, -1)])
    terms = fox_derivative(w, 0)
    assert terms[0] == (1, W())
    assert terms[1] == (-1, W([(0, 1), (1, 1), (0, -1)]))
    # d/da (a^-1) = -a^-1
    assert fox_derivative(W([(0, -1)]), 0) == [(-1, W([(0, -1)]))]
    assert fox_derivative(w, 5) == []


def test_alexander_matrix_matches_symbolic_derivative():
    rng = random.Random(47)
    images = {0: T, 1: S, 2: S * T, 3: T.inverse()}

    def alpha(g):
        return images[g]

    def alpha_word(w):
        out = ONE
        for (g, e) in w:
            out = out * (images[g] if e == 1 else images[g].inverse())
        return out

    for _ in range(40):
        letters = [(rng.randint(0, 3), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 8))]
        w = W(letters)
        p = groups.GroupPresentation([0, 1, 2, 3],
                                     {0: 0, 1: 0, 2: 0, 3: 0}, [w])
        row = groups.alexander_matrix(p, alpha).row(0)
        for gi in range(4):
            acc = ZERO
            for (sign, prefix) in fox_derivative(w, gi):
                acc = acc + sign * alpha_word(prefix)
            assert row[gi] == acc


def test_fox_fundamental_identity():
    # sum over generators of (d r / d g)^alpha (alpha(g) - 1) = 0 per relator
    for name in ("4.12", "5.344", "5.2430"):
        d = table1_diagram(name)
        for p in (groups.wirtinger(d), groups.reduced_group(d)):
            alpha = groups.Abelianization.standard(p)
            mat = groups.alexander_matrix(p, alpha)
            for r in range(mat.rows):
                acc = ZERO
                for j, g in enumerate(p.generators):
                    acc = acc + mat[r, j] * (alpha(g) - ONE)
                assert acc == ZERO


def test_elementary_ideal_conventions():
    d = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    p = groups.wirtinger(d)  # 1 generator, 1 relator
    alpha = groups.Abelianization.standard(p)
    ideals = groups.elementary_ideals(p, alpha, 2)
    assert ideals[0].k == 0
    # k >= generator count: full ring
    assert ideals[1].gcd_generator == ONE
    assert ideals[2].gcd_generator == ONE
    # free presentation: E_0 has no minors of positive size
    free = groups.GroupPresentation([0], {0: 0}, [])
    fi = groups.elementary_ideals(free, groups.Abelianization({0: T}), 1)
    assert fi[0].is_zero()
    assert fi[1].gcd_generator == ONE


def _assert_chain(p, k_max):
    alpha = groups.Abelianization.standard(p)
    ideals = groups.elementary_ideals(p, alpha, k_max)
    for a, b in zip(ideals, ideals[1:]):
        ga, gb = a.gcd_generator, b.gcd_generator
        if ga.is_zero():
            continue
        assert divides(gb, ga)


def test_ideal_chain_divisibility():
    tref = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    _assert_chain(groups.wirtinger(tref), 3)
    d = table1_diagram("4.12")
    _assert_chain(groups.tietze_eliminate(groups.reduced_group(d)), 2)


def test_trefoil_first_ideal_is_classical_alexander():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    # every basepoint, so that some walks end on an over slot and the arc
    # through the basepoint has to close up across the end of the word
    for k in range(6):
        p = groups.wirtinger(d.rotated(0, k))
        alpha = groups.Abelianization.standard(p)
        ideals = groups.elementary_ideals(p, alpha, 1)
        assert ideals[0].gcd_generator == ZERO
        got = canonicalize(ideals[1].gcd_generator, MONOMIAL_SIGN)
        assert got == canonicalize(ONE - T + T * T, MONOMIAL_SIGN)


def test_plain_wirtinger_ideals_forget_virtual_structure():
    # with every generator sent to t, the group of this diagram looks
    # infinite cyclic: E_0 = 0 and E_1 the whole ring
    d = table1_diagram("4.12")
    p = groups.wirtinger(d)
    alpha = groups.Abelianization.standard(p)
    ideals = groups.elementary_ideals(p, alpha, 1)
    assert ideals[0].gcd_generator == ZERO
    assert canonicalize(ideals[1].gcd_generator, MONOMIAL_SIGN) \
        == canonicalize(ONE, MONOMIAL_SIGN)


def test_longitude_small_cases():
    unknot = gauss.to_diagram(gauss.parse_gauss_code(""))
    assert groups.longitude(unknot, 0) == W()
    kink = gauss.to_diagram(gauss.parse_gauss_code(KINK))
    assert groups.longitude(kink, 0) == W()
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
        p = groups.wirtinger(d)
        alpha = groups.Abelianization.standard(p)
        w = groups.longitude(d, 0)
        img = ONE
        for (g, e) in w:
            img = img * (alpha(g) if e == 1 else alpha(g).inverse())
        assert img == ONE


def test_tietze_trefoil():
    d = gauss.to_diagram(gauss.parse_gauss_code(CLASSICAL_TREFOIL))
    q = groups.tietze_eliminate(groups.wirtinger(d))
    assert len(q.generators) <= 2


def test_tietze_leaves_free_presentations_alone():
    free = groups.GroupPresentation([0, 4], {0: 0, 4: 0}, [])
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
    assert gauss.OMEGA in tags
    # elimination preserved the first ideal gcd up to units
    a1 = groups.Abelianization.standard(p)
    a2 = groups.Abelianization.standard(q)
    g1 = groups.elementary_ideals(p, a1, 1)[1].gcd_generator
    g2 = groups.elementary_ideals(q, a2, 1)[1].gcd_generator
    assert canonicalize(g1, MONOMIAL_SIGN) == canonicalize(g2, MONOMIAL_SIGN)


def test_tietze_plain_knot_group_abelianizes_to_cyclic():
    d = table1_diagram("4.12")
    q = groups.tietze_eliminate(groups.wirtinger(d))
    assert len(q.generators) == 1
    assert q.relators == []
