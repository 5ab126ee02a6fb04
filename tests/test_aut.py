import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_helpers import compose, invert
from slow_reference import family_generators
from zmcenter import aut
from zmcenter.errors import AutParamError
from zmcenter.zm import ZmElement, iter_valid_triples, validate_triple

from conftest import SMALL_TRIPLES

small_triple = st.sampled_from(SMALL_TRIPLES).map(lambda mnr: validate_triple(*mnr))


def is_homomorphism(t, alpha, pairs) -> bool:
    """Spot-check apply(alpha, g*h) == apply(alpha, g) * apply(alpha, h)."""
    for g, h in pairs:
        lhs = aut.apply(t, alpha, t.multiply(g, h))
        rhs = t.multiply(aut.apply(t, alpha, g), aut.apply(t, alpha, h))
        if lhs != rhs:
            return False
    return True


class TestApply:
    def test_identity_fixes_everything(self, small_triples):
        for t in small_triples:
            ident = aut.identity_aut(t)
            assert all(aut.apply(t, ident, g) == g for g in t.elements())

    def test_known_images(self, zm_5_16_2):
        t = zm_5_16_2
        alpha = aut.make_aut_triple(t, 1, 1, 1)
        # b maps to b*a since the geometric sum at u=1 is 1
        assert aut.apply(t, alpha, t.element(1, 0)) == ZmElement(1, 1)
        beta = aut.make_aut_triple(t, 2, 0, 1)
        assert aut.apply(t, beta, t.element(0, 1)) == ZmElement(0, 2)
        assert aut.apply(t, beta, t.element(1, 0)) == ZmElement(1, 0)

    def test_all_family_members_are_bijective_homomorphisms(self):
        # exhaustive on groups of order <= 200
        for m, n, r in [(5, 8, 2), (7, 6, 2), (3, 4, 2), (1, 6, 1)]:
            t = validate_triple(m, n, r)
            elems = list(t.elements())
            pairs = list(product(elems, elems))
            for alpha in aut.enumerate_family(t, "all"):
                images = {aut.apply(t, alpha, g) for g in elems}
                assert len(images) == t.order
                assert is_homomorphism(t, alpha, pairs)


class TestMakeAutTriple:
    def test_constraints_enforced(self, zm_5_16_2):
        t = zm_5_16_2
        with pytest.raises(AutParamError):
            aut.make_aut_triple(t, 0, 0, 1)  # gcd(x1, m) != 1
        with pytest.raises(AutParamError):
            aut.make_aut_triple(t, 1, 0, 2)  # y != 1 mod d
        # y = 1 mod d but sharing a factor with n is rejected
        t2 = validate_triple(7, 6, 2)  # d = 3, y = 4 is 1 mod 3 but gcd(4, 6) = 2
        with pytest.raises(AutParamError):
            aut.make_aut_triple(t2, 1, 0, 4)

    def test_normalization(self, zm_5_16_2):
        alpha = aut.make_aut_triple(zm_5_16_2, 7, 11, 21)
        assert alpha == aut.AutTriple(2, 1, 5)


class TestCompose:
    def test_identity_is_neutral(self, small_triples):
        for t in small_triples:
            ident = aut.identity_aut(t)
            for alpha in aut.enumerate_family(t, "all"):
                assert compose(t, ident, alpha) == alpha
                assert compose(t, alpha, ident) == alpha

    def test_known_compositions(self, zm_5_16_2):
        t = zm_5_16_2
        sq = aut.make_aut_triple(t, 2, 0, 1)
        assert compose(t, sq, sq) == aut.AutTriple(4, 0, 1)
        tw = aut.make_aut_triple(t, 1, 1, 1)
        assert compose(t, tw, tw) == aut.AutTriple(1, 2, 1)

    @given(small_triple, st.data())
    @settings(max_examples=60)
    def test_compose_matches_pointwise_composition(self, t, data):
        family = aut.enumerate_family(t, "all")
        alpha = data.draw(st.sampled_from(family))
        beta = data.draw(st.sampled_from(family))
        gamma = compose(t, alpha, beta)
        for g in t.elements():
            assert aut.apply(t, gamma, g) == aut.apply(t, alpha, aut.apply(t, beta, g))

    def test_group_axioms_on_family(self):
        # closure, identity, inverses: the enumerated set is a group
        for m, n, r in [(5, 16, 2), (7, 6, 2), (3, 4, 2), (1, 6, 1)]:
            t = validate_triple(m, n, r)
            family = aut.enumerate_family(t, "all")
            fam_set = set(family)
            assert aut.identity_aut(t) in fam_set
            for alpha in family:
                inv = invert(t, alpha)
                assert inv in fam_set
                assert compose(t, inv, alpha) == aut.identity_aut(t)
            for alpha, beta in product(family, family):
                assert compose(t, alpha, beta) in fam_set


class TestEnumerateFamily:
    def test_classic_counts(self, zm_5_16_2):
        t = zm_5_16_2
        assert len(aut.enumerate_family(t, "all")) == 80
        assert len(aut.enumerate_family(t, "central")) == 4
        assert len(aut.enumerate_family(t, "ia")) == 20
        assert len(aut.enumerate_family(t, "inner")) == 20

    def test_degenerate_cyclic_gives_phi_n(self):
        from zmcenter.numtheory import euler_phi

        for n in (1, 2, 3, 6, 12):
            t = validate_triple(1, n, 1)
            assert len(aut.enumerate_family(t, "all")) == euler_phi(n)

    def test_unknown_family_rejected(self, zm_5_16_2):
        with pytest.raises(ValueError):
            aut.enumerate_family(zm_5_16_2, "outer")

    def test_inner_equals_conjugation_set(self, small_triples):
        for t in small_triples:
            inner = set(aut.enumerate_family(t, "inner"))
            conj = {aut.conjugation(t, h) for h in t.elements()}
            assert inner == conj
            assert len(inner) == t.m * t.d

    def test_inner_is_subset_of_all(self, small_triples):
        for t in small_triples:
            fam = set(aut.enumerate_family(t, "all"))
            assert set(aut.enumerate_family(t, "inner")) <= fam
            assert set(aut.enumerate_family(t, "central")) <= fam
            assert set(aut.enumerate_family(t, "ia")) <= fam

    def test_conjugation_by_generators(self, zm_5_16_2):
        t = zm_5_16_2
        assert aut.conjugation(t, t.element(1, 0)) == aut.AutTriple(t.r, 0, 1)
        by_a = aut.conjugation(t, t.element(0, 1))
        assert by_a.y == 1  # conjugation acts trivially on the abelianization

    def test_central_fixes_a_and_acts_trivially_mod_center(self, small_triples):
        for t in small_triples:
            _, z_order = t.center()
            z_gen, _ = t.center()
            central = {t.power(z_gen, k) for k in range(z_order)}
            for alpha in aut.enumerate_family(t, "central"):
                for v in range(t.m):
                    assert aut.apply(t, alpha, t.element(0, v)) == t.element(0, v)
                for g in t.elements():
                    shift = t.multiply(t.inverse(g), aut.apply(t, alpha, g))
                    assert shift in central

    def test_ia_fixes_group_mod_derived_subgroup(self, small_triples):
        for t in small_triples:
            for alpha in aut.enumerate_family(t, "ia"):
                for g in t.elements():
                    image = aut.apply(t, alpha, g)
                    assert image.u == g.u  # differs only inside <a>


def generated_closure(t, gens) -> set:
    """Every product of the generators under compose (a finite group,
    so positive words already reach the inverses).  A generator already
    in the subgroup built so far adds nothing and is skipped, so a long
    list costs one membership test per redundant member."""
    members = {aut.identity_aut(t)}
    kept = []
    for g in gens:
        if g in members:
            continue
        kept.append(g)
        frontier = list(members)
        while frontier:
            alpha = frontier.pop()
            for h in kept:
                beta = compose(t, h, alpha)
                if beta not in members:
                    members.add(beta)
                    frontier.append(beta)
    return members


def oracle_subfamilies(t) -> list:
    """The members `abscenter.absolute_center_oracle` tests: (x1, 0, 1) for
    every unit, (1, 1, 1), and (1, 0, y) for every admissible y."""
    one_m, one_n = 1 % t.m, 1 % t.n
    return [
        *(aut.AutTriple(x1, 0, one_n) for x1 in aut.units(t)),
        aut.AutTriple(one_m, one_m, one_n),
        *(aut.AutTriple(one_m, 0, y) for y in aut.valid_ys(t)),
    ]


CYCLIC_TRIPLES = [validate_triple(1, n, 1) for n in range(1, 31)]


class TestFamilyGenerators:
    def test_closure_is_the_family(self):
        checked = 0
        for t in [*iter_valid_triples(150), *CYCLIC_TRIPLES]:
            family = set(aut.enumerate_family(t, "all"))
            for gens in (family_generators(t), oracle_subfamilies(t)):
                assert generated_closure(t, gens) == family, t
            checked += 1
        assert checked == 192 + 30

    def test_size_is_logarithmic(self):
        for t in [*iter_valid_triples(400), *CYCLIC_TRIPLES]:
            gens = family_generators(t)
            phi, ys = t.phi_m, len(aut.valid_ys(t))
            assert len(gens) <= 1 + math.log2(phi) + math.log2(ys), t
            unit_gens = [a for a in gens if a.x2 == 0 and a.y == 1 % t.n]
            y_gens = [a for a in gens if a.y != 1 % t.n]
            assert 2 ** len(unit_gens) <= phi and 2 ** len(y_gens) <= ys, t

    def test_classic_fixture(self, zm_5_16_2):
        # units mod 5 are cyclic on 2; the admissible y = 1 mod 4 mod 16
        # are cyclic on 5
        assert family_generators(zm_5_16_2) == [
            aut.AutTriple(2, 0, 1),
            aut.AutTriple(1, 1, 1),
            aut.AutTriple(1, 0, 5),
        ]

    def test_identity_never_listed(self):
        for t in CYCLIC_TRIPLES:
            assert aut.identity_aut(t) not in family_generators(t)
        assert family_generators(validate_triple(1, 1, 1)) == []


class TestAutCounts:
    def test_classic_fixture(self, zm_5_16_2):
        c = aut.aut_counts(zm_5_16_2)
        assert (c.aut, c.inn, c.out, c.central, c.ia) == (80, 20, 4, 4, 20)
        assert not c.complete
        assert c.regime_guaranteed
        assert c.aut == c.inn * c.out

    def test_complete_group(self, zm_5_4_2):
        c = aut.aut_counts(zm_5_4_2)
        assert c.complete  # phi(5) = n = d = 4
        assert c.aut == 20 and c.out == 1

    def test_unguaranteed_flag(self, zm_5_48_2):
        c = aut.aut_counts(zm_5_48_2)
        assert c.aut == 240 and not c.regime_guaranteed
        # the enforced enumeration gives the true count, smaller than the formula
        assert len(aut.enumerate_family(zm_5_48_2, "all")) == 160

    def test_aut_is_inn_times_out(self):
        for t in (validate_triple(5, 16, 2), validate_triple(7, 9, 4), validate_triple(7, 6, 2)):
            c = aut.aut_counts(t)
            assert c.aut == c.inn * c.out

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            aut.aut_counts(validate_triple(1, 6, 1))

    def test_guaranteed_regime_formula_matches_enumeration(self):
        from zmcenter.zm import iter_valid_triples

        for t in iter_valid_triples(150, guaranteed_only=True):
            assert len(aut.enumerate_family(t, "all")) == aut.aut_counts(t).aut


class TestPermutationBridge:
    def test_permutations_preserve_identity_and_orders(self, zm_5_4_2):
        t = zm_5_4_2
        group = t.cayley()
        for alpha in aut.enumerate_family(t, "all"):
            perm = aut.to_permutation(t, alpha)
            assert perm[group.identity_index] == group.identity_index
            for i in range(group.order):
                assert group.element_orders[perm[i]] == group.element_orders[i]
