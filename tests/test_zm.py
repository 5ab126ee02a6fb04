import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_helpers import center_bruteforce, derived_subgroup, element_order, power
from slow_reference import reference_cayley, reference_iter_valid_triples
from zmcenter.errors import TripleError
from zmcenter.numtheory import factorize
from zmcenter.zm import ZmElement, iter_valid_triples, validate_triple

from conftest import SMALL_TRIPLES

small_triple = st.sampled_from(SMALL_TRIPLES).map(lambda mnr: validate_triple(*mnr))


class TestValidateTriple:
    def test_classic_fixture(self, zm_5_16_2):
        assert (zm_5_16_2.m, zm_5_16_2.n, zm_5_16_2.r) == (5, 16, 2)
        assert zm_5_16_2.d == 4
        assert zm_5_16_2.phi_m == 4
        assert zm_5_16_2.order == 80

    def test_degenerate_cyclic(self):
        t = validate_triple(1, 7, 1)
        assert (t.m, t.n, t.r, t.d) == (1, 7, 1, 1)
        # any r collapses to the convention r = 1 when m = 1
        assert validate_triple(1, 7, 3).r == 1

    def test_gcd_mn_violation(self):
        with pytest.raises(TripleError) as exc:
            validate_triple(3, 6, 2)
        assert exc.value.reason == "gcd_mn"

    def test_gcd_m_rminus1_violation(self):
        with pytest.raises(TripleError) as exc:
            validate_triple(5, 16, 6)  # 6 = 1 (mod 5)
        assert exc.value.reason == "gcd_m_rminus1"

    def test_order_violation(self):
        with pytest.raises(TripleError) as exc:
            validate_triple(7, 4, 2)  # o_7(2) = 3 does not divide 4
        assert exc.value.reason == "order"

    def test_range_violation(self):
        with pytest.raises(TripleError) as exc:
            validate_triple(5, 0, 2)
        assert exc.value.reason == "range"

    def test_r_normalized_mod_m(self):
        assert validate_triple(5, 16, 7).r == 2

    def test_regime_flag(self, zm_5_16_2, zm_5_48_2, zm_7_6_2):
        assert zm_5_16_2.regime_guaranteed      # rad(16) = 2 divides 4
        assert not zm_5_48_2.regime_guaranteed  # 3 divides 48 but not 4
        assert not zm_7_6_2.regime_guaranteed   # 2 divides 6 but not 3

    def test_regime_flag_matches_factorization(self, valid_triples):
        regimes = set()
        for t in [*valid_triples, *(validate_triple(1, n, 1) for n in range(1, 31))]:
            expected = all(t.d % p == 0 for p, _ in factorize(t.n))
            assert t.regime_guaranteed == expected, t
            regimes.add(expected)
        assert regimes == {True, False}


class TestElementArithmetic:
    def test_identity_and_a_b_relation(self, zm_5_16_2):
        t = zm_5_16_2
        a, b = t.element(0, 1), t.element(1, 0)
        for g in t.elements():
            assert t.multiply(ZmElement(0, 0), g) == g
            assert t.multiply(g, ZmElement(0, 0)) == g
        # a * b = b * a^r
        assert t.multiply(a, b) == ZmElement(1, 2)

    def test_b_has_order_n(self, zm_5_16_2):
        t = zm_5_16_2
        b = t.element(1, 0)
        g = b
        for _ in range(14):
            g = t.multiply(g, b)
            assert g != ZmElement(0, 0)
        assert t.multiply(g, b) == ZmElement(0, 0)
        assert element_order(t, b) == 16

    def test_element_count_is_mn(self, small_triples):
        for t in small_triples:
            elems = list(t.elements())
            assert len(elems) == t.order
            assert len(set(elems)) == t.order

    @given(small_triple, st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_inverse(self, t, u, v):
        g = t.element(u, v)
        assert t.multiply(g, t.inverse(g)) == ZmElement(0, 0)
        assert t.multiply(t.inverse(g), g) == ZmElement(0, 0)

    @given(small_triple, st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 60))
    @settings(max_examples=100)
    def test_power_matches_repeated_multiplication(self, t, u, v, k):
        g = t.element(u, v)
        acc = ZmElement(0, 0)
        for _ in range(k):
            acc = t.multiply(acc, g)
        assert power(t, g, k) == acc
        assert power(t, g, -k) == t.inverse(acc)

    def test_group_axioms_exhaustive_small(self):
        # full associativity on an order-40 group
        t = validate_triple(5, 8, 2)
        elems = list(t.elements())
        for g, h, k in product(elems, elems, elems):
            assert t.multiply(t.multiply(g, h), k) == t.multiply(g, t.multiply(h, k))

    def test_element_orders(self, zm_5_16_2):
        t = zm_5_16_2
        assert element_order(t, ZmElement(0, 0)) == 1
        assert element_order(t, t.element(0, 1)) == 5  # a generates C_m
        for g in t.elements():
            k = element_order(t, g)
            assert power(t, g, k) == ZmElement(0, 0)
            for p in {2, 5}:
                if k % p == 0:
                    assert power(t, g, k // p) != ZmElement(0, 0)


class TestCenter:
    def test_classic_fixtures(self, zm_5_16_2, zm_5_48_2):
        gen, order = zm_5_16_2.center()
        assert gen == ZmElement(4, 0) and order == 4
        gen, order = zm_5_48_2.center()
        assert gen == ZmElement(4, 0) and order == 12

    def test_degenerate_cyclic_center_is_whole_group(self):
        t = validate_triple(1, 9, 1)
        gen, order = t.center()
        assert gen == ZmElement(1, 0) and order == 9

    def test_center_elements_commute_and_are_maximal(self, small_triples):
        for t in small_triples:
            gen, order = t.center()
            central = {power(t, gen, k) for k in range(order)}
            assert len(central) == order
            elems = list(t.elements())
            for z in central:
                assert all(t.multiply(z, g) == t.multiply(g, z) for g in elems)
            # nothing outside <b^d> commutes with both generators
            a, b = t.element(0, 1), t.element(1, 0)
            for g in elems:
                if g in central:
                    continue
                commutes = t.multiply(g, a) == t.multiply(a, g) and t.multiply(
                    g, b
                ) == t.multiply(b, g)
                assert not commutes, (t, g)

    def test_generator_orders(self, small_triples):
        for t in small_triples:
            gen, order = t.center()
            assert element_order(t, gen) == order == t.n // t.d
            gen_a, order_a = derived_subgroup(t)
            assert order_a == t.m
            assert element_order(t, gen_a) == t.m or (t.m == 1 and order_a == 1)

    def test_inn_order_is_md(self, small_triples):
        # |G| / |Z(G)| = m*d
        for t in small_triples:
            _, z_order = t.center()
            assert t.order // z_order == t.m * t.d


class TestCayleyExport:
    def test_degenerate_cyclic_matches_addition_table(self):
        t = validate_triple(1, 3, 1)
        group = t.cayley()
        assert group.table == tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))

    def test_fixture_export(self, zm_5_16_2):
        group = zm_5_16_2.cayley()
        assert group.order == 80
        assert group.identity_index == 0

    def test_table_indices_are_the_u_major_normal_forms(self, small_triples):
        # aut.to_permutation and oracle-check's brute-force comparison
        # read table indices as index_of of the normal forms
        for t in small_triples:
            group = t.cayley()
            elems = list(t.elements())
            assert [t.index_of(g) for g in elems] == list(range(t.order))
            for g, h in product(elems, repeat=2):
                assert group.table[t.index_of(g)][t.index_of(h)] == t.index_of(t.multiply(g, h))
            assert group.identity_index == t.index_of(ZmElement(0, 0))

    def test_order_20_is_nonabelian_with_trivial_center(self, zm_5_4_2):
        # the distinguishing invariants of the Frobenius group of order 20
        group = zm_5_4_2.cayley()
        assert group.order == 20
        assert center_bruteforce(group).order == 1
        orders = sorted(group.element_orders)
        assert orders.count(1) == 1 and orders.count(2) == 5
        assert orders.count(4) == 10 and orders.count(5) == 4

    def test_block_rows_equal_per_entry_reference(self):
        triples = [*iter_valid_triples(400), *(validate_triple(1, k, 1) for k in (1, 2, 7, 30))]
        assert len(triples) == 806
        for t in triples:
            group = t.cayley()
            assert group.table == reference_cayley(t), t
            assert group.identity_index == t.index_of(ZmElement(0, 0))


class TestIterValidTriples:
    def test_all_yielded_triples_validate(self):
        seen = set()
        for t in iter_valid_triples(100):
            validate_triple(t.m, t.n, t.r)  # must not raise
            assert t.m > 1 and t.order <= 100
            assert t.n % t.d == 0
            key = (t.m, t.n, t.r)
            assert key not in seen
            seen.add(key)
        assert (5, 16, 2) in seen
        assert (7, 6, 2) in seen

    @pytest.mark.parametrize("cap", [60, 400, 2000])
    def test_matches_unbounded_reference(self, cap, valid_triples):
        # same triples, same order, same d as every order computed in full
        triples = valid_triples if cap == 2000 else list(iter_valid_triples(cap))
        assert triples == list(reference_iter_valid_triples(cap))
        assert len(valid_triples) == 7318 and all(t.m % 2 for t in valid_triples)
