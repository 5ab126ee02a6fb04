import math

import pytest

from slow_reference import (
    reference_absolute_center_formula,
    reference_absolute_center_oracle,
    reference_generator_oracle,
    reference_product_oracle,
)
from zmcenter import abscenter, aut, cli
from zmcenter.errors import BoundExceededError
from zmcenter.numtheory import geometric_sum_mod
from zmcenter.zm import ZmElement, iter_valid_triples, validate_triple


class TestExponentE:
    def test_classic_fixtures(self, zm_5_16_2, zm_5_48_2):
        assert abscenter.exponent_e(zm_5_16_2) == 1
        assert abscenter.exponent_e(zm_5_48_2) == 3

    def test_d_equals_n_gives_trivial_center_fixed_part(self, zm_5_4_2):
        assert abscenter.exponent_e(zm_5_4_2) == 1
        result = abscenter.absolute_center_formula(zm_5_4_2)
        assert result.order == 1

    def test_minimality(self, small_triples):
        for t in small_triples:
            e = abscenter.exponent_e(t)
            assert (t.d * t.d * e) % t.n == 0
            for s in range(1, e):
                assert (t.d * t.d * s) % t.n != 0


class TestFormula:
    def test_fixture_where_l_equals_z(self, zm_5_16_2):
        result = abscenter.absolute_center_formula(zm_5_16_2)
        assert result.generator == ZmElement(4, 0)
        assert result.order == 4
        _, z_order = zm_5_16_2.center()
        assert result.order == z_order
        assert result.regime_guaranteed

    def test_fixture_where_l_is_proper_in_z(self, zm_5_48_2):
        result = abscenter.absolute_center_formula(zm_5_48_2)
        assert result.generator == ZmElement(12, 0)
        assert result.order == 4
        _, z_order = zm_5_48_2.center()
        assert z_order == 12 and result.order < z_order

    def test_derived_example(self, zm_7_9_2):
        result = abscenter.absolute_center_formula(zm_7_9_2)
        assert zm_7_9_2.d == 3
        assert result.e == 1
        assert result.generator == ZmElement(3, 0)
        assert result.order == 3
        oracle = abscenter.absolute_center_oracle(zm_7_9_2)
        assert len(oracle) == 3

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            abscenter.absolute_center_formula(validate_triple(1, 5, 1))

    def test_order_identity(self, small_triples):
        for t in small_triples:
            if t.m == 1:
                continue
            result = abscenter.absolute_center_formula(t)
            de = t.d * result.e
            assert result.order == t.n // math.gcd(de, t.n)
            assert result.order == (t.n // t.d) // math.gcd(result.e, t.n // t.d)


class TestOracle:
    def test_fixture_fixed_points(self, zm_5_16_2):
        oracle = abscenter.absolute_center_oracle(zm_5_16_2)
        assert oracle == {ZmElement(0, 0), ZmElement(4, 0), ZmElement(8, 0), ZmElement(12, 0)}

    def test_cyclic_c3_has_trivial_absolute_center(self):
        t = validate_triple(1, 3, 1)
        assert abscenter.absolute_center_oracle(t) == {ZmElement(0, 0)}

    def test_c2_is_fixed_entirely(self):
        t = validate_triple(1, 2, 1)
        assert abscenter.absolute_center_oracle(t) == {ZmElement(0, 0), ZmElement(1, 0)}

    def test_complete_group_has_trivial_absolute_center(self, zm_5_4_2):
        assert abscenter.absolute_center_oracle(zm_5_4_2) == {ZmElement(0, 0)}

    def test_oracle_is_subgroup_of_center(self, small_triples):
        for t in small_triples:
            oracle = abscenter.absolute_center_oracle(t)
            z_gen, z_order = t.center()
            center = {t.power(z_gen, k) for k in range(z_order)}
            assert oracle <= center
            for g in oracle:
                for h in oracle:
                    assert t.multiply(g, h) in oracle
                assert t.inverse(g) in oracle

    def test_oracle_is_cyclic_generated_by_power_of_b(self, small_triples):
        for t in small_triples:
            oracle = abscenter.absolute_center_oracle(t)
            assert any(
                {t.power(g, k) for k in range(len(oracle))} == oracle for g in oracle
            )
            assert all(g.v == 0 for g in oracle)

    def test_formula_generator_always_fixed(self, small_triples):
        # the closed form is a subgroup of L even off-regime
        for t in small_triples:
            if t.m == 1:
                continue
            result = abscenter.absolute_center_formula(t)
            oracle = abscenter.absolute_center_oracle(t)
            span = {t.power(result.generator, k) for k in range(result.order)}
            assert span <= oracle

    def test_bound_enforced(self, zm_5_16_2):
        with pytest.raises(BoundExceededError):
            abscenter.absolute_center_oracle(zm_5_16_2, oracle_bound=79)

    def test_equals_whole_family_scan(self):
        regimes = set()
        for t in iter_valid_triples(400):
            assert abscenter.absolute_center_oracle(t) == reference_absolute_center_oracle(t), t
            regimes.add(t.regime_guaranteed)
        assert regimes == {True, False}
        for n in range(1, 31):
            t = validate_triple(1, n, 1)
            assert abscenter.absolute_center_oracle(t) == reference_absolute_center_oracle(t), t

    def test_equals_element_by_element_generator_scan(self):
        regimes = []
        for t in iter_valid_triples(1000):
            assert abscenter.absolute_center_oracle(t) == reference_generator_oracle(t), t
            regimes.append(t.regime_guaranteed)
        assert len(regimes) == 2897 and set(regimes) == {True, False}
        for n in range(1, 31):
            t = validate_triple(1, n, 1)
            assert abscenter.absolute_center_oracle(t) == reference_generator_oracle(t), t

    def test_equals_product_scan(self):
        regimes = set()
        checked = 0
        for t in iter_valid_triples(2000):
            assert abscenter.absolute_center_oracle(t) == reference_product_oracle(t), t
            regimes.add(t.regime_guaranteed)
            checked += 1
        assert checked == 7318 and regimes == {True, False}
        for n in range(1, 31):
            t = validate_triple(1, n, 1)
            assert abscenter.absolute_center_oracle(t) == reference_product_oracle(t), t

    def test_never_enumerates_the_family_or_reads_the_closed_form(
        self, monkeypatch, small_triples
    ):
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(aut, "enumerate_family", spy("enumerate_family", aut.enumerate_family))
        monkeypatch.setattr(
            abscenter,
            "absolute_center_formula",
            spy("absolute_center_formula", abscenter.absolute_center_formula),
        )
        for t in [*small_triples, *iter_valid_triples(200)]:
            abscenter.absolute_center_oracle(t)
        assert calls == []
        # the spies are live: the comparison does read the closed form
        abscenter.compare(small_triples[2])
        assert calls == ["absolute_center_formula"]


class TestCompare:
    def test_agreement_on_classic_fixtures(self, zm_5_16_2, zm_5_48_2):
        for t in (zm_5_16_2, zm_5_48_2):
            cmp = abscenter.compare(t)
            assert cmp.agree is True
            assert cmp.oracle_order == cmp.formula_order

    def test_off_regime_probe_resolves_via_oracle(self, zm_7_6_2):
        # d = 3, n = 6: the closed form collapses but the true fixed-point
        # set is {e, b^3}, of order 2
        cmp = abscenter.compare(zm_7_6_2)
        assert cmp.formula_order == 1
        assert cmp.oracle_order == 2
        assert cmp.agree is False
        assert not cmp.regime_guaranteed
        oracle = abscenter.absolute_center_oracle(zm_7_6_2)
        assert oracle == {ZmElement(0, 0), ZmElement(3, 0)}

    def test_l_order_divides_z_order(self, small_triples):
        for t in small_triples:
            oracle = abscenter.absolute_center_oracle(t)
            _, z_order = t.center()
            assert z_order % len(oracle) == 0

    def test_json_shape(self, zm_5_16_2):
        doc = abscenter.compare(zm_5_16_2).as_json_dict()
        assert doc["d"] == 4 and doc["e"] == 1
        assert doc["formula_order"] == 4 and doc["oracle_order"] == 4
        assert doc["generator"] == "b^4"
        assert doc["equals_center"] is True
        assert doc["agree"] is True


class TestDivisibilityScan:
    def test_m_divides_geometric_sum_at_multiples_of_d(self, small_triples):
        # the structural fact the closed form's second condition rests on
        for t in small_triples:
            for s in range(1, t.n + 1):
                assert geometric_sum_mod(t.r, t.d * s, t.m) == 0


class TestFoldedFixednessCheck:
    def test_per_member_recheck_and_oracle_membership_agree(self):
        # the per-member recheck the closed form used to run, and the
        # "generator is an oracle fixed point" check that replaced it
        checked = 0
        for t in iter_valid_triples(200):
            result = reference_absolute_center_formula(t)
            assert result.generator in abscenter.absolute_center_oracle(t), t
            checked += 1
        assert checked > 100

    @pytest.fixture
    def oracle_missing_generator(self, monkeypatch):
        real_oracle = abscenter.absolute_center_oracle

        def broken(t, *args, **kwargs):
            generator = abscenter.absolute_center_formula(t).generator
            return real_oracle(t, *args, **kwargs) - {generator}

        monkeypatch.setattr(abscenter, "absolute_center_oracle", broken)

    def test_compare_raises(self, oracle_missing_generator, zm_5_16_2, zm_5_4_2):
        for t in (zm_5_16_2, zm_5_4_2):
            with pytest.raises(RuntimeError):
                abscenter.compare(t)

    def test_out_of_bound_triples_are_not_checked(self, oracle_missing_generator, zm_5_16_2):
        cmp = abscenter.compare(zm_5_16_2, oracle_bound=79)
        assert cmp.oracle_order is None and cmp.agree is None

    def test_verify_does_not_pass(self, oracle_missing_generator, capsys):
        with pytest.raises(RuntimeError):
            cli.main(["verify", "4", "--json"])
        assert '"pass": true' not in capsys.readouterr().out
