import json
import math
from fractions import Fraction

import pytest

from group_helpers import power
from slow_reference import (
    reference_absolute_center_formula,
    reference_absolute_center_oracle,
    reference_agree,
    reference_compare,
    reference_generator_oracle,
    reference_product_oracle,
)
from zmcenter import abscenter, aut, cli, schemas
from zmcenter.genericgroup import cyclic_group, direct_product
from zmcenter.numtheory import euler_phi, factorize, geometric_sum_mod
from zmcenter.zm import ZmElement, iter_valid_triples, validate_triple


class TestExponentE:
    def test_classic_fixtures(self, zm_5_16_2, zm_5_48_2):
        assert abscenter.exponent_e(zm_5_16_2) == 1
        assert abscenter.exponent_e(zm_5_48_2) == 3

    def test_d_equals_n_gives_trivial_center_fixed_part(self, zm_5_4_2):
        assert abscenter.exponent_e(zm_5_4_2) == 1
        result = abscenter.absolute_center_formula(zm_5_4_2)
        assert result.formula_order == 1

    def test_minimality(self, small_triples):
        for t in small_triples:
            e = abscenter.exponent_e(t)
            assert (t.d * t.d * e) % t.n == 0
            for s in range(1, e):
                assert (t.d * t.d * s) % t.n != 0


class TestFormula:
    def test_fixture_where_l_equals_z(self, zm_5_16_2):
        result = abscenter.absolute_center_formula(zm_5_16_2)
        assert result.formula_generator == ZmElement(4, 0)
        assert result.formula_order == 4
        _, z_order = zm_5_16_2.center()
        assert result.formula_order == z_order
        # the oracle has not run
        assert result.oracle_order is None and result.agree is None

    def test_fixture_where_l_is_proper_in_z(self, zm_5_48_2):
        result = abscenter.absolute_center_formula(zm_5_48_2)
        assert result.formula_generator == ZmElement(12, 0)
        assert result.formula_order == 4
        _, z_order = zm_5_48_2.center()
        assert z_order == 12 and result.formula_order < z_order

    def test_derived_example(self, zm_7_9_2):
        result = abscenter.absolute_center_formula(zm_7_9_2)
        assert zm_7_9_2.d == 3
        assert result.e == 1
        assert result.formula_generator == ZmElement(3, 0)
        assert result.formula_order == 3
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
            assert result.formula_order == t.n // math.gcd(de, t.n)
            assert result.formula_order == (t.n // t.d) // math.gcd(result.e, t.n // t.d)


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
            center = {power(t, z_gen, k) for k in range(z_order)}
            assert oracle <= center
            for g in oracle:
                for h in oracle:
                    assert t.multiply(g, h) in oracle
                assert t.inverse(g) in oracle

    def test_oracle_is_cyclic_generated_by_power_of_b(self, small_triples):
        for t in small_triples:
            oracle = abscenter.absolute_center_oracle(t)
            assert any(
                {power(t, g, k) for k in range(len(oracle))} == oracle for g in oracle
            )
            assert all(g.v == 0 for g in oracle)

    def test_formula_generator_always_fixed(self, small_triples):
        # the closed form is a subgroup of L even off-regime
        for t in small_triples:
            if t.m == 1:
                continue
            result = abscenter.absolute_center_formula(t)
            oracle = abscenter.absolute_center_oracle(t)
            span = {power(t, result.formula_generator, k) for k in range(result.formula_order)}
            assert span <= oracle

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

    def test_equals_product_scan(self, valid_triples):
        regimes = set()
        checked = 0
        for t in valid_triples:
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

    def test_gcd_folds_stop_at_their_floor(self, monkeypatch, zm_5_16_2, valid_triples):
        read = {"units": 0, "valid_ys": 0}

        def counting(name, real):
            def wrapped(t):
                for x in real(t):
                    read[name] += 1
                    yield x

            return wrapped

        monkeypatch.setattr(aut, "units", counting("units", aut.units))
        monkeypatch.setattr(aut, "valid_ys", counting("valid_ys", aut.valid_ys))
        for t in [*valid_triples, *(validate_triple(1, n, 1) for n in range(1, 31))]:
            read["units"] = 0
            abscenter.absolute_center_oracle(t)
            # x1 = 1 leaves m, x1 = 2 takes the fold to 1 (m is odd)
            assert read["units"] == min(t.m, 2), t
        # y = 1, 5 mod 16: gcd(16, 0, 4) is already d = 4; 9 and 13 stay unread
        read["valid_ys"] = 0
        abscenter.absolute_center_oracle(zm_5_16_2)
        assert read["valid_ys"] == 2
        # m = 10^12 + 39 is prime and 1 (mod 3): phi(m) units could never be
        # listed, yet the oracle reads two of them
        m = 10**12 + 39
        t = validate_triple(m, 3, pow(2, (m - 1) // 3, m))
        read["units"] = 0
        fixed = abscenter.absolute_center_oracle(t)
        assert read["units"] == 2 and fixed == {ZmElement(0, 0)}

    def test_u_fold_stops_at_the_full_gcd(self, monkeypatch):
        # gcd(n, y - 1 over all y) is gcd(n, lcm(d, 2)) for even n (every
        # admissible y is odd) and d for odd n; a fold that stopped at d
        # read every y whenever n is even and d odd
        reads = []

        def counting(t):
            for y in real(t):
                reads.append(y)
                yield y

        real = aut.valid_ys
        monkeypatch.setattr(aut, "valid_ys", counting)
        # L is the b^u with (n / 2d) | u and d | u: u = 0, 3*10^4 in
        # ZM(7, 6*10^4, 2), u = 0, 10^6 in C_(2*10^6), and all six multiples
        # of n / 6 = 2*3^11 in ZM(13, 4*3^12, 3)
        big = {(7, 6 * 10**4, 2): 2, (1, 2 * 10**6, 1): 2, (13, 4 * 3**12, 3): 6}
        for (m, n, r), size in big.items():
            t = validate_triple(m, n, r)
            reads.clear()
            fixed = abscenter.absolute_center_oracle(t)
            assert len(reads) <= 4, (t, len(reads))
            assert len(fixed) == size, t
        # stopping early loses nothing: the values read already give the
        # gcd over every admissible y
        for t in [*iter_valid_triples(500), *(validate_triple(1, n, 1) for n in range(1, 501))]:
            reads.clear()
            abscenter.absolute_center_oracle(t)
            assert reads, t
            full = math.gcd(t.n, *(y - 1 for y in real(t)))
            assert math.gcd(t.n, *(y - 1 for y in reads)) == full, t


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
        assert not cmp.triple.regime_guaranteed
        oracle = abscenter.absolute_center_oracle(zm_7_6_2)
        assert oracle == {ZmElement(0, 0), ZmElement(3, 0)}

    def test_oracle_runs_at_the_bound_and_never_past_it(self, monkeypatch):
        calls = []
        real = abscenter.absolute_center_oracle

        def spy(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(abscenter, "absolute_center_oracle", spy)
        at, past = validate_triple(125, 16, 57), validate_triple(3, 668, 2)
        assert at.order == abscenter.ORACLE_BOUND == 2000 < past.order == 2004
        cmp = abscenter.compare(at)
        assert (cmp.oracle_order, cmp.agree, calls) == (4, True, [at])
        cmp = abscenter.compare(past)
        assert (cmp.oracle_order, cmp.agree, calls) == (None, None, [at])

    def test_l_order_divides_z_order(self, small_triples):
        for t in small_triples:
            oracle = abscenter.absolute_center_oracle(t)
            _, z_order = t.center()
            assert z_order % len(oracle) == 0

    def test_agree_matches_the_power_span_reference(self, valid_triples):
        agree = [abscenter.compare(t).agree for t in valid_triples]
        assert len(valid_triples) == 7318
        assert agree == [reference_agree(t) for t in valid_triples]
        assert True in agree and False in agree

    def test_matches_the_replace_reference(self, valid_triples):
        assert [abscenter.compare(t) for t in valid_triples] == [
            reference_compare(t) for t in valid_triples
        ]

    def test_matches_the_replace_reference_above_the_oracle_bound(self):
        # order 2004, just above ORACLE_BOUND: the oracle is skipped
        t = validate_triple(3, 668, 2)
        cmp = abscenter.compare(t)
        assert cmp == reference_compare(t)
        assert cmp.oracle_order is None and cmp.agree is None

    def test_same_size_oracle_missing_a_power_disagrees(self, monkeypatch, zm_5_16_2):
        # the oracle swaps b^8 for b^1: as large as the span of b^4 and
        # holding the generator, yet not equal to the span
        real_oracle = abscenter.absolute_center_oracle
        swapped = lambda t: real_oracle(t) - {ZmElement(8, 0)} | {ZmElement(1, 0)}
        monkeypatch.setattr(abscenter, "absolute_center_oracle", swapped)
        cmp = abscenter.compare(zm_5_16_2)
        assert cmp == reference_compare(zm_5_16_2)
        assert (cmp.oracle_order, cmp.agree) == (4, False)

    def test_json_shape(self, zm_5_16_2):
        doc = json.loads(schemas.abscenter(abscenter.compare(zm_5_16_2)))
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
            assert result.formula_generator in abscenter.absolute_center_oracle(t), t
            checked += 1
        assert checked > 100

    @pytest.fixture
    def oracle_missing_generator(self, monkeypatch):
        real_oracle = abscenter.absolute_center_oracle

        def broken(t):
            generator = abscenter.absolute_center_formula(t).formula_generator
            return real_oracle(t) - {generator}

        monkeypatch.setattr(abscenter, "absolute_center_oracle", broken)

    def test_compare_raises(self, oracle_missing_generator, zm_5_16_2, zm_5_4_2):
        for t in (zm_5_16_2, zm_5_4_2):
            with pytest.raises(RuntimeError):
                abscenter.compare(t)

    def test_out_of_bound_triples_are_not_checked(self, oracle_missing_generator):
        # order 2004, just above ORACLE_BOUND
        cmp = abscenter.compare(validate_triple(3, 668, 2))
        assert cmp.oracle_order is None and cmp.agree is None

    def test_verify_does_not_pass(self, oracle_missing_generator, capsys):
        with pytest.raises(RuntimeError):
            cli.main(["verify", "4", "--json"])
        assert '"pass": true' not in capsys.readouterr().out


def _split(t):
    """(n2, factor): n2 is the part of n prime to d, found without factoring
    by the loop of `ZmTriple.regime_guaranteed`, and factor is the
    complement ZM(m, n/n2, r^n2) in the split ZM(m, n, r) = C_n2 x factor."""
    n2 = t.n
    while (g := math.gcd(n2, t.d)) > 1:
        n2 //= g
    return n2, validate_triple(t.m, t.n // n2, pow(t.r, n2, t.m))


class TestRegimes:
    """Where the paper's formulas drift, and the exact forms in every regime.

    Write n = n1*n2, with n2 the part of n prime to d (`_split`).  Then
    ZM(m, n, r) = C_n2 x ZM(m, n1, r^n2), and the paper's forms see only
    the second factor:
      1. (b^u a^v)(b^s a^w) = b^(u+s) a^(v*r^s + w), so b^s is central iff
         d | s.  d | n1, so b^n1 is central, of order n2.
      2. gcd(d, n2) = 1, so r^n2 has order d mod m, and is 1 mod no prime
         of m (r is not, and its order mod that prime divides d).  So
         (m, n1, r^n2) is a valid triple with the same d, every prime of
         n1 divides d, and <a, b^n2> is that group: the guaranteed regime.
      3. The two subgroups commute, meet trivially and have coprime orders
         n2 and m*n1.  By the CRT, b^u = b^(n1*x) * b^(n2*y) with
         x = u/n1 mod n2 and y = u/n2 mod n1, so they generate the group.
      4. Coprime factors are characteristic (the elements of order dividing
         |A|, resp. |B|), so Aut(A x B) = Aut(A) x Aut(B) and
         L(A x B) = L(A) x L(B).  In C_k the maps x -> j*x, j a unit, fix x
         iff (j - 1)*x = 0 for every j; j = -1 gives 2x = 0, and every j is
         odd when k is even, so L(C_k) = C_gcd(k, 2).
    So |L| = gcd(n2, 2) * |L(ZM(m, n1, r^n2))| and
    |Aut| = phi(n2) * m*phi(m)*n1/d.  With e = n2*e', the paper's b^(d*e)
    is (0, b'^(d*e')), the generator of the second factor's L.  Its |L|
    therefore drifts exactly when n2 is even (n even and d odd), and its
    m*phi(m)*n/d exactly when n2 > 1 (outside the guaranteed regime).

    Checked on every valid triple with m*n <= 2000; the split itself is
    checked as a table isomorphism on every one with n2 > 1 and m*n <= 200.
    """

    @pytest.fixture(scope="class")
    def rows(self, valid_triples):
        return [(t, *_split(t), abscenter.compare(t)) for t in valid_triples]

    def test_totals_are_pinned(self, rows):
        assert len(rows) == 7318
        assert sum(n2 > 1 for _, n2, _, _ in rows) == 3366
        assert sum(n2 % 2 == 0 for _, n2, _, _ in rows) == 740

    def test_l_drifts_exactly_when_n2_is_even(self, rows):
        for t, n2, _, cmp in rows:
            n_even_d_odd = t.n % 2 == 0 and t.d % 2 == 1
            assert (cmp.agree is False) == (n2 % 2 == 0) == n_even_d_odd, t

    def test_aut_drifts_exactly_when_n2_exceeds_one(self, rows):
        for t, n2, _, _ in rows:
            drift = aut.aut_counts(t).aut != aut.family_size(t)
            assert drift == (n2 > 1) == (not t.regime_guaranteed), t

    def test_oracle_is_the_exact_form(self, rows):
        for t, _, _, _ in rows:
            big_g = math.gcd(t.n, 2 * t.d) if t.n % 2 == 0 and t.d % 2 == 1 else t.d
            k = math.lcm(t.d, t.n // big_g)
            exact = {ZmElement(u, 0) for u in range(0, t.n, k)}
            assert abscenter.absolute_center_oracle(t) == exact, t

    def test_family_size_is_the_exact_form(self, rows):
        for t, n2, factor, _ in rows:
            size = aut.family_size(t)
            assert size == t.m * t.phi_m * (factor.n // t.d) * euler_phi(n2), t
            missing = [p for p, _ in factorize(t.n) if t.d % p]
            share = math.prod(1 - Fraction(1, p) for p in missing)
            assert size == t.m * t.phi_m * Fraction(t.n, t.d) * share, t

    def test_split_factor_is_guaranteed_and_carries_l(self, rows):
        for t, n2, factor, cmp in rows:
            assert factor.d == t.d and factor.regime_guaranteed, t
            factor_l = abscenter.absolute_center_formula(factor).formula_order
            assert cmp.oracle_order == math.gcd(n2, 2) * factor_l, t

    def test_split_is_an_isomorphism_on_tables(self, rows):
        checked = 0
        for t, n2, factor, _ in rows:
            if n2 == 1 or t.order > 200:
                continue
            m, n1 = t.m, factor.n
            product = direct_product([cyclic_group(n2), factor.cayley()]).table
            inv_n1, inv_n2 = pow(n1, -1, n2), pow(n2, -1, n1)
            # b^u a^v -> (u/n1 mod n2, b'^(u/n2 mod n1) a'^v), factor-major
            pi = [
                (u * inv_n1 % n2 * n1 + u * inv_n2 % n1) * m + v
                for u in range(t.n)
                for v in range(m)
            ]
            assert sorted(pi) == list(range(t.order)), t
            for i, row in enumerate(t.cayley().table):
                assert [pi[x] for x in row] == [product[pi[i]][y] for y in pi], t
            checked += 1
        assert checked == 94
