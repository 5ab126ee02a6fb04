import dataclasses
import hashlib
import json
import math
import pathlib
import types

import pytest

from group_helpers import NAMED_GROUPS, certificate_from_document, divisors
from slow_reference import (
    reference_as_group,
    reference_coset_subgroups,
    reference_forward_records,
    reference_product_rows,
    reference_validate_certificate,
    reference_verify_forward,
)
from zmcenter import abscenter, cli, genericgroup, realiser, schemas
from zmcenter.config import Bounds
from zmcenter.errors import BoundExceededError, CertificateError, TripleError
from zmcenter.zm import ZmTriple, check_presentation, validate_triple

DATA = pathlib.Path(__file__).parent / "data"


class TestRealise:
    def test_trivial(self):
        cert = realiser.realise(1)
        assert cert.N == 1 and cert.factors == ()

    def test_prime_power_fixture(self):
        cert = realiser.realise(4)
        assert len(cert.factors) == 1
        f = cert.factors[0]
        assert (f.q, f.alpha, f.p, f.r) == (2, 2, 5, 2)
        (t,) = cert.triples()
        assert (t.m, t.n, t.r, t.d) == (5, 16, 2, 4)

    def test_two_factor_fixture(self):
        cert = realiser.realise(12)
        assert [(f.q, f.alpha, f.p) for f in cert.factors] == [(2, 2, 5), (3, 1, 7)]
        triples = cert.triples()
        assert math.prod(t.order for t in triples) == 5040

    def test_auxiliary_primes_avoid_all_base_primes(self):
        # the q = 2 factor of N = 6 cannot take p = 3 since 3 divides 6
        cert = realiser.realise(6)
        assert [f.p for f in cert.factors] == [5, 7]

    def test_deterministic(self):
        for n in (1, 7, 12, 30):
            assert realiser.realise(n) == realiser.realise(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            realiser.realise(0)

    def test_factor_l_orders_multiply_to_n(self):
        from zmcenter import abscenter

        for n in range(1, 31):
            cert = realiser.realise(n)
            orders = [
                abscenter.absolute_center_formula(t).formula_order for t in cert.triples()
            ]
            assert math.prod(orders) == n
            for t, f in zip(cert.triples(), cert.factors):
                assert t.regime_guaranteed
                assert t.d == f.q_pow


class TestCertificateValidation:
    def test_emitted_certificates_revalidate(self):
        for n in (1, 2, 9, 16, 30):
            realiser.validate_certificate(realiser.realise(n))

    def test_bad_decomposition_rejected(self):
        good = realiser.realise(4).factors[0]
        with pytest.raises(CertificateError):
            realiser.validate_certificate(realiser.RealiserCertificate(N=8, factors=(good,)))

    def test_colliding_primes_rejected(self):
        bad = realiser.FactorWitness(q=2, alpha=2, p=2, r=1)
        with pytest.raises(CertificateError):
            realiser.validate_certificate(realiser.RealiserCertificate(N=4, factors=(bad,)))

    @pytest.mark.parametrize(
        "N, factors, message",
        [
            # two equal p: 7 is 1 mod 2 and 1 mod 3
            (6, [(2, 1, 7, 6), (3, 1, 7, 2)], "auxiliary primes are not distinct"),
            # two equal q
            (4, [(2, 1, 3, 2), (2, 1, 5, 4)], "do not match the decomposition"),
            # a p equal to a q: 3 is 1 mod 2 and divides N
            (6, [(2, 1, 3, 2), (3, 1, 7, 2)], r"collide with \[3\]"),
        ],
    )
    def test_factor_orders_sharing_a_prime_rejected_by_an_earlier_check(
        self, N, factors, message
    ):
        # the three ways two orders p * q^(2 alpha) can share a prime; each
        # is refused before coprimality would be in question
        witnesses = tuple(realiser.FactorWitness(*f) for f in factors)
        orders = [f.p * f.q ** (2 * f.alpha) for f in witnesses]
        assert math.gcd(*orders) > 1
        with pytest.raises(CertificateError, match=message):
            realiser.validate_certificate(realiser.RealiserCertificate(N=N, factors=witnesses))

    def test_composite_auxiliary_prime_rejected(self):
        # 8 has order 2 mod 9 and ZM(9, 4, 8) is a valid presentation, so
        # only the primality test rejects this witness.  9 = 1 + 4*2 has
        # t = 4 > q^alpha + 1 = 3, outside Pocklington's lemma, so is_prime
        # decides it
        bad = realiser.FactorWitness(q=2, alpha=1, p=9, r=8)
        check_presentation(9, 4, 8)
        with pytest.raises(CertificateError, match="9 is not prime"):
            realiser.RealiserCertificate(N=2, factors=(bad,))

    def test_wrong_order_rejected(self):
        bad = realiser.FactorWitness(q=2, alpha=2, p=5, r=4)  # o_5(4) = 2, not 4
        with pytest.raises(CertificateError):
            realiser.validate_certificate(realiser.RealiserCertificate(N=4, factors=(bad,)))

    @pytest.mark.parametrize("r", [0, 5, 10])
    def test_loaded_r_divisible_by_p_is_a_certificate_error(self, r):
        # a multiple of p has no order mod p: the refusal says so rather
        # than fail to compute one
        doc = json.loads(schemas.certificate(realiser.realise(4)))
        assert doc["factors"][0]["p"] == 5
        doc["factors"][0]["r"] = r
        with pytest.raises(CertificateError, match=rf"^{r} is not a unit mod 5"):
            certificate_from_document(doc)

    def test_negative_r_presentation_rejected(self):
        # -1 has order 2 mod 3, so only the range check of the factor
        # presentation ZM(3, 4, -1) rejects this witness
        bad = realiser.FactorWitness(q=2, alpha=1, p=3, r=-1)
        with pytest.raises(TripleError, match=r"need m, n, r >= 1, got \(3,4,-1\)") as exc:
            realiser.validate_certificate(realiser.RealiserCertificate(N=2, factors=(bad,)))
        assert exc.value.reason == "range"

    def test_r_at_least_p_accepted(self):
        # r = 5 reduces to 2 mod 3, and ZM(3, 4, 2) is a valid presentation
        good = realiser.FactorWitness(q=2, alpha=1, p=3, r=5)
        cert = realiser.RealiserCertificate(N=2, factors=(good,))
        realiser.validate_certificate(cert)
        assert cert.triples() == [validate_triple(3, 4, 5)] == [ZmTriple(3, 4, 2, 2)]

    def test_triples_are_the_validated_presentations(self, monkeypatch):
        # triples() reads ZM(p, q^(2 alpha), r mod p) with d = q^alpha off
        # the witness; validate_certificate proved both, so no presentation
        # check and no order computation runs again
        certs = [realiser.realise(n) for n in range(1, 201)]
        expected = [
            [validate_triple(f.p, f.q ** (2 * f.alpha), f.r) for f in cert.factors]
            for cert in certs
        ]
        from zmcenter import zm

        calls = []
        for module in (zm, realiser):
            for name in ("check_presentation", "validate_triple", "multiplicative_order"):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        assert [cert.triples() for cert in certs] == expected
        assert calls == []

    def test_auxiliary_prime_past_certified_range_is_a_bound_error(self):
        # is_prime cannot certify p >= psi_12; its own BoundExceededError,
        # which names the certified range, reaches the caller unchanged
        psi12 = 318665857834031151167461
        doc = {"schema": 1, "N": 2, "factors": [{"q": 2, "alpha": 1, "p": psi12 + 2, "r": 1}]}
        with pytest.raises(BoundExceededError, match=r"certified range .*psi_12"):
            certificate_from_document(doc)

    def test_loaded_certificate_factors_its_own_n(self):
        # the decomposition realise hands to the check is not reused when a
        # certificate is rebuilt from its fields: a document whose N no
        # longer matches its factors is refused
        doc = json.loads(schemas.certificate(realiser.realise(4)))
        doc["N"] = 8
        with pytest.raises(CertificateError, match="do not match the decomposition"):
            certificate_from_document(doc)

    def test_json_roundtrip(self):
        for n in range(1, 201):
            cert = realiser.realise(n)
            text = schemas.certificate(cert)
            again = certificate_from_document(json.loads(text))
            assert again == cert
            assert schemas.certificate(again) == text

    def test_json_schema_field(self):
        # the document is the certificate's fields plus the schema number:
        # N, and per factor exactly the fields of a FactorWitness
        doc = json.loads(schemas.certificate(realiser.realise(12)))
        assert doc["schema"] == 1
        assert set(doc) == {"schema", "N", "factors"}
        fields = {f.name for f in dataclasses.fields(realiser.FactorWitness)}
        assert all(set(f) == fields for f in doc["factors"])

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            # N itself, then N against its factors in ascending q
            (lambda d: d.update(N=0), CertificateError, "^N must be >= 1, got 0$"),
            (lambda d: d.update(N=-12), CertificateError, "^N must be >= 1, got -12$"),
            (lambda d: d.update(N=24), CertificateError, "do not match the decomposition"),
            (lambda d: d.update(N=6), CertificateError, "do not match the decomposition"),
            (lambda d: d["factors"].reverse(), CertificateError, "do not match the decomposition"),
            (lambda d: d["factors"].pop(1), CertificateError, "do not match the decomposition"),
            (lambda d: d["factors"][0].update(alpha=1), CertificateError, "do not match the"),
            (lambda d: d["factors"][1].update(q=5), CertificateError, "do not match the"),
            # the auxiliary primes among themselves and against the q
            (lambda d: d["factors"][1].update(p=5), CertificateError, r"not distinct: \[5, 5\]"),
            (lambda d: d["factors"][0].update(p=3), CertificateError, r"collide with \[3\]"),
            # each factor's p and r
            (lambda d: d["factors"][0].update(p=1), CertificateError, "^1 is not prime$"),
            (lambda d: d["factors"][0].update(p=9), CertificateError, "^9 is not prime$"),
            (lambda d: d["factors"][1].update(p=11), CertificateError, "^11 is not 1 mod 3$"),
            (lambda d: d["factors"][0].update(r=4), CertificateError, "^order of 4 mod 5 is 2, "),
            (lambda d: d["factors"][1].update(r=1), CertificateError, "^order of 1 mod 7 is 1, "),
            (lambda d: d["factors"][1].update(r=14), CertificateError, "^14 is not a unit mod 7"),
            (lambda d: d["factors"][0].update(r=-3), TripleError, r"need m, n, r >= 1"),
        ],
    )
    def test_edited_document_is_refused_when_rebuilt(self, edit, error, message):
        # every check of validate_certificate reaches a certificate rebuilt
        # from the fields of an emitted document: one edited field is
        # refused with the message of the check it breaks
        doc = json.loads(schemas.certificate(realiser.realise(12)))
        certificate_from_document(doc)
        edit(doc)
        with pytest.raises(error, match=message):
            certificate_from_document(doc)

    @pytest.mark.parametrize(
        "N, mutation",
        [
            # composite p: 1729 = 1 + 27*64 passes Fermat's test to every
            # unit base and has t = 27 <= 2^6 + 1; 9 = 1 + 4*2 and
            # 25 = 1 + 6*4 = (4 + 1)^2 lie just past the lemma's bound, and
            # 7 has order 4 mod 25, so only the bound refuses it there
            (64, {"p": 1729, "r": 1728}),
            (64, {"p": 1729, "r": 2}),
            (2, {"p": 9, "r": 8}),
            (4, {"p": 25, "r": 7}),
            (4, {"p": 25, "r": 2}),
            # 15 = 3 * 5 is not 1 mod 4, and 7 has order 4 mod 5 and 1
            # mod 3: 7^2 = 4 != 1 mod 15, yet gcd(4 - 1, 15) = 3 refuses it
            (4, {"p": 15, "r": 7}),
            # an r of the wrong order, below or above a prime p
            (4, {"r": 4}),
            (10**12 + 39, {"r": 1}),
            (64, {"r": 9}),
            # p not 1 mod q^alpha: 7 is prime and 1 mod 2, not mod 4
            (4, {"p": 7, "r": 6}),
            (64, {"p": 97}),
            # r a multiple of p
            (4, {"r": 0}),
            (64, {"r": 193 * 3}),
            # p at or past psi_12
            (2, {"p": 318665857834031151167461, "r": 1}),
            (2, {"p": 318665857834031151167463, "r": 1}),
        ],
    )
    def test_mutated_certificate_matches_the_is_prime_reference(self, N, mutation):
        # the check proves p by the lemma where it applies and calls
        # is_prime otherwise; a refusal has the type and message of the
        # reference, which calls is_prime on every p
        cert = realiser.realise(N)
        factors = (dataclasses.replace(cert.factors[0], **mutation),) + cert.factors[1:]
        loose = types.SimpleNamespace(N=N, factors=factors)
        with pytest.raises(Exception) as expected:
            reference_validate_certificate(loose)
        with pytest.raises(type(expected.value)) as got:
            realiser.RealiserCertificate(N=N, factors=factors)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


class TestSubgroupForDivisor:
    def test_full_divisor_gives_the_factors_back(self):
        cert = realiser.realise(12)
        triples = realiser.subgroup_for_divisor(cert, 12)
        assert [(t.m, t.n, t.r) for t in triples] == [
            (t.m, t.n, t.r) for t in cert.triples()
        ]

    def test_unit_divisor_gives_trivial_absolute_centers(self):
        from zmcenter import abscenter

        cert = realiser.realise(12)
        for t in realiser.subgroup_for_divisor(cert, 1):
            assert t.d == t.n  # b-part shrunk to q^alpha
            assert abscenter.absolute_center_formula(t).formula_order == 1

    def test_intermediate_divisor(self):
        from zmcenter import abscenter

        cert = realiser.realise(12)
        triples = realiser.subgroup_for_divisor(cert, 2)
        assert [(t.m, t.n) for t in triples] == [(5, 8), (7, 3)]
        assert [abscenter.absolute_center_formula(t).formula_order for t in triples] == [2, 1]

    def test_non_divisor_rejected(self):
        cert = realiser.realise(12)
        with pytest.raises(ValueError):
            realiser.subgroup_for_divisor(cert, 5)

    def test_divisor_triples_compute_each_order_once(self, monkeypatch):
        from zmcenter import zm

        cert = realiser.realise(720)  # 2^4 * 3^2 * 5
        expected = [
            [validate_triple(f.p, f.q ** (f.alpha + beta), f.r) for beta in range(f.alpha + 1)]
            for f in cert.factors
        ]
        moduli = []
        order = zm.multiplicative_order
        monkeypatch.setattr(zm, "multiplicative_order", lambda r, m: moduli.append(m) or order(r, m))
        assert [f.divisor_triples() for f in cert.factors] == expected
        assert moduli == [f.p for f in cert.factors]


class TestVerifyForward:
    def test_small_fixtures_pass(self):
        for n in (1, 4, 12):
            cert = realiser.realise(n)
            rows = realiser.verify_forward(cert)
            assert [row.divisor for row in rows] == divisors(n)
            assert all(row.passed for row in rows)
            assert {row.formula_product for row in rows} == set(divisors(n))

    def test_oracle_cross_checks_ran_for_small_factors(self):
        rows = realiser.verify_forward(realiser.realise(4))
        for row in rows:
            for fr in row.factors:
                assert fr.oracle_order is not None
                assert fr.agree is True

    def test_formula_only_rows_are_marked(self):
        # N = 25 forces factors of order 101 * 5^k > 2000
        rows = realiser.verify_forward(realiser.realise(25))
        assert all(row.passed for row in rows)
        big = [fr for row in rows for fr in row.factors if fr.triple.order > 2000]
        assert big and all(fr.oracle_order is None and fr.agree is None for fr in big)

    def test_certificate_missing_a_factor_is_rejected(self, monkeypatch):
        # the q = 2 witness of realise(12) is valid on its own, but without
        # the q = 3 witness the divisors 3, 6 and 12 would get no row, and
        # the converse would scan only the factor it was given; such a
        # certificate cannot be built, so no verifier ever sees one
        factors = realiser.realise(12).factors[:1]
        built = []
        monkeypatch.setattr(ZmTriple, "cayley", lambda t, *a, **k: built.append(t))
        with pytest.raises(CertificateError, match="decomposition"):
            realiser.RealiserCertificate(N=12, factors=factors)
        assert built == []

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 720, 5040, 720720])
    def test_matches_unmemoised_reference(self, n):
        cert = realiser.realise(n)
        rows = realiser.verify_forward(cert)
        reference = reference_verify_forward(cert)
        assert len(rows) == len(reference)
        for row, ref in zip(rows, reference):
            assert row == ref

    def test_fold_matches_product_rows_up_to_2000(self):
        for n in range(1, 2001):
            cert = realiser.realise(n)
            rows = realiser.verify_forward(cert)
            assert rows == reference_product_rows(reference_forward_records(cert)), n

    def test_fold_matches_product_rows_on_6720_divisors(self):
        cert = realiser.realise(963761198400)
        rows = realiser.verify_forward(cert)
        assert len(rows) == 6720
        assert rows == reference_product_rows(reference_forward_records(cert))

    def test_fold_matches_product_rows_on_skipped_and_failed_records(self, monkeypatch):
        # 720 = 2^4 3^2 5: the oracle is skipped at q = 2, beta = 1 and
        # disagrees at q = 3, beta = 1, so rows mix a null oracle product
        # with numbers and failing with passing verdicts
        real_compare = abscenter.compare

        def mixed(t):
            c = real_compare(t)
            if t.n == 2**5:
                return dataclasses.replace(c, oracle_order=None, agree=None)
            if t.n == 3**3:
                return dataclasses.replace(c, agree=False)
            return c

        monkeypatch.setattr(abscenter, "compare", mixed)
        cert = realiser.realise(720)
        rows = realiser.verify_forward(cert)
        assert rows == reference_product_rows(reference_forward_records(cert))
        assert {row.oracle_product is None for row in rows} == {True, False}
        assert {row.passed for row in rows} == {True, False}
        assert all(row.passed == (math.gcd(row.divisor, 3**2) != 3) for row in rows)

    def test_each_distinct_triple_compared_once_per_call(self, monkeypatch):
        compared = []
        real_compare = abscenter.compare

        def counting(t, *args, **kwargs):
            compared.append(t)
            return real_compare(t, *args, **kwargs)

        monkeypatch.setattr(abscenter, "compare", counting)
        cert = realiser.realise(720720)
        rows = realiser.verify_forward(cert)
        distinct = {fr.triple for row in rows for fr in row.factors}
        assert len(distinct) == 16
        assert sorted(compared, key=str) == sorted(distinct, key=str)
        # no state survives the call: a second verification compares again
        assert realiser.verify_forward(cert) == rows
        assert len(compared) == 2 * len(distinct)

    def test_each_factor_exponent_checked_once(self, monkeypatch):
        # verify 720720 = 2^4 3^2 5 7 11 13: the (factor, beta) pairs number
        # 5 + 3 + 2 + 2 + 2 + 2, while the factor triples of all 240
        # divisors number 6 * 240.  Each pair's presentation is checked
        # once, and ord_p(r) is computed once per factor, at beta = 0.
        from zmcenter import zm

        checked, validated = [], []
        inside = []
        real_check, real_validate = zm.check_presentation, realiser.validate_triple
        real_forward = realiser.verify_forward

        def counting_check(m, n, r):
            if inside:
                checked.append((m, n, r))
            return real_check(m, n, r)

        def counting_validate(m, n, r):
            if inside:
                validated.append((m, n, r))
            return real_validate(m, n, r)

        def marked_forward(*args, **kwargs):
            inside.append(True)
            try:
                return real_forward(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(zm, "check_presentation", counting_check)
        monkeypatch.setattr(realiser, "check_presentation", counting_check)
        monkeypatch.setattr(realiser, "validate_triple", counting_validate)
        monkeypatch.setattr(realiser, "verify_forward", marked_forward)
        assert cli.main(["verify", "720720", "--json"]) == 0
        cert = realiser.realise(720720)
        pairs = {(f, beta) for f in cert.factors for beta in range(f.alpha + 1)}
        assert len(pairs) == 16
        assert len(checked) == len(set(checked)) == len(pairs)
        assert set(checked) == {(f.p, f.q ** (f.alpha + beta), f.r) for f, beta in pairs}
        assert validated == [(f.p, f.q**f.alpha, f.r) for f in cert.factors]


class TestSharedComparisons:
    def test_rows_hold_the_comparisons_of_compare(self):
        # 720720 = 2^4 3^2 5 7 11 13: 240 divisors of 6 factor slots each,
        # filled from 5 + 3 + 2 + 2 + 2 + 2 comparison records
        rows = realiser.verify_forward(realiser.realise(720720))
        assert len(rows) == 240
        records = {id(c): c for row in rows for c in row.factors}
        assert len(records) == 16
        for c in records.values():
            assert isinstance(c, abscenter.AbsCenterComparison)
            assert c == abscenter.compare(c.triple)

    def test_row_passes_only_if_each_factor_realises_its_share(self, monkeypatch):
        # realise(6) at divisor 6 takes ZM(5,4,4) and ZM(7,9,4).  Swap
        # their formula orders to 3 and 2 and skip the oracle: the product
        # is still 6 and the orders are coprime, but neither factor has
        # the order its q^beta requires, so the row fails
        cert = realiser.realise(6)
        real_compare = abscenter.compare
        swapped = {(5, 4, 4): 3, (7, 9, 4): 2}

        def injected(t, *args, **kwargs):
            c = real_compare(t, *args, **kwargs)
            if (t.m, t.n, t.r) in swapped:
                return dataclasses.replace(
                    c, formula_order=swapped[(t.m, t.n, t.r)], oracle_order=None, agree=None
                )
            return c

        monkeypatch.setattr(abscenter, "compare", injected)
        rows = {row.divisor: row for row in realiser.verify_forward(cert)}
        row = rows[6]
        assert [str(c.triple) for c in row.factors] == ["ZM(5,4,4)", "ZM(7,9,4)"]
        assert (row.divisor, row.formula_product, row.passed) == (6, 6, False)
        assert row.oracle_product is None
        assert [rows[n].passed for n in (1, 2, 3)] == [True, False, False]

    def test_row_fails_when_the_oracle_disagrees_at_the_right_orders(self, monkeypatch):
        # realise(6) takes ZM(5,4,4) at beta = 1 of q = 2.  Mark its
        # comparison as a disagreement, keeping formula and oracle orders
        # at q^beta = 2: only the verdict says the oracle set differs, and
        # the rows that take this factor must fail on it alone
        cert = realiser.realise(6)
        real_compare = abscenter.compare

        def injected(t, *args, **kwargs):
            c = real_compare(t, *args, **kwargs)
            if (t.m, t.n, t.r) == (5, 4, 4):
                return dataclasses.replace(c, agree=False)
            return c

        monkeypatch.setattr(abscenter, "compare", injected)
        rows = {row.divisor: row for row in realiser.verify_forward(cert)}
        (c,) = {c for n in (2, 6) for c in rows[n].factors if c.triple.m == 5}
        assert (c.formula_order, c.oracle_order, c.agree) == (2, 2, False)
        assert [rows[n].formula_product for n in (1, 2, 3, 6)] == [1, 2, 3, 6]
        assert [rows[n].oracle_product for n in (1, 2, 3, 6)] == [1, 2, 3, 6]
        assert [rows[n].passed for n in (1, 2, 3, 6)] == [True, False, True, False]

    def test_certificate_without_factors_has_one_passing_row(self):
        cert = realiser.RealiserCertificate(N=1, factors=())
        (row,) = realiser.verify_forward(cert)
        assert row == realiser.ForwardRow(
            divisor=1, factors=(), formula_product=1, oracle_product=1, passed=True
        )


class TestRealSubgroupsRealiseEveryDivisor:
    """The subgroups of a factor H = ZM(p, q^(2 alpha), r) that realise its
    divisors.  For beta < alpha the triple `divisor_triples` compares is
    no subgroup of H; <a, b^(q^(alpha-beta))> is one, and it is
    ZM(p, q^(alpha+beta), r^(q^(alpha-beta)))."""

    def test_formula_on_the_subgroups_a_b_power(self):
        pairs = oracle_runs = 0
        for N in range(2, 1001):
            for f in realiser.realise(N).factors:
                for beta in range(1, f.alpha + 1):
                    r = pow(f.r, f.q ** (f.alpha - beta), f.p)
                    t = validate_triple(f.p, f.q ** (f.alpha + beta), r)
                    assert t.d == f.q**beta and t.regime_guaranteed, t
                    c = abscenter.compare(t)
                    assert c.formula_order == f.q**beta, t
                    assert c.agree is (None if c.oracle_order is None else True), t
                    pairs += 1
                    oracle_runs += c.oracle_order is not None
        assert (pairs, oracle_runs) == (2877, 1387)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 8, 9])
    def test_every_divisor_is_the_cyclic_l_of_a_subgroup(self, N):
        # one factor, of order 12 to 1539, scanned by its table
        cert = realiser.realise(N)
        (f,), (t,) = cert.factors, cert.triples()
        rows = realiser._scan_subgroups(t.cayley(), f.q_pow)
        assert {s.l_order for s in rows if s.l_cyclic} >= set(divisors(f.q_pow))


class TestVerifyConverse:
    def test_one_factor_certificate_scans_once(self, capsys, monkeypatch):
        scanned = []
        real_scan = realiser._scan_subgroups

        def spy(group, target):
            scanned.append((group.order, target))
            return real_scan(group, target)

        monkeypatch.setattr(realiser, "_scan_subgroups", spy)
        argv = ["verify", "4", "--converse", "--json"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert scanned == [(80, 4)]
        golden = json.loads((DATA / "converse_golden.json").read_text())
        (entry,) = [g for g in golden if g["argv"] == argv]
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]

    def test_trivial_certificate_scans_the_trivial_group(self, monkeypatch):
        scanned = []

        def spy(group, target):
            scanned.append((group.order, target))
            return ()

        monkeypatch.setattr(realiser, "_scan_subgroups", spy)
        factor_rows, full_row = realiser.verify_converse(realiser.realise(1))
        assert factor_rows == () and full_row.scanned
        assert scanned == [(1, 1)]

    def test_multi_factor_certificate_scans_the_product(self, monkeypatch):
        # realise(6) has factors ZM(5,4,4) and ZM(7,9,4): the product of
        # order 1260 fits these bounds.  Here both the product and the scan
        # are stubbed and only the calls are recorded; the golden replay of
        # `verify 6 --converse --json` with the same bounds runs them for
        # real, in about 1.5 s.
        cert = realiser.realise(6)
        products, scanned = [], []

        def fake_product(groups):
            products.append([g.order for g in groups])
            return types.SimpleNamespace(order=1260)

        def fake_scan(group, target):
            scanned.append((group.order, target))
            return ()

        monkeypatch.setattr(genericgroup, "direct_product", fake_product)
        monkeypatch.setattr(realiser, "_scan_subgroups", fake_scan)
        _, full_row = realiser.verify_converse(cert, Bounds(aut=2000, subgroups=2000))
        assert products == [[20, 63]]
        assert scanned == [(20, 2), (63, 3), (1260, 6)]
        assert full_row.scanned and full_row.order == 1260

    def test_n2_full_scan(self):
        cert = realiser.realise(2)
        factor_rows, full_row = realiser.verify_converse(cert)
        assert len(factor_rows) == 1
        row = factor_rows[0]
        assert (row.triple.m, row.triple.n, row.triple.r) == (3, 4, 2)
        assert len(row.scans) == 8  # dicyclic group of order 12
        assert row.passed
        assert all(s.l_cyclic and 2 % s.l_order == 0 for s in row.scans)
        assert full_row.scanned and full_row.passed

    def test_scan_rows_equal_one_brute_force_per_subgroup(self):
        # S4 has subgroups of order 4 in three classes, C_4 with L = C_2
        # and two classes of Klein groups with L trivial: a row shared
        # by subgroups that are not conjugate would show here
        groups = [NAMED_GROUPS[name]() for name in ("S4", "S3xS3", "GL(2,3)")]
        groups.append(validate_triple(5, 16, 2).cayley())
        for group in groups:
            expected = []
            for sub in genericgroup.subgroups(group):
                fixed = genericgroup.absolute_center_bruteforce(sub.as_group())
                cyclic, l_order = genericgroup.is_cyclic(fixed)
                embeds = cyclic and 12 % l_order == 0
                expected.append(realiser.SubgroupScanRow(sub.order, l_order, cyclic, embeds))
            assert realiser._scan_subgroups(group, 12) == tuple(expected)

    def test_non_cyclic_l_does_not_embed(self):
        # ZM(3,4,2) x ZM(5,4,4) has L = C_2 x C_2: of order 4, which divides
        # the target 4, but not cyclic, so it cannot embed in C_4.  It is
        # the only non-cyclic L among the 176 subgroups
        group = genericgroup.direct_product(
            [validate_triple(3, 4, 2).cayley(), validate_triple(5, 4, 4).cayley()]
        )
        rows = realiser._scan_subgroups(group, 4)
        assert len(rows) == 176
        (whole,) = [s for s in rows if not s.l_cyclic]
        assert (whole.order, whole.l_order, whole.embeds) == (240, 4, False)
        assert rows[-1] is whole

    def test_scan_rows_of_a_product_are_unchanged(self, monkeypatch):
        # the 176 rows of ZM(3,4,2) x ZM(5,4,4), pinned by their digest,
        # equal the rows from the closure walk and the renumbering by dict
        # lookups of the references
        group = genericgroup.direct_product(
            [validate_triple(3, 4, 2).cayley(), validate_triple(5, 4, 4).cayley()]
        )
        rows = realiser._scan_subgroups(group, 4)
        text = ";".join(f"{r.order},{r.l_order},{int(r.l_cyclic)},{int(r.embeds)}" for r in rows)
        assert len(rows) == 176
        digest = "b388140c1629c7e375a6a66bd0dc124942e15215efb0ae29119edcb00e047c3a"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        monkeypatch.setattr(genericgroup, "subgroups", reference_coset_subgroups)
        monkeypatch.setattr(genericgroup.Subgroup, "as_group", reference_as_group)
        assert realiser._scan_subgroups(group, 4) == rows

    def test_n12_factor_scans(self):
        cert = realiser.realise(12)
        factor_rows, full_row = realiser.verify_converse(cert)
        assert [row.triple.order for row in factor_rows] == [80, 63]
        assert [len(row.scans) for row in factor_rows] == [18, 12]
        assert all(row.passed for row in factor_rows)
        assert not full_row.scanned  # order 5040 is far above the bounds
        assert full_row.passed

    def test_bound_exceeded_is_reported(self):
        cert = realiser.realise(4)
        with pytest.raises(BoundExceededError):
            realiser.verify_converse(cert, Bounds(aut=10))

    @pytest.mark.parametrize(
        "n, bounds, culprit",
        [
            # ZM(17,256,3) of order 4352 is over the table and aut bounds; the
            # table bound trips first
            (16, Bounds(aut=3000, subgroups=10**4), 0),
            # ZM(251,15625,9) of order 3921875 is within the raised scan bounds
            (250, Bounds(aut=4 * 10**6, subgroups=4 * 10**6), 1),
        ],
    )
    def test_table_bound_refused_before_any_table(self, monkeypatch, n, bounds, culprit):
        cert = realiser.realise(n)
        t = cert.triples()[culprit]
        built = []
        monkeypatch.setattr(ZmTriple, "cayley", lambda self, *a, **k: built.append(self))
        with pytest.raises(BoundExceededError) as refused:
            realiser.verify_converse(cert, bounds)
        assert str(refused.value) == f"{t} has order {t.order} > table bound 2000"
        assert built == []


class TestVerifyReport:
    def test_overall_pass_and_json(self):
        report = realiser.verify(realiser.realise(12), converse=True)
        assert report.passed
        doc = json.loads(schemas.report(report))
        assert doc["schema"] == 1 and doc["pass"] is True
        assert len(doc["forward_results"]) == 6
        assert len(doc["converse_results"]) == 2

    def test_forward_only_report_has_null_converse(self):
        report = realiser.verify(realiser.realise(4), converse=False)
        doc = json.loads(schemas.report(report))
        assert doc["converse_results"] is None
        assert doc["full_product"] is None
