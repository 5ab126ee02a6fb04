"""End-to-end acceptance suite: one test per shipping criterion, each
printing its own pass line (run with -s to see them).  All comparisons are
exact; there are no tolerances anywhere in this package."""

import json
import math
from itertools import product

from group_helpers import center_bruteforce, compose, divisors, identity_aut, invert, power
from zmcenter import abscenter, aut, cli, genericgroup as gg, realiser, schemas
from zmcenter.numtheory import geometric_sum_mod
from zmcenter.zm import iter_valid_triples, validate_triple


def _report(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_abscenter_5_16_2(capsys):
    code = cli.main(["abscenter", "5", "16", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["d"] == 4 and doc["e"] == 1
    assert doc["formula_order"] == 4
    assert doc["generator"] == "b^4"
    assert doc["equals_center"] is True

    t = validate_triple(5, 16, 2)
    family = aut.enumerate_family(t, "all")
    assert len(family) == 80
    oracle = abscenter.absolute_center_oracle(t)
    span = {power(t, t.element(4, 0), k) for k in range(4)}
    assert oracle == span
    assert doc["oracle_order"] == 4 and doc["agree"] is True
    with capsys.disabled():
        _report(1, "ZM(5,16,2): d=4, e=1, L=<b^4> of order 4 = Z; 80-automorphism oracle agrees")


def test_criterion_2_abscenter_5_48_2(capsys):
    code = cli.main(["abscenter", "5", "48", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["d"] == 4 and doc["e"] == 3
    assert doc["formula_order"] == 4
    assert doc["center_order"] == 12 and doc["equals_center"] is False
    assert doc["oracle_order"] == 4 and doc["agree"] is True

    t = validate_triple(5, 48, 2)
    assert t.order == 240
    oracle = abscenter.absolute_center_oracle(t)
    assert oracle == {power(t, t.element(12, 0), k) for k in range(4)}
    with capsys.disabled():
        _report(2, "ZM(5,48,2): d=4, e=3, |L|=4 proper in Z of order 12; 240-element oracle agrees")


def test_criterion_3_coprime_product_reproduction(capsys):
    c3 = gg.cyclic_group(3)
    g80 = validate_triple(5, 16, 2).cayley()
    prod = gg.direct_product([c3, g80])
    fixed = gg.absolute_center_bruteforce(prod)
    assert gg.is_cyclic(fixed) == (True, 4)
    center = center_bruteforce(prod)
    assert gg.is_cyclic(center) == (True, 12)
    la = gg.absolute_center_bruteforce(c3)
    lb = gg.absolute_center_bruteforce(g80)
    assert set(fixed.members) == {ia * 80 + ib for ia in la.members for ib in lb.members}
    with capsys.disabled():
        _report(3, "L(C_3 x ZM(5,16,2)) = C_4 and Z = C_12 by brute force, matching the coprime product rule")


def test_criterion_4_automorphism_counts(capsys):
    t = validate_triple(5, 16, 2)
    counts = aut.aut_counts(t)
    family = aut.enumerate_family(t, "all")
    assert counts.aut == 80 == len(family)
    perms = gg.automorphisms_bruteforce(t.cayley())
    assert len(perms) == 80
    assert set(perms) == {aut.to_permutation(t, a) for a in family}
    assert counts.central == 4 == len(aut.enumerate_family(t, "central"))
    assert counts.ia == 20 == len(aut.enumerate_family(t, "ia"))
    assert counts.inn == 20 == len(aut.enumerate_family(t, "inner"))
    assert counts.out == 4
    assert counts.aut == counts.inn * counts.out

    t20 = validate_triple(5, 4, 2)
    counts20 = aut.aut_counts(t20)
    assert counts20.complete  # phi(5) = n = d = 4
    assert len(gg.automorphisms_bruteforce(t20.cayley())) == 20 == t20.order
    with capsys.disabled():
        _report(4, "ZM(5,16,2): 80 = formula = enumeration = brute force (element-wise); ZM(5,4,2) complete with |Aut| = |G| = 20")


def test_criterion_5_formula_vs_oracle_sweep(capsys):
    checked = 0
    for t in iter_valid_triples(500):
        if not t.regime_guaranteed:
            continue
        family = aut.enumerate_family(t, "all")
        assert len(family) == t.m * t.phi_m * t.n // t.d, t
        cmp = abscenter.compare(t)
        assert cmp.agree is True, t
        checked += 1
    assert checked > 0
    with capsys.disabled():
        _report(5, f"formula = oracle and |family| = m*phi(m)*n/d on all {checked} guaranteed triples with mn <= 500")


def test_criterion_6_discrepancy_probe(capsys):
    code = cli.main(["oracle-check", "7", "6", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1  # the verdict is a disagreement
    # ground truth, by brute force: L(ZM(7,6,2)) = C_2, not the formula's 1
    assert doc["l_oracle"] == 2
    assert doc["l_bruteforce"] == 2
    assert doc["l_formula"] == 1
    assert doc["aut_enumerated"] == 42 == doc["aut_bruteforce"]
    assert doc["aut_formula"] == 84
    assert doc["agree"] is False
    with capsys.disabled():
        _report(6, "oracle-check 7 6 2: verdict DISAGREE; oracle ground truth |L| = 2 (formula says 1), |Aut| = 42 (formula says 84)")


def test_criterion_7_realiser_roundtrip(capsys):
    for n in range(1, 31):
        cert1 = realiser.realise(n)
        cert2 = realiser.realise(n)
        assert cert1 == cert2
        assert schemas.certificate(cert1) == schemas.certificate(cert2)
        rows = realiser.verify_forward(cert1)
        expected = divisors(n)
        assert [row.divisor for row in rows] == expected
        assert all(row.passed for row in rows)
        assert [row.formula_product for row in rows] == expected
    with capsys.disabled():
        _report(7, "verify N passes forward for all N in 1..30 with deterministic certificates")


def test_criterion_8_converse_verification(capsys):
    for n in (2, 4, 6, 12):
        cert = realiser.realise(n)
        factor_rows, _ = realiser.verify_converse(cert)
        for row, f in zip(factor_rows, cert.factors):
            assert row.passed
            for scan in row.scans:
                assert scan.l_cyclic
                assert f.q_pow % scan.l_order == 0

    # N = 2: enumerate the full group H = ZM(3,4,2) directly
    cert = realiser.realise(2)
    group = cert.triples()[0].cayley()
    assert group.order == 12
    for sub in gg.subgroups(group):
        fixed = gg.absolute_center_bruteforce(sub.as_group())
        cyclic, order = gg.is_cyclic(fixed)
        assert cyclic and 2 % order == 0  # embeds in C_2
    with capsys.disabled():
        _report(8, "converse scans pass for N in {2,4,6,12}; full order-12 group for N=2 scanned directly, all L embed in C_2")


def test_criterion_9_property_suites(capsys):
    # Latin square and associativity checks run on construction
    for m, n, r in [(5, 16, 2), (7, 9, 4), (1, 12, 1)]:
        validate_triple(m, n, r).cayley()

    # automorphism family closure under composition
    t = validate_triple(5, 8, 2)
    family = aut.enumerate_family(t, "all")
    fam_set = set(family)
    for alpha, beta in product(family, family):
        assert compose(t, alpha, beta) in fam_set
    assert identity_aut(t) in fam_set
    assert all(invert(t, alpha) in fam_set for alpha in family)

    # m | [d*s]_r for all s (per fixture triple, scanned to s = n)
    for m, n, r in [(5, 16, 2), (5, 48, 2), (7, 6, 2), (7, 9, 4)]:
        t = validate_triple(m, n, r)
        for s in range(1, t.n + 1):
            assert geometric_sum_mod(t.r, t.d * s, t.m) == 0

    # telescoping identity (r-1)[u]_r = r^u - 1
    for r in range(0, 30):
        for u in range(0, 30):
            for m in (1, 2, 5, 9, 16):
                lhs = (r - 1) * geometric_sum_mod(r, u, m) % m
                assert lhs == (pow(r, u, m) - 1) % m

    # subgroup count of a cyclic group equals its divisor count
    for k in (1, 2, 4, 6, 12, 28, 30):
        assert len(gg.subgroups(gg.cyclic_group(k))) == len(divisors(k))
    with capsys.disabled():
        _report(9, "construction checks, family closure, divisibility scans, telescoping identity, and cyclic subgroup counts all hold")
