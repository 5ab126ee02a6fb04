"""Slow references kept beside the tests: the code paths the package ran
before forward verification was memoised and the closed form's fixedness
recheck was folded into `abscenter.compare`.  The tests check the package
against them; they are never used by the package itself.
"""

from __future__ import annotations

import math

from zmcenter import abscenter, aut, realiser
from zmcenter.config import Bounds, DEFAULT_BOUNDS
from zmcenter.numtheory import factorize, geometric_sum_mod
from zmcenter.zm import ZmTriple


def reference_absolute_center_formula(
    t: ZmTriple, oracle_bound: int = DEFAULT_BOUNDS.oracle
) -> abscenter.AbsCenterResult:
    """Closed form plus the per-member recheck: when the group is small
    enough, the two divisibility conditions the closed form rests on
    (n | d*e*(y-1) and m | x2*[d*e]_r) are rechecked against every
    enumerated automorphism, and a violation is a RuntimeError."""
    result = abscenter.absolute_center_formula(t)
    de = t.d * result.e
    if t.order <= oracle_bound:
        geo_de = geometric_sum_mod(t.r, de, t.m)
        for alpha in aut.enumerate_family(t, "all"):
            if (de * (alpha.y - 1)) % t.n != 0 or (alpha.x2 * geo_de) % t.m != 0:
                raise RuntimeError(
                    f"fixedness conditions fail for {alpha} on {t}: "
                    "parameter constraints are broken"
                )
    return result


def reference_verify_forward(
    cert: realiser.RealiserCertificate, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[realiser.ForwardRow, ...]:
    """Forward verification with the formula and the oracle evaluated
    afresh for every factor of every divisor."""
    rows = []
    for n1 in factorize(cert.N).divisors():
        factor_rows = []
        for t in realiser.subgroup_for_divisor(cert, n1):
            formula = reference_absolute_center_formula(t, bounds.oracle)
            oracle_order: int | None = None
            agree: bool | None = None
            if t.order <= bounds.oracle:
                oracle = abscenter.absolute_center_oracle(t, bounds.oracle)
                oracle_order = len(oracle)
                span = {t.power(formula.generator, k) for k in range(formula.order)}
                agree = oracle == span
            factor_rows.append(
                realiser.ForwardFactorRow(
                    triple=t,
                    formula_order=formula.order,
                    oracle_order=oracle_order,
                    agree=agree,
                )
            )
        formula_product = math.prod(fr.formula_order for fr in factor_rows)
        oracle_product = None
        if all(fr.oracle_order is not None for fr in factor_rows):
            oracle_product = math.prod(fr.oracle_order for fr in factor_rows)
        orders = [fr.formula_order for fr in factor_rows]
        coprime = all(
            math.gcd(orders[i], orders[j]) == 1
            for i in range(len(orders))
            for j in range(i + 1, len(orders))
        )
        passed = (
            formula_product == n1
            and coprime
            and all(fr.agree is not False for fr in factor_rows)
            and (oracle_product is None or oracle_product == n1)
        )
        rows.append(
            realiser.ForwardRow(
                divisor=n1,
                factors=tuple(factor_rows),
                formula_product=formula_product,
                oracle_product=oracle_product,
                passed=passed,
            )
        )
    return tuple(rows)
