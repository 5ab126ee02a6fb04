"""The absolute center L(G) of a ZM-group: the closed form <b^(d*e)> with
e = n / gcd(n, d^2), and an independent fixed-point oracle that tests the
b-exponents and the a-exponents separately against three subfamilies of
parameter triples that together generate the automorphism family.

The closed form is always a subgroup of L (its generator really is fixed
by every parametrized automorphism); it is provably all of L when every
prime of n divides d.  Outside that regime the oracle is the ground truth
and reports carry an explicit agree/disagree verdict.

Why the three subfamilies suffice:
  1. The fixed points of a group of maps are the common fixed points of
     any generating set: a point fixed by alpha and beta is fixed by
     alpha*beta and by alpha^-1.
  2. (1, 1, 1) and the (x1, 0, 1), x1 running over the units mod m,
     generate the subgroup with y = 1: (1, 1, 1)^k = (1, k, 1) and
     (x1, 0, 1)(1, k, 1) = (x1, x1*k, 1), which reach every (x1, x2, 1).
     That subgroup is Hol(C_m).
  3. (x1, x2, y) |-> y is a homomorphism from the family onto the
     admissible y with exactly that kernel, so adding (1, 0, y) for every
     admissible y gives the whole family.
  4. b^u a^v is fixed by (x1, x2, y) iff y*u = u (mod n) and
     (x1 - 1)*v + x2*[u]_r = 0 (mod m).  On the three subfamilies:
       (1, 0, y), every y:  n | (y - 1)*u, i.e. u is a multiple of
                            step = n / gcd(n, y - 1 over all y);
       (1, 1, 1):           [u]_r = 0 (mod m);
       (x1, 0, 1), every x1: m | (x1 - 1)*v, i.e. v is a multiple of
                            m / gcd(m, x1 - 1 over all units).
     Each member has x1 = 1 or x2 = 0, so each condition involves u alone
     or v alone, and the fixed set is a product U x V: n / step values of
     u are tested, and V needs no test at all.
The closure test in tests/test_aut.py checks in code that the three
subfamilies generate the enumerated family.

`compare` is the one place both paths meet.  It runs the oracle once and
checks there that the closed-form generator is among the fixed points; a
generator that is not fixed is a fatal internal inconsistency
(RuntimeError), never a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import aut
from .config import DEFAULT_BOUNDS
from .errors import BoundExceededError
from .numtheory import geometric_sum_mod
from .zm import ZmElement, ZmTriple


def exponent_e(t: ZmTriple) -> int:
    """Least s >= 1 with n | d^2 * s, i.e. n / gcd(n, d^2)."""
    return t.n // math.gcd(t.n, t.d * t.d)


@dataclass(frozen=True)
class AbsCenterResult:
    e: int
    generator: ZmElement  # b^(d*e)
    order: int            # n / gcd(d*e, n)
    regime_guaranteed: bool


def absolute_center_formula(t: ZmTriple) -> AbsCenterResult:
    """Closed-form absolute center <b^(d*e)>, with no enumeration.

    That b^(d*e) is fixed by every automorphism is checked in `compare`,
    against the oracle's fixed-point set.
    """
    if t.m == 1:
        raise ValueError(
            "closed form is not asserted for the degenerate cyclic case m = 1"
        )
    e = exponent_e(t)
    de = t.d * e
    return AbsCenterResult(
        e=e,
        generator=t.element(de, 0),
        order=t.n // math.gcd(de, t.n),
        regime_guaranteed=t.regime_guaranteed,
    )


def absolute_center_oracle(
    t: ZmTriple, oracle_bound: int = DEFAULT_BOUNDS.oracle
) -> set[ZmElement]:
    """The exact fixed-point set of the full automorphism family.

    Tests residues against the subfamilies (1, 0, y) for every admissible
    y, (1, 1, 1) and (x1, 0, 1) for every unit x1, read from the integer
    lists `aut.valid_ys` and `aut.units`; never the closed form and never
    the enumerated family.  That is exact: (1) the common fixed points of
    a generating set are the fixed points of the group; (2) (1, 1, 1) and
    the (x1, 0, 1) generate the y = 1 subgroup, Hol(C_m); (3)
    (x1, x2, y) |-> y maps the family onto the admissible y with that
    kernel, so the (1, 0, y) complete the generating set; (4) every member
    has x1 = 1 or x2 = 0, so the fixed set is U x V.  U is the multiples u
    of step = n / gcd(n, y - 1 over all y) (that is n | (y - 1)*u for
    every y) with [u]_r = 0 (mod m), walked along the multiples as
    [u + step]_r = [u]_r + r^u * [step]_r.  V is the multiples of
    m / gcd(m, x1 - 1 over all units).  Cost O(phi(m) + |Y| + n/step)
    after the two lists are built.  The closure test checks (1)-(3) in
    code.  By construction the result is a subgroup contained in the
    center.
    """
    if t.order > oracle_bound:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {oracle_bound}"
        )
    m, n, r = t.m, t.n, t.r
    step = n // math.gcd(n, *(y - 1 for y in aut.valid_ys(t)))
    r_step = pow(r, step, m)
    geo_step = geometric_sum_mod(r, step, m)
    us = []
    r_u, geo_u = 1 % m, 0  # r^u and [u]_r mod m at u = 0
    for u in range(0, n, step):
        if geo_u == 0:
            us.append(u)
        geo_u = (geo_u + r_u * geo_step) % m
        r_u = r_u * r_step % m
    v_step = m // math.gcd(m, *(x1 - 1 for x1 in aut.units(t)))
    return {ZmElement(u, v) for u in us for v in range(0, m, v_step)}


@dataclass(frozen=True)
class AbsCenterComparison:
    """Both paths side by side, plus the verdict."""

    triple: ZmTriple
    d: int
    e: int
    formula_order: int
    formula_generator: ZmElement
    center_order: int
    regime_guaranteed: bool
    oracle_order: int | None   # None when the scan is out of bounds
    agree: bool | None         # None when the oracle did not run

    def as_json_dict(self) -> dict:
        return {
            "schema": 1,
            "triple": self.triple.as_json_dict(),
            "d": self.d,
            "e": self.e,
            "formula_order": self.formula_order,
            "generator": f"b^{self.formula_generator.u}",
            "center_order": self.center_order,
            "equals_center": self.formula_order == self.center_order,
            "oracle_order": self.oracle_order,
            "agree": self.agree,
            "regime_guaranteed": self.regime_guaranteed,
        }


def compare(t: ZmTriple, oracle_bound: int = DEFAULT_BOUNDS.oracle) -> AbsCenterComparison:
    """Run the closed form, run the oracle if it fits, compare exactly.

    Agreement means set equality: the oracle fixed points are precisely
    the cyclic subgroup generated by b^(d*e).  Whenever the oracle runs,
    the generator must be one of its fixed points, else RuntimeError: b^(de)
    is fixed by (x1, x2, y) iff n | de*(y-1) and m | x2*[de]_r, which the
    parameter constraints guarantee, so a miss means they are broken.
    """
    formula = absolute_center_formula(t)
    _, center_order = t.center()
    oracle_order: int | None = None
    agree: bool | None = None
    if t.order <= oracle_bound:
        oracle = absolute_center_oracle(t, oracle_bound)
        if formula.generator not in oracle:
            raise RuntimeError(
                f"closed-form generator {formula.generator} of {t} is not fixed "
                "by the automorphism family: parameter constraints are broken"
            )
        oracle_order = len(oracle)
        span = {t.power(formula.generator, k) for k in range(formula.order)}
        agree = oracle == span
    return AbsCenterComparison(
        triple=t,
        d=t.d,
        e=formula.e,
        formula_order=formula.order,
        formula_generator=formula.generator,
        center_order=center_order,
        regime_guaranteed=formula.regime_guaranteed,
        oracle_order=oracle_order,
        agree=agree,
    )
