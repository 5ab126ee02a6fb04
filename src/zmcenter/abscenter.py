"""The absolute center L(G) of a ZM-group: the closed form <b^(d*e)> with
e = n / gcd(n, d^2), and an independent fixed-point oracle that scans the
whole parametrized automorphism family.

The closed form is always a subgroup of L (its generator really is fixed
by every parametrized automorphism); it is provably all of L when every
prime of n divides d.  Outside that regime the oracle is the ground truth
and reports carry an explicit agree/disagree verdict.

`compare` is the one place both paths meet.  It enumerates the family once,
inside the oracle, and checks there that the closed-form generator is among
the fixed points; a generator that is not fixed is a fatal internal
inconsistency (RuntimeError), never a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import aut
from .config import DEFAULT_BOUNDS
from .errors import BoundExceededError
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

    Scans all m*n elements against every enumerated automorphism (identity
    skipped: it never rejects).  By construction the result is a subgroup
    contained in the center.
    """
    if t.order > oracle_bound:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {oracle_bound}"
        )
    identity = aut.identity_aut(t)
    family = [a for a in aut.enumerate_family(t, "all") if a != identity]
    geo = t._geo
    m, n = t.m, t.n
    fixed: set[ZmElement] = set()
    for u in range(n):
        gu = geo[u]
        for v in range(m):
            if all(
                (y * u) % n == u and (x1 * v + x2 * gu) % m == v
                for x1, x2, y in family
            ):
                fixed.add(ZmElement(u, v))
    return fixed


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
