"""The absolute center L(G) of a ZM-group: the closed form <b^(d*e)> with
e = n / gcd(n, d^2), and an independent fixed-point oracle that tests the
b-exponents and the a-exponents separately against three subfamilies of
parameter triples that together generate the automorphism family.

The closed form is always a subgroup of L (its generator really is fixed
by every parametrized automorphism); it is provably all of L when every
prime of n divides d.  Outside that regime the oracle is the ground truth
and reports carry an explicit agree/disagree verdict.  With n2 the part of
n prime to d, the closed form misses L exactly when n2 is even (n even and
d odd): ZM(m, n, r) = C_n2 x ZM(m, n/n2, r^n2), and the closed form sees
only the second factor, so it misses the C_gcd(n2, 2) that L(C_n2) is.
tests/test_abscenter.py::TestRegimes proves the split and checks the
predicate on every valid triple with mn <= 2000.

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
  5. gcd(n, y - 1 over all y) is G = gcd(n, lcm(d, 2)) when n is even and
     d otherwise.  Every y - 1 is a multiple of d (y = 1 mod d), and of 2
     when n is even (gcd(y, n) = 1 forces y odd), so G divides the gcd.
     Conversely, by the CRT some admissible y is 1 mod every prime power
     of n but p^a, where it is 1 + p^b for p^b || d, 3 for p = 2 not
     dividing d, and 2 for an odd p not dividing d; its y - 1 has the
     p-valuation of G.  So the fold over the y can stop as soon as it
     reaches G, and the walk over U tests n / step = G <= 2d values.
The closure test in tests/test_aut.py checks in code that the three
subfamilies generate the enumerated family.

`compare` is the one place both paths meet, and `AbsCenterComparison` is
their one record.  `absolute_center_formula` returns it with the oracle
not run; `compare` runs the oracle once, when the order is at most
`ORACLE_BOUND`, and completes the record.  That is the oracle's one
gate: it costs a few y, two units and G <= 2d values of u, not m*n
steps, and refuses no input itself.
`oracle_order is None` is the one statement that the oracle was skipped,
and the command line reads its bound refusal off it.  `compare` checks
that the closed-form generator is among the fixed points; a generator
that is not fixed is a fatal internal inconsistency (RuntimeError),
never a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import aut
from .numtheory import geometric_sum_mod
from .zm import ZmElement, ZmTriple

# the largest m*n at which `compare` runs the oracle
ORACLE_BOUND = 2000


def exponent_e(t: ZmTriple) -> int:
    """Least s >= 1 with n | d^2 * s, i.e. n / gcd(n, d^2)."""
    return t.n // math.gcd(t.n, t.d * t.d)


@dataclass(frozen=True)
class AbsCenterComparison:
    """The closed form and, once `compare` has run it, the oracle.  Facts
    of the group itself (d, the center, the regime) are read off `triple`.
    """

    triple: ZmTriple
    e: int
    formula_order: int            # n / gcd(d*e, n)
    formula_generator: ZmElement  # b^(d*e)
    oracle_order: int | None = None  # None: the oracle did not run
    agree: bool | None = None        # None: the oracle did not run


def absolute_center_formula(t: ZmTriple) -> AbsCenterComparison:
    """Closed-form absolute center <b^(d*e)>, with no enumeration: the
    comparison with the oracle not run.

    That b^(d*e) is fixed by every automorphism is checked in `compare`,
    against the oracle's fixed-point set.
    """
    if t.m == 1:
        raise ValueError(
            "closed form is not asserted for the degenerate cyclic case m = 1"
        )
    e = exponent_e(t)
    de = t.d * e
    return AbsCenterComparison(t, e, t.n // math.gcd(de, t.n), t.element(de, 0))


def absolute_center_oracle(t: ZmTriple) -> set[ZmElement]:
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
    m / gcd(m, x1 - 1 over all units).  Both gcd folds stop at their
    floor, which is the full gcd: (5) for U it is gcd(n, lcm(d, 2)) when
    n is even (y = 1 mod d, and gcd(y, n) = 1 forces y odd) and d
    otherwise; for V it is 1, reached at x1 = 2 for the odd m > 1.  So the
    U fold reads a few y (at most 5 on every valid triple with mn <= 2000),
    the V fold at most two units, and the walk n / step <= 2d values of u,
    however large n or m is, so the oracle sets no bound of its own:
    `compare` gates it.  The closure test checks (1)-(3) in code.  By
    construction the result is a subgroup contained in the center.
    """
    m, n, r = t.m, t.n, t.r
    floor = math.gcd(n, math.lcm(t.d, 2)) if n % 2 == 0 else t.d
    step = n // _gcd_fold(n, (y - 1 for y in aut.valid_ys(t)), floor)
    r_step = pow(r, step, m)
    geo_step = geometric_sum_mod(r, step, m)
    us = []
    r_u, geo_u = 1 % m, 0  # r^u and [u]_r mod m at u = 0
    for u in range(0, n, step):
        if geo_u == 0:
            us.append(u)
        geo_u = (geo_u + r_u * geo_step) % m
        r_u = r_u * r_step % m
    v_step = m // _gcd_fold(m, (x1 - 1 for x1 in aut.units(t)), 1)
    return {ZmElement(u, v) for u in us for v in range(0, m, v_step)}


def _gcd_fold(g: int, values: Iterable[int], floor: int) -> int:
    """gcd(g, *values), reading values only until the fold reaches
    `floor`, a known divisor of g and of every value."""
    for x in values:
        g = math.gcd(g, x)
        if g == floor:
            break
    return g


def compare(t: ZmTriple) -> AbsCenterComparison:
    """Run the closed form, run the oracle if the order is at most
    ORACLE_BOUND, compare exactly.

    Agreement means set equality: the oracle fixed points are precisely
    the cyclic subgroup generated by b^(d*e).  It is decided without a
    second set: the span's elements b^u are distinct, so the two sets are
    equal iff they have the same size and every b^u of the span is in the
    oracle set.  Whenever the oracle runs, the generator must be one of
    its fixed points, else RuntimeError: b^(de) is fixed by (x1, x2, y)
    iff n | de*(y-1) and m | x2*[de]_r, which the parameter constraints
    guarantee, so a miss means they are broken.
    Above the bound the formula's record is returned as it is.
    """
    formula = absolute_center_formula(t)
    if t.order > ORACLE_BOUND:
        return formula
    oracle = absolute_center_oracle(t)
    generator = formula.formula_generator
    if generator not in oracle:
        raise RuntimeError(
            f"closed-form generator {generator} of {t} is not fixed "
            "by the automorphism family: parameter constraints are broken"
        )
    # the powers of b^(de) are the b^u, u a multiple of gcd(de, n)
    span = range(0, t.n, math.gcd(generator.u, t.n))
    agree = len(oracle) == len(span) and all(ZmElement(u, 0) in oracle for u in span)
    return AbsCenterComparison(
        t, formula.e, formula.formula_order, generator, len(oracle), agree
    )
