"""Slow references kept beside the tests: the code paths the package ran
before forward verification compared each (factor, beta) once, the
closed form's fixedness recheck was folded into `abscenter.compare`,
`CayleyGroup.closure` became a search by the seed elements, `factorize`
moved from pure trial division to trial division plus Pollard-Brent rho,
the fixed-point oracle moved from the whole enumerated automorphism
family to a greedy generating set of it, then from every element to the
product of the u- and v-residues, and then to strides over the three
generating subfamilies, `CayleyGroup` moved from checking every triple
for associativity to Light's test on a generating set, and
`direct_product` moved from splitting both indices of every table entry
to splitting each index once.  The tests check the package against them;
they are never used by the package itself.
"""

from __future__ import annotations

import math

from zmcenter import abscenter, aut, realiser
from zmcenter.aut import AutTriple
from zmcenter.config import Bounds, DEFAULT_BOUNDS
from zmcenter.errors import BoundExceededError
from zmcenter.genericgroup import CayleyGroup, cyclic_group
from zmcenter.numtheory import Factorization, factorize, geometric_sum_mod, is_prime
from zmcenter.zm import ZmElement, ZmTriple


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


def _geo_table(t: ZmTriple) -> tuple[int, ...]:
    """geo[u] = [u]_r = 1 + r + ... + r^(u-1) mod m, for u in [0, n)."""
    out = [0]
    r_u = 1 % t.m
    for _ in range(1, t.n):
        out.append((out[-1] + r_u) % t.m)
        r_u = r_u * t.r % t.m
    return tuple(out)


def _greedy_generators(elements: list[int], modulus: int) -> list[int]:
    """Generators of the multiplicative group `elements` mod `modulus`,
    taken in list order: each one is kept only if it lies outside the
    subgroup built so far, so each kept one at least doubles it."""
    built = {1 % modulus}
    gens = []
    for g in elements:
        if g in built:
            continue
        gens.append(g)
        # <built, g> is the union of the cosets g^k * built
        coset = built
        new = set(built)
        while True:
            coset = {(g * h) % modulus for h in coset}
            if coset <= new:
                break
            new |= coset
        built = new
    return gens


def family_generators(t: ZmTriple) -> list[AutTriple]:
    """A generating set of the "all" family, identity removed: (g, 0, 1)
    for greedy generators g of the units mod m, then (1, 1, 1), then
    (1, 0, y) for greedy generators y of `valid_ys`.  It has at most
    1 + log2(phi(m)) + log2(|Y|) members."""
    one_m, one_n = 1 % t.m, 1 % t.n
    gens = [AutTriple(g, 0, one_n) for g in _greedy_generators(aut.units(t), t.m)]
    gens.append(AutTriple(one_m, one_m, one_n))
    gens += [AutTriple(one_m, 0, y) for y in _greedy_generators(aut.valid_ys(t), t.n)]
    identity = aut.identity_aut(t)
    return [a for a in gens if a != identity]


def reference_absolute_center_oracle(
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
    geo = _geo_table(t)
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


def reference_generator_oracle(
    t: ZmTriple, oracle_bound: int = DEFAULT_BOUNDS.oracle
) -> set[ZmElement]:
    """The exact fixed-point set of the full automorphism family.

    Scans all m*n elements against `family_generators`, never the
    closed form and never the enumerated family.  That is exact: (1) the
    common fixed points of a generating set are the fixed points of the
    group; (2) (1, 1, 1) and the (g, 0, 1) generate the y = 1 subgroup,
    Hol(C_m); (3) (x1, x2, y) |-> y maps the family onto the admissible y
    with that kernel, so the (1, 0, y) complete the generating set.  The
    closure test checks this in code.  By construction the result is a
    subgroup contained in the center.
    """
    if t.order > oracle_bound:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {oracle_bound}"
        )
    gens = family_generators(t)
    geo = _geo_table(t)
    m, n = t.m, t.n
    fixed: set[ZmElement] = set()
    for u in range(n):
        gu = geo[u]
        for v in range(m):
            if all(
                (y * u) % n == u and (x1 * v + x2 * gu) % m == v
                for x1, x2, y in gens
            ):
                fixed.add(ZmElement(u, v))
    return fixed


def reference_product_oracle(
    t: ZmTriple, oracle_bound: int = DEFAULT_BOUNDS.oracle
) -> set[ZmElement]:
    """The exact fixed-point set of the full automorphism family.

    Tests residues against `family_generators`, never the closed form
    and never the enumerated family.  That is exact: (1) the common fixed
    points of a generating set are the fixed points of the group; (2)
    (1, 1, 1) and the (g, 0, 1) generate the y = 1 subgroup, Hol(C_m); (3)
    (x1, x2, y) |-> y maps the family onto the admissible y with that
    kernel, so the (1, 0, y) complete the generating set; (4) each
    generator has x1 = 1 or x2 = 0 (mod m), so its condition
    (x1 - 1)*v + x2*[u]_r = 0 (mod m) is x2*[u]_r = 0 or (x1 - 1)*v = 0,
    and the fixed set is U x V: U the u in [0, n) with y*u = u and
    x2*[u]_r = 0 for every generator, V the v in [0, m) with
    (x1 - 1)*v = 0 for every generator.  A generator with x1 != 1 and
    x2 != 0 is a RuntimeError.  The closure test checks (1)-(3) in code.
    By construction the result is a subgroup contained in the center.
    """
    if t.order > oracle_bound:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {oracle_bound}"
        )
    gens = family_generators(t)
    m, n = t.m, t.n
    if any((x1 - 1) % m and x2 % m for x1, x2, _ in gens):
        raise RuntimeError(f"a generator of Aut({t}) has x1 != 1 and x2 != 0")
    geo = _geo_table(t)
    us = [
        u for u in range(n)
        if all((y * u) % n == u and (x2 * geo[u]) % m == 0 for _, x2, y in gens)
    ]
    vs = [v for v in range(m) if all(((x1 - 1) * v) % m == 0 for x1, _, _ in gens)]
    return {ZmElement(u, v) for u in us for v in vs}


def reference_verify_forward(
    cert: realiser.RealiserCertificate, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[realiser.ForwardRow, ...]:
    """Forward verification with the formula and the oracle evaluated
    afresh for every factor of every divisor, each comparison record built
    field by field rather than by `abscenter.compare`, and coprimality
    tested pair by pair."""
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
                abscenter.AbsCenterComparison(
                    triple=t,
                    d=t.d,
                    e=formula.e,
                    formula_order=formula.order,
                    formula_generator=formula.generator,
                    center_order=t.n // t.d,
                    regime_guaranteed=formula.regime_guaranteed,
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


def reference_closure(
    group: CayleyGroup, seed: frozenset[int] | set[int]
) -> frozenset[int]:
    """Subgroup generated by the seed, closing under all pairwise products
    (both orders) of the members found so far: O(|result|^2) products."""
    members = {group.identity_index} | set(seed)
    elems = sorted(members)
    queue = list(elems)
    while queue:
        x = queue.pop()
        idx = 0
        while idx < len(elems):
            y = elems[idx]
            idx += 1
            for z in (group.table[x][y], group.table[y][x]):
                if z not in members:
                    members.add(z)
                    elems.append(z)
                    queue.append(z)
    return frozenset(members)


def reference_factorize(n: int) -> Factorization:
    """Complete prime factorization by trial division.

    A primality test on the remaining cofactor short-circuits the common
    case of one large prime factor.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    pairs = []
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            pairs.append((p, a))
    # remaining factors are coprime to 6: walk the 6k+-1 wheel
    d = 5
    step = 2
    while d * d <= n:
        if n > 1 and is_prime(n):
            break
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            pairs.append((d, a))
        d += step
        step = 6 - step
    if n > 1:
        pairs.append((n, 1))
    pairs.sort()
    return Factorization(tuple(pairs))


def reference_is_associative(table: tuple[tuple[int, ...], ...]) -> bool:
    """Associativity of a table by checking every triple: O(n^3) products.
    Up to order 200 this was the check `CayleyGroup.from_table` ran (above
    that it sampled 20,000 seeded triples)."""
    n = len(table)
    t = table
    for i in range(n):
        ti = t[i]
        for j in range(n):
            tij = ti[j]
            tj = t[j]
            for k in range(n):
                if t[tij][k] != ti[tj[k]]:
                    return False
    return True


def reference_direct_product(factors: list[CayleyGroup]) -> CayleyGroup:
    """Componentwise product, index tuples flattened factor-major, with
    both indices of every table entry split into their parts afresh."""
    if len(factors) == 0:
        return cyclic_group(1)
    if len(factors) == 1:
        return factors[0]
    order = math.prod(g.order for g in factors)
    sizes = [g.order for g in factors]
    strides = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    def split(idx: int) -> tuple[int, ...]:
        return tuple((idx // strides[i]) % sizes[i] for i in range(len(factors)))

    def join(parts) -> int:
        return sum(p * s for p, s in zip(parts, strides))

    table = tuple(
        tuple(
            join(f.table[x][y] for f, x, y in zip(factors, split(i), split(j)))
            for j in range(order)
        )
        for i in range(order)
    )
    labels = tuple(
        "(" + ",".join(f.labels[p] for f, p in zip(factors, split(i))) + ")"
        for i in range(order)
    )
    return CayleyGroup.from_table(table, labels)
