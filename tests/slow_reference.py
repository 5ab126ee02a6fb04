"""Slow references kept beside the tests: the code paths the package ran
before forward verification compared each (factor, beta) once, the
closed form's fixedness recheck was folded into `abscenter.compare`,
`CayleyGroup.closure` became a search by the seed elements, `factorize`
moved from pure trial division to trial division plus Pollard-Brent rho,
the fixed-point oracle moved from the whole enumerated automorphism
family to a greedy generating set of it, then from every element to the
product of the u- and v-residues, and then to strides over the three
generating subfamilies, `CayleyGroup` moved from checking every triple
for associativity to Light's test on a generating set,
`direct_product` moved from splitting both indices of every table entry
to splitting each index once, `CayleyGroup.element_orders` moved from
walking every element's powers to one walk per cyclic subgroup,
`subgroups` moved from extending by every outside element to one element
per right coset, then to one extended subgroup per conjugacy class, and
then from closing each extension from the identity to adding whole left
cosets of the subgroup it extends,
`ZmTriple.cayley` moved from one expression per table entry to chaining
precomputed blocks of m entries, `Subgroup.as_group` moved from one dict
lookup per entry to picking and renumbering whole rows,
`automorphisms_bruteforce` moved from re-closing the
whole partial map at every node to checking each new pair once, and
`is_prime` moved from all twelve Miller-Rabin bases on every input to a
gcd sieve and only the bases that the size of the input needs,
`abscenter.compare` moved from one `power` per element of the
span of b^(d*e) to stepping its exponent, `geometric_sum_mod` moved
from a divide-and-conquer recursion to one modular power, and
`iter_valid_triples` moved from the full order of every admissible r
modulo every m to a walk over odd m bounded by the cap on n, and the
prime hunt and the certificate check moved from `is_prime` on every
auxiliary prime to Pocklington's lemma wherever it applies, and
`aut.to_permutation` moved from one `aut.apply` per element to one
geometric sum per u, `realiser.verify_forward` moved from one
`itertools.product` choice per row to one running product over the
factors, `abscenter.compare` moved from `dataclasses.replace` and a
second set for the span to one constructor call and a size-and-membership
test, `CayleyGroup.closure` moved from its own breadth-first search to
`_reach`, and `generating_sequence` moved from a `max` over the whole
complement after every pick to one pass in order.  The tests check the
package against them; they are never used by the package itself.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import count, product
from operator import itemgetter
from typing import Iterator

from group_helpers import divisors, identity_aut, power
from zmcenter import abscenter, aut, realiser
from zmcenter.aut import AutTriple
from zmcenter.config import DEFAULT_BOUNDS
from zmcenter.errors import BoundExceededError, CertificateError, SearchBudgetError
from zmcenter.genericgroup import CayleyGroup, Subgroup, cyclic_group
from zmcenter.numtheory import (
    _MR_BASES,
    _PSI_12,
    _check_power_of,
    factorize,
    geometric_sum_mod,
    is_prime,
    multiplicative_order,
)
from zmcenter.zm import ZmElement, ZmTriple, check_presentation


def reference_iter_valid_triples(max_order: int) -> Iterator[ZmTriple]:
    """Every m from 3 to max_order // 2, even ones included, and the full
    multiplicative order of every admissible r, however far past the cap
    it lies."""
    for m in range(3, max_order // 2 + 1):
        for r in range(2, m):
            if math.gcd(r, m) != 1 or math.gcd(r - 1, m) != 1:
                continue
            d = multiplicative_order(r, m)
            for n in range(d, max_order // m + 1, d):
                if math.gcd(m, n) != 1:
                    continue
                yield ZmTriple(m=m, n=n, r=r, d=d)


def reference_absolute_center_formula(t: ZmTriple) -> abscenter.AbsCenterComparison:
    """Closed form plus the per-member recheck: when the group is small
    enough, the two divisibility conditions the closed form rests on
    (n | d*e*(y-1) and m | x2*[d*e]_r) are rechecked against every
    enumerated automorphism, and a violation is a RuntimeError."""
    result = abscenter.absolute_center_formula(t)
    de = t.d * result.e
    if t.order <= abscenter.ORACLE_BOUND:
        geo_de = geometric_sum_mod(t.r, de, t.m)
        for alpha in aut.enumerate_family(t, "all"):
            if (de * (alpha.y - 1)) % t.n != 0 or (alpha.x2 * geo_de) % t.m != 0:
                raise RuntimeError(
                    f"fixedness conditions fail for {alpha} on {t}: "
                    "parameter constraints are broken"
                )
    return result


def reference_to_permutation(t: ZmTriple, alpha: AutTriple) -> tuple[int, ...]:
    """The automorphism as a permutation of the u-major element
    enumeration, by one `aut.apply` per element."""
    return tuple(t.index_of(aut.apply(t, alpha, g)) for g in t.elements())


def reference_geometric_sum_mod(r: int, u: int, m: int) -> int:
    """1 + r + ... + r^(u-1) mod m by divide and conquer on u: the sum
    over 2h terms factors as (1 + r^h) * (sum over h terms), and the sum
    over u + 1 terms is 1 + r * (sum over u terms)."""
    if u < 0:
        raise ValueError(f"term count must be >= 0, got {u}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1 or u == 0:
        return 0
    r %= m
    if u % 2:
        return (1 + r * reference_geometric_sum_mod(r, u - 1, m)) % m
    half = reference_geometric_sum_mod(r, u // 2, m)
    return half * (1 + pow(r, u // 2, m)) % m


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
    identity = identity_aut(t)
    return [a for a in gens if a != identity]


def reference_absolute_center_oracle(t: ZmTriple) -> set[ZmElement]:
    """The exact fixed-point set of the full automorphism family.

    Scans all m*n elements against every enumerated automorphism (identity
    skipped: it never rejects).  By construction the result is a subgroup
    contained in the center.
    """
    if t.order > abscenter.ORACLE_BOUND:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {abscenter.ORACLE_BOUND}"
        )
    identity = identity_aut(t)
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


def reference_agree(t: ZmTriple) -> bool | None:
    """`compare`'s verdict, with the span of b^(d*e) built by one
    `power` per element: whether the oracle's fixed points are exactly
    that span, or None when the oracle is out of bounds."""
    if t.order > abscenter.ORACLE_BOUND:
        return None
    formula = abscenter.absolute_center_formula(t)
    span = {power(t, formula.formula_generator, k) for k in range(formula.formula_order)}
    return abscenter.absolute_center_oracle(t) == span


def reference_generator_oracle(t: ZmTriple) -> set[ZmElement]:
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
    if t.order > abscenter.ORACLE_BOUND:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {abscenter.ORACLE_BOUND}"
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


def reference_product_oracle(t: ZmTriple) -> set[ZmElement]:
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
    if t.order > abscenter.ORACLE_BOUND:
        raise BoundExceededError(
            f"{t} has order {t.order} > oracle bound {abscenter.ORACLE_BOUND}"
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


def reference_verify_forward(cert: realiser.RealiserCertificate) -> tuple[realiser.ForwardRow, ...]:
    """Forward verification with the formula and the oracle evaluated
    afresh for every factor of every divisor, each comparison record built
    field by field rather than by `abscenter.compare`, and coprimality
    tested pair by pair."""
    rows = []
    for n1 in divisors(cert.N):
        factor_rows = []
        for t in realiser.subgroup_for_divisor(cert, n1):
            formula = reference_absolute_center_formula(t)
            oracle_order: int | None = None
            agree: bool | None = None
            if t.order <= abscenter.ORACLE_BOUND:
                oracle = abscenter.absolute_center_oracle(t)
                oracle_order = len(oracle)
                generator, order = formula.formula_generator, formula.formula_order
                span = {power(t, generator, k) for k in range(order)}
                agree = oracle == span
            factor_rows.append(
                abscenter.AbsCenterComparison(
                    triple=t,
                    e=formula.e,
                    formula_order=formula.formula_order,
                    formula_generator=formula.formula_generator,
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


def reference_forward_records(cert: realiser.RealiserCertificate) -> list[list[tuple]]:
    """Per factor, the (q^beta, comparison, ok) record of each beta, as
    `realiser.verify_forward` builds them, by `abscenter.compare`."""
    records = []
    for f in cert.factors:
        by_beta = []
        for beta, t in enumerate(f.divisor_triples()):
            q_beta, c = f.q**beta, abscenter.compare(t)
            ok = c.formula_order == q_beta and c.oracle_order in (None, q_beta)
            by_beta.append((q_beta, c, ok and c.agree is not False))
        records.append(by_beta)
    return records


def reference_product_rows(records: list[list[tuple]]) -> tuple[realiser.ForwardRow, ...]:
    """The forward rows of the given records, one `itertools.product`
    choice of one record per factor per row, each field evaluated afresh
    over the choice."""
    rows = []
    for choice in product(*records):
        factors = tuple(c for _, c, _ in choice)
        oracles = [c.oracle_order for c in factors]
        rows.append(
            realiser.ForwardRow(
                divisor=math.prod(q_beta for q_beta, _, _ in choice),
                factors=factors,
                formula_product=math.prod(c.formula_order for c in factors),
                oracle_product=None if None in oracles else math.prod(oracles),
                passed=all(ok for _, _, ok in choice),
            )
        )
    rows.sort(key=lambda row: row.divisor)
    return tuple(rows)


def reference_compare(t: ZmTriple) -> abscenter.AbsCenterComparison:
    """`abscenter.compare` completing the formula's record by
    `dataclasses.replace`, with agreement as equality against a second set
    built from the span."""
    formula = abscenter.absolute_center_formula(t)
    if t.order > abscenter.ORACLE_BOUND:
        return formula
    oracle = abscenter.absolute_center_oracle(t)
    generator = formula.formula_generator
    if generator not in oracle:
        raise RuntimeError(
            f"closed-form generator {generator} of {t} is not fixed "
            "by the automorphism family: parameter constraints are broken"
        )
    span = range(0, t.n, math.gcd(generator.u, t.n))
    agree = oracle == {ZmElement(u, 0) for u in span}
    return replace(formula, oracle_order=len(oracle), agree=agree)


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


def reference_right_closure(group: CayleyGroup, seed) -> frozenset[int]:
    """The search `CayleyGroup.closure` ran before it was `_reach`: from
    the identity, each newly reached element is multiplied on the right by
    the seed elements only.  On a group it equals `reference_closure`,
    which closes under products in both orders; on other tables the two
    may differ."""
    gens = tuple(set(seed))
    table = group.table
    members = {group.identity_index}
    queue = [group.identity_index]
    while queue:
        row = table[queue.pop()]
        for g in gens:
            z = row[g]
            if z not in members:
                members.add(z)
                queue.append(z)
    return frozenset(members)


def reference_generating_sequence(group: CayleyGroup) -> tuple[int, ...]:
    """The greedy `CayleyGroup.generating_sequence` before it was one
    ordered pass: re-scan every element outside the closure after each
    pick, and take a highest-order one (smallest index on ties)."""
    gens: list[int] = []
    have = frozenset([group.identity_index])
    orders = group.element_orders
    while len(have) < group.order:
        best = max(
            (i for i in range(group.order) if i not in have),
            key=lambda i: (orders[i], -i),
        )
        gens.append(best)
        have = reference_right_closure(group, set(gens))
    return tuple(gens)


def reference_factorize(n: int) -> tuple[tuple[int, int], ...]:
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
    return tuple(pairs)


def reference_is_prime(n: int) -> bool:
    """Miller-Rabin with all twelve bases of `_MR_BASES` on every n, after
    trial division by the bases themselves; certified for 0 <= n < psi_12."""
    if n >= _PSI_12:
        raise ValueError(
            f"primality test is only certified below psi_12 = {_PSI_12}, got {n}"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_find_prime_in_progression(
    q_pow: int,
    exclusions: frozenset[int] | set[int] = frozenset(),
    budget: int = DEFAULT_BOUNDS.prime_budget,
    *,
    q: int,
) -> int:
    """The prime hunt with `is_prime` on every candidate: the smallest
    prime p = 1 + t*q_pow, t = 1..budget, not in exclusions."""
    _check_power_of(q_pow, q)
    for t in range(1, budget + 1):
        p = 1 + t * q_pow
        if p >= _PSI_12:
            raise BoundExceededError(
                f"prime hunt 1 + t*{q_pow} left the certified range of the "
                f"primality test (below psi_12 = {_PSI_12}) at t = {t}"
            )
        if p not in exclusions and is_prime(p):
            return p
    raise SearchBudgetError(
        f"no admissible prime 1 + t*{q_pow} with t <= {budget}"
    )


def reference_validate_certificate(cert, decomposition=None) -> None:
    """`realiser.validate_certificate` with `is_prime` on every auxiliary
    prime before the order check.  It takes any object with the fields
    N and factors, since a `RealiserCertificate` checks itself on
    construction."""
    if cert.N < 1:
        raise CertificateError(f"N must be >= 1, got {cert.N}")
    if decomposition is None:
        decomposition = factorize(cert.N)
    got = tuple((f.q, f.alpha) for f in cert.factors)
    if got != decomposition:
        raise CertificateError(
            f"factors {got} do not match the decomposition {decomposition} of {cert.N}"
        )
    qs = {f.q for f in cert.factors}
    ps = [f.p for f in cert.factors]
    if len(set(ps)) != len(ps):
        raise CertificateError(f"auxiliary primes are not distinct: {ps}")
    if qs & set(ps):
        raise CertificateError(f"auxiliary primes collide with {sorted(qs & set(ps))}")
    for f in cert.factors:
        # is_prime refuses p at or past psi_12
        if not is_prime(f.p):
            raise CertificateError(f"{f.p} is not prime")
        if (f.p - 1) % f.q_pow != 0:
            raise CertificateError(f"{f.p} is not 1 mod {f.q_pow}")
        if pow(f.r, f.q_pow, f.p) != 1 or pow(f.r, f.q_pow // f.q, f.p) == 1:
            if f.r % f.p == 0:
                raise CertificateError(
                    f"{f.r} is not a unit mod {f.p}, so its order is not {f.q_pow}"
                )
            raise CertificateError(
                f"order of {f.r} mod {f.p} is {multiplicative_order(f.r, f.p)}, "
                f"expected {f.q_pow}"
            )
        check_presentation(f.p, f.q ** (2 * f.alpha), f.r)


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
    return CayleyGroup.from_table(table)


def reference_element_orders(group: CayleyGroup) -> tuple[int, ...]:
    """Every element's order, each found by walking all of its powers:
    O(sum of the orders) products."""

    def element_order(i: int) -> int:
        k, x = 1, i
        while x != group.identity_index:
            x = group.table[x][i]
            k += 1
        return k

    return tuple(element_order(i) for i in range(group.order))


def reference_cayley(t: ZmTriple) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of ZM(m, n, r) over the u-major normal
    forms, one expression per entry:
    (b^u a^v)(b^s a^w) = b^(u+s) a^(v r^s + w)."""
    m, n = t.m, t.n
    rpow = [pow(t.r, s, m) for s in range(n)]
    return tuple(
        tuple(
            ((u + s) % n) * m + (v * rpow[s] + w) % m
            for s in range(n)
            for w in range(m)
        )
        for u in range(n)
        for v in range(m)
    )


def reference_as_group(sub: Subgroup) -> CayleyGroup:
    """The subgroup as a standalone group, its indices renumbered by one
    dict lookup per table entry."""
    old_to_new = {g: i for i, g in enumerate(sub.members)}
    table = tuple(
        tuple(old_to_new[sub.parent.table[x][y]] for y in sub.members)
        for x in sub.members
    )
    return CayleyGroup(table, old_to_new[sub.parent.identity_index])


def reference_subgroups(group: CayleyGroup) -> list[Subgroup]:
    """Every subgroup, by breadth-first closure: seed with the cyclic
    subgroups, then repeatedly extend each known subgroup by one outside
    element and close.  Output is sorted by (order, member tuple) so runs
    are reproducible."""
    # each subgroup keeps the generators it was reached by: extending s
    # by g closes <gens(s), g> = <s, g> from a handful of seeds
    known: dict[frozenset[int], tuple[int, ...]] = {frozenset([group.identity_index]): ()}
    frontier = []
    for g in range(group.order):
        s = group.closure({g})
        if s not in known:
            known[s] = (g,)
            frontier.append(s)
    while frontier:
        fresh = []
        for s in frontier:
            gens = known[s]
            for g in range(group.order):
                if g in s:
                    continue
                t = group.closure(gens + (g,))
                if t not in known:
                    known[t] = gens + (g,)
                    fresh.append(t)
        frontier = fresh
    out = [Subgroup(group, tuple(sorted(s))) for s in known]
    out.sort(key=lambda s: (s.order, s.members))
    return out


def reference_coset_subgroups(group: CayleyGroup) -> list[Subgroup]:
    """Every subgroup, labelled with its conjugacy class, by the same walk
    over class representatives as `genericgroup.subgroups`, but closing
    each cyclic seed and each extension <gens(s), g> from the identity
    with `CayleyGroup.closure`: each class representative s costs
    |G|/|s| - 1 closures.  Output is sorted by (order, member tuple)."""
    n = group.order
    table, orders, ident = group.table, group.element_orders, group.identity_index
    conjugations = []
    for y in group.generating_sequence:
        y_inverse_row = table[table[y].index(ident)]
        conjugations.append(tuple(table[z][y] for z in y_inverse_row))

    def conjugates(t: frozenset[int]) -> list[frozenset[int]]:
        if len(t) == 1:
            return [t]
        orbit, seen = [t], {t}
        for s in orbit:
            pick = itemgetter(*s)
            for conjugation in conjugations:
                u = frozenset(pick(conjugation))
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
        return orbit

    # each frontier entry keeps the generators its subgroup was reached
    # by: extending s by g closes <gens(s), g> = <s, g> from a few seeds
    known: dict[frozenset[int], int] = {frozenset([ident]): 0}
    labels = count(1)
    frontier: list[tuple[frozenset[int], tuple[int, ...]]] = []

    def visit(t: frozenset[int], gens: tuple[int, ...], queue: list) -> None:
        if t not in known:
            known.update(dict.fromkeys(conjugates(t), next(labels)))
            queue.append((t, gens))

    done = [False] * n
    for g in range(n):
        if done[g]:
            continue
        s = group.closure({g})
        for x in s:
            if orders[x] == orders[g]:
                done[x] = True
        visit(s, (g,), frontier)
    while frontier:
        fresh: list[tuple[frozenset[int], tuple[int, ...]]] = []
        for s, gens in frontier:
            # one g per right coset s*g, its least element
            seen = set(s)
            for g in range(n):
                if g in seen:
                    continue
                visit(group.closure(gens + (g,)), gens + (g,), fresh)
                seen.update(table[h][g] for h in s)
        frontier = fresh
    out = [Subgroup(group, tuple(sorted(s)), label) for s, label in known.items()]
    out.sort(key=lambda s: (s.order, s.members))
    return out


def reference_automorphisms_bruteforce(group: CayleyGroup) -> list[tuple[int, ...]]:
    """All table-preserving bijections, as index permutations (sorted).

    Backtracks on the images of a greedy generating sequence.  A partial
    assignment is propagated breadth-first (phi(x*g) := phi(x)*phi(g));
    any clash of images, or a repeated image, prunes the branch.  Checking
    phi(x*g) = phi(x)phi(g) for every x and every generator g is enough:
    induction over words in the generators extends it to all pairs.
    """
    n = group.order
    if n == 1:
        return [(0,)]
    gens = list(group.generating_sequence)
    orders = group.element_orders
    table = group.table
    ident = group.identity_index
    found: list[tuple[int, ...]] = []

    def propagate(phi: list[int], used: set[int], assigned: list[int]) -> bool:
        """Close phi under right multiplication by the assigned generators,
        checking consistency on every (element, generator) pair."""
        reached = [i for i in range(n) if phi[i] >= 0]
        queue = list(reached)
        while queue:
            x = queue.pop()
            for g in assigned:
                z = table[x][g]
                w = table[phi[x]][phi[g]]
                if phi[z] < 0:
                    if w in used:
                        return False  # two preimages; not injective
                    phi[z] = w
                    used.add(w)
                    queue.append(z)
                elif phi[z] != w:
                    return False
        return True

    def backtrack(level: int, phi: list[int], used: set[int]) -> None:
        if level == len(gens):
            if all(x >= 0 for x in phi):
                found.append(tuple(phi))
            return
        g = gens[level]
        for img in range(n):
            if img in used or orders[img] != orders[g]:
                continue
            phi2 = phi[:]
            used2 = set(used)
            phi2[g] = img
            used2.add(img)
            if propagate(phi2, used2, gens[: level + 1]):
                backtrack(level + 1, phi2, used2)

    phi0 = [-1] * n
    phi0[ident] = ident
    backtrack(0, phi0, {ident})
    found.sort()
    return found
