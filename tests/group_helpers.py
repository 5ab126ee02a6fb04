"""Group operations only the tests need: the identity automorphism,
composing and inverting automorphism triples, powers, element orders and
the derived subgroup of a ZM-group, the center of a Cayley table, the
divisors of an integer, and the certificate a `realise --json` document
describes.  The package never calls them, so they live beside the tests.
"""

from __future__ import annotations

from zmcenter import aut
from zmcenter.errors import AutParamError
from zmcenter.genericgroup import CayleyGroup, Subgroup
from zmcenter.numtheory import factorize, geometric_sum_mod
from zmcenter.realiser import FactorWitness, RealiserCertificate
from zmcenter.zm import ZmElement, ZmTriple


def identity_aut(t: ZmTriple) -> aut.AutTriple:
    return aut.AutTriple(1 % t.m, 0, 1 % t.n)


def compose(t: ZmTriple, alpha: aut.AutTriple, beta: aut.AutTriple) -> aut.AutTriple:
    """The unique triple of alpha after beta, solved on the generators."""
    a = t.element(0, 1)
    b = t.element(1, 0)
    try:
        return aut._from_generator_images(
            t,
            aut.apply(t, alpha, aut.apply(t, beta, a)),
            aut.apply(t, alpha, aut.apply(t, beta, b)),
        )
    except AutParamError as exc:  # closure failure would break the whole model
        raise RuntimeError(
            f"composite of valid automorphisms is invalid for {t}: {exc}"
        ) from exc


def invert(t: ZmTriple, alpha: aut.AutTriple) -> aut.AutTriple:
    """Compositional inverse: x1, y invert modularly and x2 follows."""
    x1_inv = pow(alpha.x1, -1, t.m) if t.m > 1 else 0
    y_inv = pow(alpha.y, -1, t.n) if t.n > 1 else 0
    x2 = (-x1_inv * alpha.x2 * geometric_sum_mod(t.r, y_inv, t.m)) % t.m
    beta = aut.make_aut_triple(t, x1_inv, x2, y_inv)
    if compose(t, alpha, beta) != identity_aut(t):
        raise RuntimeError(f"inverse construction failed for {alpha} on {t}")
    return beta


def power(t: ZmTriple, g: ZmElement, k: int) -> ZmElement:
    """g^k via the closed form (b^u a^v)^k = b^(uk) a^(v * [k]_{r^u})."""
    if k < 0:
        return power(t, t.inverse(g), -k)
    base = pow(t.r, g.u, t.m)
    return ZmElement((g.u * k) % t.n, (g.v * geometric_sum_mod(base, k, t.m)) % t.m)


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in ascending order."""
    divs = [1]
    for p, a in factorize(n):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return sorted(divs)


def certificate_from_document(doc: dict) -> RealiserCertificate:
    """The certificate built from the fields of a `realise --json` document.
    No decomposition is passed, so construction factors N itself and
    proves every witness again."""
    return RealiserCertificate(doc["N"], tuple(FactorWitness(**f) for f in doc["factors"]))


def element_order(t: ZmTriple, g: ZmElement) -> int:
    """Least k >= 1 with g^k = 1.

    The order divides m*n, so start there and strip unnecessary prime
    factors; each probe is one closed-form power, never a walk.
    """
    k = t.m * t.n
    primes = {p for p, _ in factorize(t.m)}
    primes |= {p for p, _ in factorize(t.n)}
    for p in sorted(primes):
        while k % p == 0 and power(t, g, k // p) == ZmElement(0, 0):
            k //= p
    return k


def derived_subgroup(t: ZmTriple) -> tuple[ZmElement, int]:
    """(generator, order) of the commutator subgroup <a>."""
    return t.element(0, 1), t.m


def center_bruteforce(group: CayleyGroup) -> Subgroup:
    """Elements commuting with everything, straight off the table."""
    table = group.table
    n = group.order
    members = [
        i for i in range(n) if all(table[i][j] == table[j][i] for j in range(n))
    ]
    return Subgroup(group, tuple(members))


def _generated_table(generators: list, multiply) -> CayleyGroup:
    """The Cayley table of the finite group the generators generate under
    multiply, its elements numbered in the order a right-multiplication
    search from the generators reaches them."""
    elements = list(dict.fromkeys(generators))
    index = {x: i for i, x in enumerate(elements)}
    for x in elements:  # the loop also visits the elements it appends
        for g in generators:
            y = multiply(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    table = tuple(tuple(index[multiply(x, y)] for y in elements) for x in elements)
    return CayleyGroup.from_table(table)


def permutation_group(generators: list[tuple[int, ...]]) -> CayleyGroup:
    """The group the permutations generate, composed as p*q = p after q."""
    return _generated_table(generators, lambda p, q: tuple(p[i] for i in q))


def matrix_group(generators: list[tuple[int, int, int, int]], k: int) -> CayleyGroup:
    """The group the 2x2 matrices (a, b, c, d) = [[a, b], [c, d]] generate
    mod k."""

    def multiply(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % k, (a * f + b * h) % k, (c * e + d * g) % k, (c * f + d * h) % k)

    return _generated_table(generators, multiply)


def _psl27_generators() -> list[tuple[int, ...]]:
    """x -> x + 1 and x -> -1/x on the projective line over F_7, whose
    points are 0..6 and infinity = 7."""
    shift = tuple((x + 1) % 7 for x in range(7)) + (7,)
    invert = (7, *((-pow(x, -1, 7)) % 7 for x in range(1, 7)), 0)
    return [shift, invert]


# S4, A4, S3 x S3, D5, A5, S5, SL(2,3), GL(2,3) and PSL(2,7), built from
# permutations and matrices.  All but D5 = ZM(5,2,4) lie outside the ZM
# family, whose Sylow subgroups are cyclic.
NAMED_GROUPS = {
    "S4": lambda: permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)]),
    "A4": lambda: permutation_group([(1, 2, 0, 3), (1, 0, 3, 2)]),
    "S3xS3": lambda: permutation_group(
        [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]
    ),
    "D5": lambda: permutation_group([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]),
    "A5": lambda: permutation_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
    "S5": lambda: permutation_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    "SL(2,3)": lambda: matrix_group([(1, 1, 0, 1), (1, 0, 1, 1)], 3),
    "GL(2,3)": lambda: matrix_group([(1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1)], 3),
    "PSL(2,7)": lambda: permutation_group(_psl27_generators()),
}
