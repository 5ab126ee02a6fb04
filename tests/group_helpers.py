"""Group operations only the tests need: composing and inverting
automorphism triples, element orders and the derived subgroup of a
ZM-group, and the center of a Cayley table.  The package never calls
them, so they live beside the tests.
"""

from __future__ import annotations

from zmcenter import aut
from zmcenter.errors import AutParamError
from zmcenter.genericgroup import CayleyGroup, Subgroup
from zmcenter.numtheory import factorize, geometric_sum_mod
from zmcenter.zm import ZmElement, ZmTriple


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
    if compose(t, alpha, beta) != aut.identity_aut(t):
        raise RuntimeError(f"inverse construction failed for {alpha} on {t}")
    return beta


def element_order(t: ZmTriple, g: ZmElement) -> int:
    """Least k >= 1 with g^k = 1.

    The order divides m*n, so start there and strip unnecessary prime
    factors; each probe is one closed-form power, never a walk.
    """
    k = t.m * t.n
    primes = {p for p, _ in factorize(t.m).pairs}
    primes |= {p for p, _ in factorize(t.n).pairs}
    for p in sorted(primes):
        while k % p == 0 and t.power(g, k // p) == t.identity:
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
