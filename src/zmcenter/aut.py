"""Automorphisms of ZM(m, n, r) through the parameter triples (x1, x2, y):

    b^u a^v  |->  b^(y*u) a^(x1*v + x2*[u]_r)

with 0 <= x1, x2 < m, gcd(x1, m) = 1, 0 <= y < n, y = 1 (mod d).

On top of those constraints this module always enforces gcd(y, n) = 1:
without it the map is a well-defined endomorphism but collapses part of
<b>, so it is not bijective.  Whenever every prime of n divides d the
extra condition is implied by y = 1 (mod d) and the classical count
m*phi(m)*n/d is exact; outside that regime (the triple's
`regime_guaranteed` is False) the brute-force engine is the ground
truth.  With n2 the part of n prime to d, the family has
m*phi(m)*(n/n2/d)*phi(n2) members, so the classical count is wrong
exactly when n2 > 1; that is checked, with its proof, in
tests/test_abscenter.py::TestRegimes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

from .errors import AutParamError, BoundExceededError
from .numtheory import geometric_sum_mod
from .zm import ZmElement, ZmTriple

FAMILIES = ("all", "central", "ia", "inner")

# the most work a family listing of the command line may cost
_LISTING_BOUND = 10**5
# the field of `AutCounts` that bounds the cost of listing each family
_COUNT_OF_FAMILY = {"all": "aut", "central": "central", "ia": "ia", "inner": "inn"}


class AutTriple(NamedTuple):
    x1: int
    x2: int
    y: int


_new_aut_triple = functools.partial(tuple.__new__, AutTriple)


def make_aut_triple(t: ZmTriple, x1: int, x2: int, y: int) -> AutTriple:
    """Normalize and validate a parameter triple for t."""
    x1 %= t.m
    x2 %= t.m
    y %= t.n
    if math.gcd(x1, t.m) != 1:
        raise AutParamError(f"gcd(x1, m) != 1 for x1={x1}, m={t.m}")
    if (y - 1) % t.d != 0:
        raise AutParamError(f"y={y} is not 1 mod d={t.d}")
    if math.gcd(y, t.n) != 1:
        raise AutParamError(f"gcd(y, n) != 1 for y={y}, n={t.n}: map is not bijective")
    return AutTriple(x1, x2, y)


def apply(t: ZmTriple, alpha: AutTriple, g: ZmElement) -> ZmElement:
    return ZmElement(
        (alpha.y * g.u) % t.n,
        (alpha.x1 * g.v + alpha.x2 * geometric_sum_mod(t.r, g.u, t.m)) % t.m,
    )


def _from_generator_images(t: ZmTriple, img_a: ZmElement, img_b: ZmElement) -> AutTriple:
    """Read (x1, x2, y) off the images of a = b^0 a^1 and b = b^1 a^0."""
    if img_a.u != 0:
        raise AutParamError(f"image of a leaves <a>: {img_a}")
    return make_aut_triple(t, x1=img_a.v, x2=img_b.v, y=img_b.u)


def conjugation(t: ZmTriple, h: ZmElement) -> AutTriple:
    """The inner automorphism g |-> h^-1 g h as a parameter triple."""
    h_inv = t.inverse(h)

    def conj(g: ZmElement) -> ZmElement:
        return t.multiply(t.multiply(h_inv, g), h)

    return _from_generator_images(t, conj(t.element(0, 1)), conj(t.element(1, 0)))


def units(t: ZmTriple) -> Iterator[int]:
    """The admissible x1, in increasing order: residues mod m prime to m.
    Lazy, so a caller that stops early never builds the phi(m) of them."""
    return (x for x in range(t.m) if math.gcd(x, t.m) == 1)


def valid_ys(t: ZmTriple) -> Iterator[int]:
    """All admissible b-exponents, in increasing order: y = 1 (mod d) and
    gcd(y, n) = 1.  Lazy like `units`."""
    return (y for y in range(1 % t.n, t.n, t.d) if math.gcd(y, t.n) == 1)


def family_size(t: ZmTriple) -> int:
    """phi(m) * m * |Y|, the length of `enumerate_family(t, "all")`,
    computed without building it."""
    return t.phi_m * t.m * sum(1 for _ in valid_ys(t))


def enumerate_family(t: ZmTriple, family: str = "all") -> list[AutTriple]:
    """The exact parameter set of one family, in increasing order: `all`,
    `central` and `ia` are built in that order, `inner` is sorted.

    Inner automorphisms are extracted from actual conjugation maps
    (h = b^s a^w with s < d suffices: b^d is central) and deduplicated.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if family == "all":
        # tuple.__new__ builds the namedtuples in C: this list is m*phi(m)*|Y| long
        out = list(map(_new_aut_triple, product(units(t), range(t.m), valid_ys(t))))
    elif family == "central":
        out = [AutTriple(1 % t.m, 0, y) for y in valid_ys(t)]
    elif family == "ia":
        out = [AutTriple(x1, x2, 1 % t.n) for x1 in units(t) for x2 in range(t.m)]
    else:
        out = sorted({conjugation(t, t.element(s, w)) for s in range(t.d) for w in range(t.m)})
    return out


def _check_listing_cost(t: ZmTriple, family: str) -> None:
    """Raise BoundExceededError if building `enumerate_family(t, family)`
    costs more than _LISTING_BOUND, judged before anything is built: `all`,
    `central` and `ia` have at most as many members as the count formulas
    give (|Y| <= n/d), and `inner` is read off m*d conjugations."""
    cost = getattr(_counts(t), _COUNT_OF_FAMILY[family])
    if cost > _LISTING_BOUND:
        raise BoundExceededError(
            f"listing the {family} family of {t} costs {cost} > listing bound {_LISTING_BOUND}"
        )


@dataclass(frozen=True)
class AutCounts:
    """Formula-path orders of Aut and its distinguished subfamilies.

    Only guaranteed when every prime of n divides d; callers outside that
    regime should compare with enumerate_family / the brute-force engine.
    """

    aut: int
    inn: int
    out: int
    central: int
    ia: int
    complete: bool


def _counts(t: ZmTriple) -> AutCounts:
    """The count formulas of `aut_counts`, for m = 1 too: there they are
    not asserted, but still bound the listing cost."""
    m, n, d, phi = t.m, t.n, t.d, t.phi_m
    return AutCounts(
        aut=m * phi * n // d,
        inn=m * d,
        out=phi * n // (d * d),
        central=n // d,
        ia=m * phi,
        complete=(phi == n == d),
    )


def aut_counts(t: ZmTriple) -> AutCounts:
    if t.m == 1:
        raise ValueError(
            "counting formulas are not asserted for the degenerate cyclic case m = 1"
        )
    return _counts(t)


def to_permutation(t: ZmTriple, alpha: AutTriple) -> tuple[int, ...]:
    """The automorphism as a permutation of the u-major element enumeration
    (the same order the Cayley export uses): `apply` with one
    geometric_sum_mod per u, b^u a^v going to index
    ((y*u) mod n)*m + (x1*v + x2*[u]_r) mod m for each v < m."""
    m, n = t.m, t.n
    x1, x2, y = alpha
    perm: list[int] = []
    for u in range(n):
        block = (y * u) % n * m
        shift = x2 * geometric_sum_mod(t.r, u, m)
        perm.extend([block + (x1 * v + shift) % m for v in range(m)])
    return tuple(perm)
