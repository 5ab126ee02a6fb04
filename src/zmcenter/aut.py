"""Automorphisms of ZM(m, n, r) through the parameter triples (x1, x2, y):

    b^u a^v  |->  b^(y*u) a^(x1*v + x2*[u]_r)

with 0 <= x1, x2 < m, gcd(x1, m) = 1, 0 <= y < n, y = 1 (mod d).

On top of those constraints this module always enforces gcd(y, n) = 1:
without it the map is a well-defined endomorphism but collapses part of
<b>, so it is not bijective.  Whenever every prime of n divides d the
extra condition is implied by y = 1 (mod d) and the classical count
m*phi(m)*n/d is exact; outside that regime the counting formulas carry a
"regime" flag and the brute-force engine is the ground truth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .errors import AutParamError
from .numtheory import geometric_sum_mod
from .zm import ZmElement, ZmTriple

FAMILIES = ("all", "central", "ia", "inner")


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


def identity_aut(t: ZmTriple) -> AutTriple:
    return AutTriple(1 % t.m, 0, 1 % t.n)


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


def units(t: ZmTriple) -> list[int]:
    """The admissible x1: residues mod m prime to m."""
    return [x for x in range(t.m) if math.gcd(x, t.m) == 1]


def valid_ys(t: ZmTriple) -> list[int]:
    """All admissible b-exponents: y = 1 (mod d) and gcd(y, n) = 1."""
    if t.n == 1:
        return [0]
    return [y for y in range(1, t.n, t.d) if math.gcd(y, t.n) == 1]


def enumerate_family(t: ZmTriple, family: str = "all") -> list[AutTriple]:
    """The exact parameter set of one family, sorted for reproducibility.

    Inner automorphisms are extracted from actual conjugation maps
    (h = b^s a^w with s < d suffices: b^d is central) and deduplicated.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    x1s = units(t)
    ys = valid_ys(t)
    if family == "all":
        # tuple.__new__ builds the namedtuples in C: this list is m*phi(m)*|Y| long
        out = list(map(_new_aut_triple, product(x1s, range(t.m), ys)))
    elif family == "central":
        out = [AutTriple(1 % t.m, 0, y) for y in ys]
    elif family == "ia":
        out = [AutTriple(x1, x2, 1 % t.n) for x1 in x1s for x2 in range(t.m)]
    else:
        seen = {conjugation(t, t.element(s, w)) for s in range(t.d) for w in range(t.m)}
        out = list(seen)
    out.sort()
    return out


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
    regime_guaranteed: bool


def aut_counts(t: ZmTriple) -> AutCounts:
    if t.m == 1:
        raise ValueError(
            "counting formulas are not asserted for the degenerate cyclic case m = 1"
        )
    m, n, d, phi = t.m, t.n, t.d, t.phi_m
    return AutCounts(
        aut=m * phi * n // d,
        inn=m * d,
        out=phi * n // (d * d),
        central=n // d,
        ia=m * phi,
        complete=(phi == n == d),
        regime_guaranteed=t.regime_guaranteed,
    )


def to_permutation(t: ZmTriple, alpha: AutTriple) -> tuple[int, ...]:
    """The automorphism as a permutation of the u-major element enumeration
    (the same order the Cayley export uses)."""
    return tuple(t.index_of(apply(t, alpha, g)) for g in t.elements())
