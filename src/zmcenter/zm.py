"""Groups with all Sylow subgroups cyclic, presented as

    ZM(m, n, r) = < a, b | a^m = b^n = 1, b^-1 a b = a^r >

with gcd(m, n) = gcd(m, r-1) = 1 and r^n = 1 (mod m).  Elements live in
the normal form b^u a^v (0 <= u < n, 0 <= v < m), which is unique, so
equality is plain tuple equality.

m = 1 is admitted as the degenerate cyclic case C_n (r is then fixed at 1)
so cyclic fixtures run through the same engine; the closed-form counting
theorems are not asserted there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from . import genericgroup
from .config import DEFAULT_BOUNDS
from .errors import BoundExceededError, TripleError
from .numtheory import euler_phi, geometric_sum_mod, multiplicative_order
# unused here; perfbench's tests pin `zm.factorize is numtheory.factorize`
from .numtheory import factorize  # noqa: F401


class ZmElement(NamedTuple):
    u: int  # exponent of b, reduced mod n
    v: int  # exponent of a, reduced mod m


@dataclass(frozen=True)
class ZmTriple:
    m: int
    n: int
    r: int
    d: int       # multiplicative order of r mod m

    @cached_property
    def phi_m(self) -> int:
        return euler_phi(self.m)

    @property
    def order(self) -> int:
        return self.m * self.n

    @property
    def regime_guaranteed(self) -> bool:
        """True iff every prime of n divides d (the counting formulas'
        guaranteed regime).  Computed without factoring n: dividing out
        gcd(x, d) until it is 1 leaves 1 iff no prime of n is missing from d."""
        x = self.n
        while (g := math.gcd(x, self.d)) > 1:
            x //= g
        return x == 1

    def __str__(self) -> str:
        return f"ZM({self.m},{self.n},{self.r})"

    def as_json_dict(self) -> dict:
        """The triple sub-document of every emitted JSON document."""
        return {"m": self.m, "n": self.n, "r": self.r}

    # -- element arithmetic ------------------------------------------------

    @property
    def identity(self) -> ZmElement:
        return ZmElement(0, 0)

    def element(self, u: int, v: int) -> ZmElement:
        return ZmElement(u % self.n, v % self.m)

    def elements(self) -> Iterator[ZmElement]:
        """All m*n normal forms, u-major (the fixed enumeration order)."""
        for u in range(self.n):
            for v in range(self.m):
                yield ZmElement(u, v)

    def index_of(self, g: ZmElement) -> int:
        return g.u * self.m + g.v

    def multiply(self, g: ZmElement, h: ZmElement) -> ZmElement:
        # a^v b^s = b^s a^(v r^s), hence (b^u a^v)(b^s a^w) = b^(u+s) a^(v r^s + w)
        return ZmElement(
            (g.u + h.u) % self.n,
            (g.v * pow(self.r, h.u, self.m) + h.v) % self.m,
        )

    def inverse(self, g: ZmElement) -> ZmElement:
        r_to_minus_u = pow(self.r, (self.n - g.u) % self.n, self.m)
        return ZmElement((-g.u) % self.n, (-g.v * r_to_minus_u) % self.m)

    def power(self, g: ZmElement, k: int) -> ZmElement:
        """g^k via the closed form (b^u a^v)^k = b^(uk) a^(v * [k]_{r^u})."""
        if k < 0:
            return self.power(self.inverse(g), -k)
        base = pow(self.r, g.u, self.m)
        return ZmElement(
            (g.u * k) % self.n,
            (g.v * geometric_sum_mod(base, k, self.m)) % self.m,
        )

    # -- structural subgroups ----------------------------------------------

    def center(self) -> tuple[ZmElement, int]:
        """(generator, order) of the center <b^d>."""
        return self.element(self.d, 0), self.n // self.d

    # -- caches for the table-driven paths (bounded sizes only) -------------

    @cached_property
    def _rpow(self) -> tuple[int, ...]:
        out = [1 % self.m]
        for _ in range(self.n - 1):
            out.append(out[-1] * self.r % self.m)
        return tuple(out)

    def check_table_bound(self, table_bound: int = DEFAULT_BOUNDS.table) -> None:
        """Raise BoundExceededError if the Cayley table would exceed the bound."""
        if self.order > table_bound:
            raise BoundExceededError(
                f"{self} has order {self.order} > table bound {table_bound}"
            )

    def cayley(self, table_bound: int = DEFAULT_BOUNDS.table) -> genericgroup.CayleyGroup:
        """Explicit multiplication table over all m*n elements, u-major."""
        self.check_table_bound(table_bound)
        m, n = self.m, self.n
        rpow = self._rpow
        labels = tuple(_label(g) for g in self.elements())
        table = tuple(
            tuple(
                ((u + s) % n) * m + (v * rpow[s] + w) % m
                for s in range(n)
                for w in range(m)
            )
            for u in range(n)
            for v in range(m)
        )
        return genericgroup.CayleyGroup.from_table(table, labels)


def _label(g: ZmElement) -> str:
    if g.u == 0 and g.v == 0:
        return "e"
    parts = []
    if g.u:
        parts.append(f"b^{g.u}" if g.u > 1 else "b")
    if g.v:
        parts.append(f"a^{g.v}" if g.v > 1 else "a")
    return " ".join(parts)


def validate_triple(m: int, n: int, r: int) -> ZmTriple:
    """Check the presentation conditions and return the normalized triple."""
    if m < 1 or n < 1 or r < 1:
        raise TripleError("range", f"need m, n, r >= 1, got ({m},{n},{r})")
    if m == 1:
        # degenerate cyclic case: relations are vacuous, conventionally r = 1
        return ZmTriple(m=1, n=n, r=1, d=1)
    r %= m
    g = math.gcd(m, n)
    if g != 1:
        raise TripleError("gcd_mn", f"gcd(m,n) = {g} != 1 for ({m},{n},{r})")
    g = math.gcd(m, r - 1)
    if g != 1:
        raise TripleError("gcd_m_rminus1", f"gcd(m,r-1) = {g} != 1 for ({m},{n},{r})")
    if pow(r, n, m) != 1:
        raise TripleError("order", f"r^n = {pow(r, n, m)} != 1 (mod {m}) for ({m},{n},{r})")
    return ZmTriple(m=m, n=n, r=r, d=multiplicative_order(r, m))


def iter_valid_triples(
    max_order: int, guaranteed_only: bool = False
) -> Iterator[ZmTriple]:
    """All valid triples with m > 1 and m*n <= max_order, in a fixed
    deterministic order; optionally only those in the guaranteed regime
    (every prime of n divides d)."""
    for m in range(3, max_order // 2 + 1):
        for r in range(2, m):
            if math.gcd(r, m) != 1 or math.gcd(r - 1, m) != 1:
                continue
            d = multiplicative_order(r, m)
            for n in range(d, max_order // m + 1, d):
                if math.gcd(m, n) != 1:
                    continue
                t = ZmTriple(m=m, n=n, r=r, d=d)
                if guaranteed_only and not t.regime_guaranteed:
                    continue
                yield t
