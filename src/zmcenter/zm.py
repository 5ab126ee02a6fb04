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
from itertools import chain
from typing import Iterator, NamedTuple

from . import genericgroup
from .errors import TripleError
from .numtheory import euler_phi, multiplicative_order
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
        gcd(x, d) until it is 1 leaves x = n2, the part of n prime to d,
        which is 1 iff no prime of n is missing from d."""
        x = self.n
        while (g := math.gcd(x, self.d)) > 1:
            x //= g
        return x == 1

    def __str__(self) -> str:
        return f"ZM({self.m},{self.n},{self.r})"

    # -- element arithmetic ------------------------------------------------

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

    # -- structural subgroups ----------------------------------------------

    def center(self) -> tuple[ZmElement, int]:
        """(generator, order) of the center <b^d>."""
        return self.element(self.d, 0), self.n // self.d

    # -- the table-driven path ----------------------------------------------

    def cayley(self) -> genericgroup.CayleyGroup:
        """Explicit multiplication table over all m*n elements, u-major.

        (b^u a^v)(b^s a^w) = b^(u+s) a^(v r^s + w), so for each s the m
        entries over w are the block u'*m + (c + w) mod m, with u' = u + s
        and c = v r^s, both reduced.  Each row chains n of the n*m
        precomputed blocks; the offsets c are shared by every u.  Built
        at any order: the commands that build one check TABLE_BOUND first."""
        m, n = self.m, self.n
        rpow = [pow(self.r, s, m) for s in range(n)]
        blocks = []  # blocks[u'][c]
        for u in range(n):
            base = tuple(range(u * m, u * m + m))
            blocks.append([base[c:] + base[:c] for c in range(m)])
        offsets = [[v * r % m for r in rpow] for v in range(m)]
        table = []
        for u in range(n):
            row_blocks = blocks[u:] + blocks[:u]  # s -> blocks[(u + s) % n]
            for cs in offsets:
                table.append(tuple(chain.from_iterable(map(list.__getitem__, row_blocks, cs))))
        return genericgroup.CayleyGroup.from_table(tuple(table))


def check_presentation(m: int, n: int, r: int) -> int:
    """Raise TripleError unless (m, n, r) satisfies the presentation
    conditions; return r reduced mod m (1 when m = 1).  Does not compute
    the order of r."""
    if m < 1 or n < 1 or r < 1:
        raise TripleError("range", f"need m, n, r >= 1, got ({m},{n},{r})")
    if m == 1:
        # degenerate cyclic case: relations are vacuous, conventionally r = 1
        return 1
    r %= m
    g = math.gcd(m, n)
    if g != 1:
        raise TripleError("gcd_mn", f"gcd(m,n) = {g} != 1 for ({m},{n},{r})")
    g = math.gcd(m, r - 1)
    if g != 1:
        raise TripleError("gcd_m_rminus1", f"gcd(m,r-1) = {g} != 1 for ({m},{n},{r})")
    if pow(r, n, m) != 1:
        raise TripleError("order", f"r^n = {pow(r, n, m)} != 1 (mod {m}) for ({m},{n},{r})")
    return r


def validate_triple(m: int, n: int, r: int) -> ZmTriple:
    """Check the presentation conditions and return the normalized triple."""
    r = check_presentation(m, n, r)
    return ZmTriple(m=m, n=n, r=r, d=multiplicative_order(r, m))


def iter_valid_triples(max_order: int) -> Iterator[ZmTriple]:
    """All valid triples with m > 1 and m*n <= max_order, in a fixed
    deterministic order: m, then r, then n ascending.

    m is odd: for even m a unit r is odd, so 2 divides gcd(m, r-1).  d is
    found by multiplying r up to cap = max_order // m and r is skipped
    once d passes it, since every admissible n is a multiple of d."""
    for m in range(3, max_order // 2 + 1, 2):
        cap = max_order // m
        for r in range(2, m):
            if math.gcd(r, m) != 1 or math.gcd(r - 1, m) != 1:
                continue
            d, x = 1, r
            while x != 1 and d < cap:
                d, x = d + 1, x * r % m
            if x != 1:
                continue
            for n in range(d, cap + 1, d):
                if math.gcd(m, n) != 1:
                    continue
                yield ZmTriple(m=m, n=n, r=r, d=d)
