"""The benchmark's workloads as seeded lists of CLI invocations.

A list depends only on (workload, seed, seconds). Its length comes from
``seconds`` and the workload's baseline cost below, never from measured
speed, so every run of one seed does the same work: the layer counts
repeat exactly and the tail percentile is the same percentile on every
commit. Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from checks import divisors, is_prime, order_mod, prime_factors

WORKLOADS = ("sweep", "forward", "converse", "realise")

# Baseline costs, measured at the parent commit on a 2-core x86-64 machine
# with Python 3.11; they only size the lists.
SWEEP_OPS_PER_S = 66.0  # abscenter calls per second over triples with m*n near 500
FORWARD_ROUND_S = 15.0  # one pass over FORWARD_POOL
CONVERSE_ROUND_S = 29.0  # one pass over N = 1..30
REALISE_ROUND_S = 0.75  # one round of REALISE_CLASSES

CONVERSE_MAX_N = 30
FORWARD_POOL = tuple(
    N
    for N in range(24, 1001)
    if max(prime_factors(N)) <= 7 and len(divisors(N)) >= 12
)

# The known exit-2 input: the prime hunt for q^a = 2^62 leaves 2^64.
TWO_TO_62 = 1 << 62


class Op(NamedTuple):
    argv: tuple[str, ...]
    subject: object  # (m, n, r) for sweep, N for the other workloads


def _rounds(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def valid_triples(cap: int) -> list[tuple[int, int, int]]:
    """Every valid (m, n, r) with m > 1 and m*n <= cap, ordered by (m*n, m, n, r).

    Valid means gcd(m, n) = gcd(m, r - 1) = 1 and r^n = 1 (mod m), the
    last as "the order d of r divides n".
    """
    out = []
    for m in range(3, cap // 2 + 1):
        n_max = cap // m
        for r in range(2, m):
            if math.gcd(r, m) != 1 or math.gcd(r - 1, m) != 1:
                continue
            d = order_mod(r, m, n_max)
            if d is None:
                continue
            out.extend((m, n, r) for n in range(d, n_max + 1, d) if math.gcd(m, n) == 1)
    out.sort(key=lambda t: (t[0] * t[1], t))
    return out


def sweep(rng: random.Random, seconds: float) -> list[Op]:
    """`abscenter m n r --json` on every valid triple up to the cap that
    gives the run its length, in both regimes, in seeded order. No triple
    repeats, so a per-triple cache has nothing to reuse."""
    count = max(1, round(SWEEP_OPS_PER_S * seconds))
    cap = 64
    triples = valid_triples(cap)
    while len(triples) < count:
        cap *= 2
        triples = valid_triples(cap)
    triples = triples[:count]
    rng.shuffle(triples)
    return [Op(("abscenter", str(m), str(n), str(r), "--json"), (m, n, r)) for m, n, r in triples]


def forward(rng: random.Random, seconds: float) -> list[Op]:
    """`verify N --json` over 7-smooth N with at least 12 divisors. Their
    factor triples recur across divisors and across N."""
    ops = []
    for _ in range(_rounds(seconds, FORWARD_ROUND_S)):
        pool = list(FORWARD_POOL)
        rng.shuffle(pool)
        ops.extend(Op(("verify", str(N), "--json"), N) for N in pool)
    return ops


def converse(rng: random.Random, seconds: float) -> list[Op]:
    """`verify N --converse --json` for N = 1..30: both outcomes, passes
    and bound refusals, some of them after seconds of table work."""
    ops = []
    for _ in range(_rounds(seconds, CONVERSE_ROUND_S)):
        ns = list(range(1, CONVERSE_MAX_N + 1))
        rng.shuffle(ns)
        ops.extend(Op(("verify", str(N), "--converse", "--json"), N) for N in ns)
    return ops


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def _semiprime(rng: random.Random) -> int:
    # the smaller factor sets the trial-division cost; a narrow band keeps
    # the cost of one operation within about 7% across seeds
    return _prime_between(rng, 35_000, 40_000) * _prime_between(rng, 100_000, 1_000_000)


def _square(rng: random.Random) -> int:
    return _prime_between(rng, 20_000, 25_000) ** 2


def _smooth(rng: random.Random) -> int:
    qs = rng.sample((2, 3, 5, 7, 11, 13, 17, 19), 4)
    return math.prod(q ** rng.randint(1, 3) for q in qs)


def _large_prime(rng: random.Random) -> int:
    return _prime_between(rng, 10**12, 10**15)


def _near_2_62(rng: random.Random) -> int:
    """A prime q just below 2^62 for which 2q+1 and 4q+1 are composite, so
    the hunt for p = 1 + t*q (t = 1, 3 give even p) reaches t = 5, past 2^64."""
    while True:
        q = _prime_between(rng, TWO_TO_62 - (1 << 40), TWO_TO_62)
        if not is_prime(2 * q + 1) and not is_prime(4 * q + 1):
            return q


# semiprimes are the majority, so the median operation is a factorization
REALISE_CLASSES = (_semiprime, _semiprime, _semiprime, _square, _smooth, _large_prime, _near_2_62)


def realise(rng: random.Random, seconds: float) -> list[Op]:
    """`realise N --json` over rounds of one input per class, plus 2^62
    once per run. numtheory does nearly all of the work."""
    ns = [make(rng) for _ in range(_rounds(seconds, REALISE_ROUND_S)) for make in REALISE_CLASSES]
    ns.append(TWO_TO_62)
    rng.shuffle(ns)
    return [Op(("realise", str(N), "--json"), N) for N in ns]


_BUILDERS = {"sweep": sweep, "forward": forward, "converse": converse, "realise": realise}


def build(workload: str, seed: int, seconds: float) -> list[Op]:
    """The operation list of one run; the same arguments give the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seconds)
