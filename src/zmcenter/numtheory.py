"""Exact integer arithmetic: primality, factoring, orders, and the two
searches that feed the cyclic-realisation construction.

Everything here is deterministic. Primality uses the Miller-Rabin base set
that is proven complete for all inputs below psi_12 ~ 3.2 * 10^23, so
there is no probabilistic acceptance anywhere in the verification chain;
`is_prime` alone refuses at psi_12, with BoundExceededError, and every
other function here reaches that bound only through it.
Before any Miller-Rabin round, one gcd with the product of the 172 primes
up to 1024 rejects every number with a small factor, and a number below
1031^2 that passes it is prime.  The rounds then stop after the k-th base
once n < psi_k, the least strong pseudoprime to the first k prime bases
(OEIS A014233), so a number runs only the bases its size needs.
Factoring is trial division up to a small bound, then Pollard-Brent rho on
what is left, after a perfect square is split into its roots; every factor
rho returns is proven prime before it is kept.

The two searches of the construction take the prime q of q^a from the
caller, which has already certified it by factoring N, and check only that
q^a is a positive power of that q; they certify no prime of N again.  The
prime hunt proves a candidate p = 1 + t*q^a with t <= q^a + 1 by
Pocklington's lemma (`pocklington_proves_prime`) with x = g^t for a few
small bases g, and hands it to `is_prime` only when those bases leave it
open.  Below psi_12 every verdict is the one `is_prime` gives; past it a
verdict is a proof (a small factor, a Fermat witness or the lemma) or the
refusal of `is_prime`.  The element search takes the hunt's prime p as
certified.
"""

from __future__ import annotations

import math

from .errors import BoundExceededError, SearchBudgetError
from .config import DEFAULT_BOUNDS

# The first twelve primes as witnesses are proven complete for every
# n < psi_12 = 318665857834031151167461 ~ 3.2 * 10^23 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017), in
# particular for all 64-bit n.  psi_12 itself is a strong pseudoprime to all
# twelve; covering up to psi_13 ~ 3.3 * 10^24 needs base 41 as well.  In
# general the first k bases are complete below psi_k, the least strong
# pseudoprime to all k of them (OEIS A014233), so `is_prime` stops after
# base k once n < psi_k.  It tests no base as a divisor: one gcd with
# `_TRIAL_PRODUCT` has already rejected every n with a prime factor up to
# 1024.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# _PSI[k - 1] = psi_k; psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so those
# bases widen no range
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)
_PSI_12 = _PSI[-1]

# the prime hunt tries Pocklington's lemma with this many bases g = 2, 3, ...
# before it hands a candidate to `is_prime`.  On a prime p a base fails the
# lemma only when it is a q-th power residue: for odd q base 2 alone mostly
# succeeds, but for q = 2 base 2 always fails, being a square modulo every
# p = 1 (mod 8), and about one such p in twelve is still open after ten bases
_POCKLINGTON_BASES = 10

# factorize divides by every prime up to _TRIAL_BOUND and hands the
# cofactor left over to Pollard-Brent rho
_TRIAL_BOUND = 1 << 10


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


# the 172 primes up to _TRIAL_BOUND, and the least prime above it, 1031
# (Bertrand's postulate puts one below twice the bound)
_TRIAL_PRIMES = tuple(_primes_below(_TRIAL_BOUND + 1))
_NEXT_PRIME = next(
    k for k in range(_TRIAL_BOUND + 1, 2 * _TRIAL_BOUND) if all(k % p for p in _TRIAL_PRIMES)
)

_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
# n shares a factor with this product iff a trial prime divides n
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

# rho multiplies this many differences together before taking one gcd
_RHO_BATCH = 128


def _sieve(n: int) -> bool | None:
    """Whether n is prime, from the trial primes alone; None when it takes
    more.  n <= 1024 is looked up among them, a common factor with
    `_TRIAL_PRODUCT` means a trial prime divides n, and a number below
    1031^2 with none is prime, as in `factorize`."""
    if n <= _TRIAL_BOUND:
        return n in _TRIAL_PRIME_SET
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    if n < _NEXT_PRIME * _NEXT_PRIME:
        return True
    return None


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < psi_12.  This is the one place
    that refuses past that range: n >= psi_12 raises BoundExceededError,
    and no caller checks the range first.

    `_sieve` decides every n below 1031^2 and every n with a factor up to
    1024.  Any other n runs the Miller-Rabin bases in order and is prime
    once it passes the first k of them with n < psi_k.
    """
    if n >= _PSI_12:
        raise BoundExceededError(
            f"{n} is outside the certified range of the primality test "
            f"(below psi_12 = {_PSI_12})"
        )
    verdict = _sieve(n)
    if verdict is not None:
        return verdict
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of 1 <= n, as (prime, exponent) pairs
    sorted by prime; () for n = 1.

    Trial division by the primes up to `_TRIAL_BOUND` first, stopping early
    once p * p > n.  A cofactor below 1031^2 (1031 = `_NEXT_PRIME`, the
    least prime above the bound) then has no smaller factor and is prime.
    Any other cofactor that is a perfect square splits into its two roots;
    the rest go through `is_prime`, and a composite one is split by
    Pollard-Brent rho until every part is a square or passes `is_prime`.
    A part at or above psi_12 that is no perfect square reaches `is_prime`,
    whose BoundExceededError ends the factorization.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    # the loop stopped at p * p > n with every prime below p divided out,
    # or divided out every prime below _NEXT_PRIME: either way a cofactor
    # below _NEXT_PRIME^2 is 1 or prime
    if n < _NEXT_PRIME * _NEXT_PRIME:
        if n > 1:
            counts[n] = 1
    else:
        # only primes above _TRIAL_BOUND are left: certify or split by rho
        pending = [n]
        while pending:
            c = pending.pop()
            root = math.isqrt(c)
            if root * root == c:
                pending += [root, root]
            elif is_prime(c):
                counts[c] = counts.get(c, 0) + 1
            else:
                f = _pollard_brent(c)
                pending += [f, c // f]
    return tuple(sorted(counts.items()))


def _pollard_brent(n: int) -> int:
    """A factor 1 < f < n of the odd composite n, by Brent's variant of
    Pollard rho on x -> x^2 + c with c = 1, 2, ... in turn.

    The differences are multiplied in batches of `_RHO_BATCH` with one gcd
    per batch; a batch whose gcd is n is replayed one step at a time, and
    if that still gives n the next c is tried.
    """
    c = 1
    while True:
        y, g, q, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def euler_phi(m: int) -> int:
    """Euler totient, computed from the factorization of m."""
    out = m
    for p, _ in factorize(m):
        out = out // p * (p - 1)
    return out


def multiplicative_order(r: int, m: int) -> int:
    """Least k >= 1 with r^k = 1 (mod m); requires gcd(r, m) = 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    r %= m
    if math.gcd(r, m) != 1:
        raise ValueError(f"order of {r} mod {m} undefined: gcd is {math.gcd(r, m)}")
    # the order divides phi(m); strip primes that are not needed
    k = euler_phi(m)
    for p, _ in factorize(k):
        while k % p == 0 and pow(r, k // p, m) == 1:
            k //= p
    return k


def geometric_sum_mod(r: int, u: int, m: int) -> int:
    """1 + r + ... + r^(u-1) mod m, with the empty sum (u = 0) equal to 0.

    One modular power, from the exact identity (r - 1) * [u]_r = r^u - 1:
    r^u - 1 mod (r - 1)*m is (r - 1) * ([u]_r mod m), and dividing it by
    r - 1 is exact.  Lifting r to r mod m + m keeps r - 1 >= 1 and changes
    no term mod m.
    """
    if u < 0:
        raise ValueError(f"term count must be >= 0, got {u}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    r = r % m + m
    k = (r - 1) * m
    return (pow(r, u, k) - 1) % k // (r - 1)


def _check_power_of(q_pow: int, q: int) -> None:
    """Raise ValueError unless q_pow = q^a for some a >= 1.  q is the prime
    the caller certified; it is not tested again here."""
    k = q_pow
    if q >= 2:
        while k > 1 and k % q == 0:
            k //= q
    if q_pow < 2 or k != 1:
        raise ValueError(f"{q_pow} is not a positive power of the prime {q}")


def pocklington_proves_prime(p: int, q_pow: int, top: int, below: int) -> bool:
    """True when Pocklington's lemma proves p prime from x^(q^a) = top and
    x^(q^(a-1)) = below (mod p), for q^a = q_pow with q prime; False says
    nothing about p.

    The lemma (Pocklington 1914; in this form Brillhart, Lehmer and
    Selfridge, Math. Comp. 29, 1975): let p < (q^a + 1)^2, which for
    p = 1 + t*q^a is t <= q^a + 1.  If x^(q^a) = 1 (mod p) and
    gcd(x^(q^(a-1)) - 1, p) = 1, then p is prime.

    Proof: let l be a prime dividing p.  Then x^(q^a) = 1 (mod l) and
    x^(q^(a-1)) != 1 (mod l), so ord_l(x) divides q^a but not q^(a-1); q
    is prime, so ord_l(x) = q^a.  It divides l - 1, so l >= q^a + 1.  A
    composite p has two such prime factors counted with multiplicity, so
    p >= (q^a + 1)^2, which the first condition excludes.
    """
    return p < (q_pow + 1) ** 2 and top == 1 and math.gcd(below - 1, p) == 1


def _pocklington_scan(p: int, t: int, q_pow: int, q: int) -> bool | None:
    """The prime hunt's test of p = 1 + t*q_pow with t <= q_pow + 1 and
    p > 1024: True when the lemma proves p prime, False when a base shows
    it composite, None after `_POCKLINGTON_BASES` inconclusive bases.

    Bases g = 2, 3, ... in turn give x = g^t, so x^(q^a) = g^(p-1) and
    x^(q^(a-1)) = g^((p-1)/q).  g^(p-1) != 1 fails Fermat's test, and g < p
    then proves p composite.  For a prime p the lemma fails exactly when g
    is a q-th power residue, the case in which `find_element_of_order`
    passes over g too.
    """
    cofactor = t * (q_pow // q)  # (p - 1) / q
    for g in range(2, 2 + _POCKLINGTON_BASES):
        below = pow(g, cofactor, p)
        top = pow(below, q, p)
        if top != 1:
            return False
        if pocklington_proves_prime(p, q_pow, top, below):
            return True
    return None


def find_prime_in_progression(
    q_pow: int,
    exclusions: frozenset[int] | set[int] = frozenset(),
    budget: int = DEFAULT_BOUNDS.prime_budget,
    *,
    q: int,
) -> int:
    """Smallest prime p = 1 + t*q_pow with t >= 1 and p not excluded.

    q_pow must be a positive power of q, the prime the caller has already
    certified (`realise` takes it from its one `factorize(N)`); the guard
    checks only that, so the hunt certifies no prime of N again.
    Existence is only guaranteed asymptotically, so the scan carries an
    explicit budget on t; exhausting it raises rather than answering wrong.

    Each candidate gets the cheapest verdict at hand: `_sieve` first, then,
    while t <= q_pow + 1, Pocklington's lemma by `_pocklington_scan`, and
    `is_prime` only for what both leave open.  Past psi_12 the first two
    decide only by a proof, and `is_prime` refuses what they leave open
    with BoundExceededError; the hunt passes that on rather than skip the
    candidate, so what it returns is the smallest prime.
    """
    _check_power_of(q_pow, q)
    for t in range(1, budget + 1):
        p = 1 + t * q_pow
        if p in exclusions:
            continue
        verdict = _sieve(p)
        if verdict is None and t <= q_pow + 1:
            verdict = _pocklington_scan(p, t, q_pow, q)
        if verdict is None:
            verdict = is_prime(p)
        if verdict:
            return p
    raise SearchBudgetError(
        f"no admissible prime 1 + t*{q_pow} with t <= {budget}"
    )


def find_element_of_order(p: int, q_pow: int, *, q: int) -> int:
    """Some r with multiplicative order exactly q_pow modulo the prime p.

    p is the prime the caller certified, and so is q; q_pow must be 1 or
    a positive power of q dividing p - 1, and the guards check only that.
    Scans bases g = 2, 3, ... and takes r = g^((p-1)/q_pow); r then has
    order dividing q_pow, and order exactly q_pow iff r^(q_pow/q) != 1.
    Ascending g keeps the result reproducible across runs.
    """
    if q_pow == 1:
        return 1
    _check_power_of(q_pow, q)
    if (p - 1) % q_pow != 0:
        raise ValueError(f"{q_pow} does not divide {p} - 1")
    cofactor = (p - 1) // q_pow
    for g in range(2, p):
        r = pow(g, cofactor, p)
        if pow(r, q_pow // q, p) != 1:
            return r
    raise AssertionError(f"no element of order {q_pow} mod {p}; unreachable for prime p")
