import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_helpers import divisors
from slow_reference import (
    reference_factorize,
    reference_find_prime_in_progression,
    reference_geometric_sum_mod,
    reference_is_prime,
)
from zmcenter import numtheory
from zmcenter.errors import BoundExceededError, SearchBudgetError
from zmcenter.numtheory import (
    _MR_BASES,
    _PSI,
    euler_phi,
    factorize,
    find_element_of_order,
    find_prime_in_progression,
    geometric_sum_mod,
    is_prime,
    multiplicative_order,
    pocklington_proves_prime,
)


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if _trial_division_prime(n):
            return n


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """n passes the strong test to base a: with n - 1 = d * 2^s and d odd,
    a^d = 1 or a^(d * 2^i) = -1 (mod n) for some 0 <= i < s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


# a factorization of each distinct psi_k into factors > 1, which proves it
# composite without the code under test
_PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


def _order_by_scan(r: int, m: int) -> int:
    x = r % m
    k = 1
    while x != 1 % m:
        x = x * r % m
        k += 1
    return k


class TestIsPrime:
    def test_small_range_against_trial_division(self):
        for n in range(10_000):
            assert is_prime(n) == _trial_division_prime(n), n

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to several small bases; composite
        for n in (3215031751, 3825123056546413051):
            assert not is_prime(n)

    def test_large_primes_accepted(self):
        for n in (2**61 - 1, 4294967311, 1_000_000_007):
            assert is_prime(n)

    def test_rejects_values_beyond_certified_range(self):
        # a bound, not a domain error: the CLI maps it to exit 3
        with pytest.raises(BoundExceededError, match="certified range .*psi_12"):
            is_prime(318665857834031151167461)

    def test_accepts_values_above_2_64(self):
        assert is_prime(2**64 + 13)
        assert not is_prime(2**64 + 1)
        assert is_prime(83010348331692982273)

    def test_psi12_is_a_strong_pseudoprime_to_all_bases(self):
        # psi_k bounds the range on which the first k bases are complete:
        # it is composite and passes all k of them, so a tier that stops
        # after base k at n = psi_k itself would accept it
        assert len(_MR_BASES) == len(_PSI) == 12
        assert _PSI[-1] == 318665857834031151167461
        for k, psi in enumerate(_PSI, start=1):
            factors = _PSI_FACTORS[psi]
            assert math.prod(factors) == psi and min(factors) > 1, k
            for a in _MR_BASES[:k]:
                assert _is_strong_probable_prime(psi, a), (k, a)
            if k < 12:
                assert not is_prime(psi), k
                if _PSI[k] > psi:
                    # then base k + 1 witnesses psi_k
                    assert not _is_strong_probable_prime(psi, _MR_BASES[k]), k
        assert list(_PSI) == sorted(_PSI)

    def test_matches_twelve_base_reference(self):
        # every n below 2 * 10^5, every n within 1000 of each psi_k, and a
        # seeded sample of odd n of 11 to 78 bits
        for n in range(200_000):
            assert is_prime(n) == reference_is_prime(n), n
        for psi in _PSI[:-1]:
            for n in range(psi - 1000, psi + 1001):
                assert is_prime(n) == reference_is_prime(n), n
        for n in range(_PSI[-1] - 1000, _PSI[-1]):
            assert is_prime(n) == reference_is_prime(n), n
        rng = random.Random("is-prime-reference")
        for _ in range(20_000):
            n = rng.randrange(1 << rng.randrange(10, 78)) | 1
            assert is_prime(n) == reference_is_prime(n), n


class TestFactorize:
    def test_known_values(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(5040) == ((2, 4), (3, 2), (5, 1), (7, 1))

    def test_refuses_cofactor_just_above_psi12(self):
        # no prime factor below the trial bound, so the whole n is the
        # cofactor, and it lies above psi_12 = 318665857834031151167461
        n = 318665858555474547773473
        assert n == 133873 * 1542841351**2
        with pytest.raises(BoundExceededError, match="certified range"):
            factorize(n)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip_and_primality(self, n):
        fact = factorize(n)
        assert math.prod(p**a for p, a in fact) == n
        primes = [p for p, _ in fact]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        for p, a in fact:
            assert is_prime(p)
            assert a >= 1

    def test_large_prime_cofactor(self):
        p = 2**61 - 1
        assert factorize(6 * p) == ((2, 1), (3, 1), (p, 1))

    def test_matches_reference_up_to_20000(self):
        for n in range(1, 20_001):
            assert factorize(n) == reference_factorize(n), n

    def test_matches_reference_on_seeded_inputs(self):
        # random n < 10^12, semiprimes of the benchmark's shape, and
        # p^2, p^4, p^2*q and (pq)^2, whose squares `factorize` splits by
        # their roots; the reference trial-divides up to the second largest
        # prime factor (about 12 s for this sample), which sets its size
        rng = random.Random("factorize-reference")
        ns = [rng.randrange(1, 10**12) for _ in range(300)]
        ns += [
            _prime_between(rng, 35_000, 40_000) * _prime_between(rng, 10**5, 10**6)
            for _ in range(30)
        ]
        ns += [_prime_between(rng, 20_000, 25_000) ** 2 for _ in range(30)]
        for _ in range(5):
            p, q = (_prime_between(rng, 20_000, 25_000) for _ in range(2))
            ns += [p**4, p**2 * _prime_between(rng, 10**5, 10**6), (p * q) ** 2]
        for n in ns:
            assert factorize(n) == reference_factorize(n), n

    def test_primality_tested_only_on_new_cofactors(self, monkeypatch):
        calls = []
        real = numtheory.is_prime

        def is_prime_counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(numtheory, "is_prime", is_prime_counted)
        assert factorize(37619 * 500009) == ((37619, 1), (500009, 1))
        assert len(calls) <= 5

    def test_product_of_two_primes_near_2_31(self):
        p, q = 2147483629, 2147483647  # the two largest primes below 2^31
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert factorize(q * q) == ((q, 2),)

    def test_cofactor_at_certified_limit_is_a_bound_error(self):
        psi12 = 318665857834031151167461
        with pytest.raises(BoundExceededError, match="certified range"):
            factorize(psi12)
        with pytest.raises(BoundExceededError, match="certified range"):
            # 2^79 - 1 has no prime factor below 2^10 and is past psi_12
            factorize(6 * (2**79 - 1))
        assert factorize(2**100) == ((2, 100),)

    def test_trial_primes_are_the_primes_up_to_the_bound(self):
        bound = numtheory._TRIAL_BOUND
        assert numtheory._TRIAL_PRIMES == tuple(
            n for n in range(bound + 1) if _trial_division_prime(n)
        )
        assert len(numtheory._TRIAL_PRIMES) == 172
        shortcut = numtheory._NEXT_PRIME
        assert shortcut > bound and _trial_division_prime(shortcut)
        assert not any(_trial_division_prime(n) for n in range(bound + 1, shortcut))

    def test_matches_reference_around_the_trial_bound(self):
        # 1021 is the largest trial prime and 1031 = _NEXT_PRIME the least
        # prime above the bound; 1000003 and 10^12 + 39 are primes beyond it
        for n in (
            1021,
            1031,
            1021 * 1031,
            1021**2,
            1031**2,
            1031**3,
            2**40 * 1031,
            1021 * 1000003,
            1031 * (10**12 + 39),
        ):
            assert factorize(n) == reference_factorize(n), n

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]


class TestEulerPhi:
    def test_known_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(5) == 4
        assert euler_phi(16) == 8

    @given(st.integers(min_value=1, max_value=2000))
    def test_counts_units(self, m):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


class TestMultiplicativeOrder:
    def test_known_values(self):
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(1, 7) == 1
        assert multiplicative_order(2, 7) == 3
        for r in (-3, 0, 1, 2, 10):
            assert multiplicative_order(r, 1) == 1

    def test_rejects_non_units(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    @given(st.integers(min_value=2, max_value=1000), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_matches_scan_and_is_minimal(self, m, r):
        if math.gcd(r, m) != 1:
            with pytest.raises(ValueError):
                multiplicative_order(r, m)
            return
        k = multiplicative_order(r, m)
        assert pow(r, k, m) == 1
        assert k == _order_by_scan(r, m)


class TestGeometricSumMod:
    def test_known_values(self):
        assert geometric_sum_mod(2, 0, 5) == 0
        assert geometric_sum_mod(1, 9, 4) == 1
        assert geometric_sum_mod(2, 4, 5) == 0

    def test_brute_force_grid(self):
        for r in range(0, 20):
            for u in range(0, 20):
                for m in (1, 2, 3, 7, 12):
                    expected = sum(r**j for j in range(u)) % m
                    assert geometric_sum_mod(r, u, m) == expected

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=200),
    )
    def test_matches_brute_force(self, r, u, m):
        assert geometric_sum_mod(r, u, m) == sum(pow(r, j, m) for j in range(u)) % m

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200)
    def test_telescoping_identity(self, r, u, m):
        # (r - 1) * (1 + r + ... + r^(u-1)) == r^u - 1
        lhs = (r - 1) * geometric_sum_mod(r, u, m) % m
        rhs = (pow(r, u, m) - 1) % m
        assert lhs == rhs

    def test_matches_the_recursive_reference(self):
        # far past the brute-force ranges: u up to 10^40, m up to 10^20,
        # r = 0 and r = 1 (mod m), m = 1 and m = 2; at r = 1 (mod m),
        # r - 1 has no inverse mod m
        rng = random.Random(2026)
        cases = []
        for m in (1, 2, 3, 10**9 + 7, 2**64, 10**20):
            for _ in range(40):
                u = rng.randrange(10 ** rng.randrange(1, 41))
                k = rng.randrange(4)
                cases += [(rng.randrange(-m, 3 * m), u, m), (k * m, u, m), (k * m + 1, u, m)]
        cases += [(r, 10**40, m) for r in (0, 1, 2, 10**20 - 1) for m in (1, 2, 10**20)]
        for r, u, m in cases:
            assert geometric_sum_mod(r, u, m) == reference_geometric_sum_mod(r, u, m), (r, u, m)

    @pytest.mark.parametrize("r, u, m", [(2, -1, 5), (2, 3, 0), (2, 3, -4)])
    def test_guards_match_the_reference(self, r, u, m):
        for f in (geometric_sum_mod, reference_geometric_sum_mod):
            with pytest.raises(ValueError):
                f(r, u, m)


class TestFindPrimeInProgression:
    def test_known_values(self):
        assert find_prime_in_progression(4, {2}, q=2) == 5
        assert find_prime_in_progression(3, {3}, q=3) == 7
        assert find_prime_in_progression(2, {2, 3, 5}, q=2) == 7

    def test_rejects_non_prime_powers(self):
        with pytest.raises(ValueError):
            find_prime_in_progression(6, q=2)
        with pytest.raises(ValueError):
            find_prime_in_progression(6, q=3)
        with pytest.raises(ValueError):
            find_prime_in_progression(1, q=2)
        for q_pow, q in ((9, 2), (8, 4), (4, 1), (2, 3)):
            with pytest.raises(ValueError, match="not a positive power"):
                find_prime_in_progression(q_pow, q=q)

    def test_certifies_no_prime_of_n_again(self, monkeypatch):
        # the caller certified q by factoring N; neither search factors
        def factorize(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(numtheory, "factorize", factorize)
        assert find_prime_in_progression(3**4, {3}, q=3) == 163
        assert find_element_of_order(163, 3**4, q=3) == 4

    def test_hunt_past_certified_range_is_a_bound_error(self):
        # past psi_12 the lemma proves 1 + 29*2^77 prime; for 2^100 the
        # prime candidate at t = 165 is left open by every base, and the
        # hunt refuses it rather than skip it
        assert find_prime_in_progression(2**77, {2}, q=2) == 1 + 29 * 2**77
        p = 1 + 165 * 2**100
        with pytest.raises(BoundExceededError, match=rf"^{p} is outside the certified range"):
            find_prime_in_progression(2**100, {2}, q=2)

    def test_budget_exhaustion_raises(self):
        # candidates 5, 9, 13, 17 are excluded or composite
        with pytest.raises(SearchBudgetError):
            find_prime_in_progression(4, {5, 13, 17}, budget=4, q=2)

    @given(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25, 27, 121]))
    def test_postconditions(self, q_pow):
        exclusions = {2, 3, 5, 7}
        q = factorize(q_pow)[0][0]
        p = find_prime_in_progression(q_pow, exclusions, q=q)
        assert p % q_pow == 1
        assert is_prime(p)
        assert p not in exclusions
        # smallest admissible: nothing smaller in the progression qualifies
        t = 1
        while 1 + t * q_pow < p:
            candidate = 1 + t * q_pow
            assert candidate in exclusions or not is_prime(candidate)
            t += 1


class TestFindElementOfOrder:
    def test_known_values(self):
        assert find_element_of_order(5, 4, q=2) == 2
        assert find_element_of_order(7, 3, q=3) == 4  # smallest base g=2 gives 2^2
        assert find_element_of_order(5, 1, q=2) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            find_element_of_order(7, 4, q=2)  # 4 does not divide 6
        with pytest.raises(ValueError, match="not a positive power"):
            find_element_of_order(13, 4, q=3)  # 4 is not a power of 3

    @given(
        st.sampled_from(
            [(5, 4, 2), (7, 3, 3), (13, 4, 2), (17, 16, 2), (19, 9, 3), (101, 25, 5), (31, 5, 5)]
        )
    )
    def test_postconditions(self, case):
        p, q_pow, q = case
        r = find_element_of_order(p, q_pow, q=q)
        assert 2 <= r < p
        assert multiplicative_order(r, p) == q_pow


def _outcome(f, *args, **kwargs):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except (BoundExceededError, SearchBudgetError) as exc:
        return type(exc), str(exc)


def _primes_below(n: int) -> bytearray:
    """sieve[k] == 1 iff k is prime, for 0 <= k < n."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return sieve


class TestPocklington:
    def test_hunt_matches_the_is_prime_reference(self):
        # the hunt proves candidates by the lemma where it can; every
        # verdict must be is_prime's, so it stops at the same p, or raises
        # the same refusal
        prime = _primes_below(3001)
        cases = [
            (q**a, q) for q in range(2, 3001) if prime[q]
            for a in range(1, 12) if q**a <= 3000
        ]
        rng = random.Random("pocklington-hunt")
        large = (rng.randrange(10**12, 10**15) for _ in range(2000))
        cases += [(q, q) for q in large if reference_is_prime(q)][:20]
        below_2_62 = [n for n in range(2**62 - 1, 2**62 - 2000, -2) if reference_is_prime(n)]
        cases += [(q, q) for q in below_2_62[:5]]
        cases += [(2**k, 2) for k in range(1, 71)]
        for q_pow, q in cases:
            assert _outcome(find_prime_in_progression, q_pow, {q}, q=q) == _outcome(
                reference_find_prime_in_progression, q_pow, {q}, q=q
            ), q_pow

    def test_never_accepts_a_composite(self):
        # every p = 1 + t*q^a < 10^6 with t <= q^a + 1: the hunt's scan of
        # bases accepts no composite and rejects no prime above the trial
        # bound, the only candidates the hunt hands it
        limit = 10**6
        prime = _primes_below(limit)
        scanned = accepted = 0
        for q in range(2, limit):
            if not prime[q]:
                continue
            q_pow = q
            while q_pow < limit:
                for t in range(1, min(q_pow + 1, (limit - 2) // q_pow) + 1):
                    p = 1 + t * q_pow
                    verdict = numtheory._pocklington_scan(p, t, q_pow, q)
                    if prime[p]:
                        assert verdict is not False or p <= numtheory._TRIAL_BOUND, p
                        accepted += verdict is True
                    else:
                        assert verdict is not True, (p, q_pow)
                    scanned += 1
                q_pow *= q
        assert scanned > 700_000 and accepted > 50_000

    def test_carmichael_1729_is_refused_by_every_witness(self):
        # 1729 = 7 * 13 * 19 = 1 + 27 * 64 passes Fermat's test to every
        # base prime to it, and t = 27 <= 2^6 + 1; no x proves it prime
        assert 1729 == 1 + 27 * 64
        for x in range(1729):
            below = pow(x, 32, 1729)
            assert not pocklington_proves_prime(1729, 64, pow(below, 2, 1729), below), x
        assert numtheory._pocklington_scan(1729, 27, 64, 2) is False

    def test_bound_is_what_refuses_the_square_just_past_it(self):
        # (q^a + 1)^2 = 1 + (q^a + 2) * q^a is the least composite the bound
        # must refuse: 8 has order 2 modulo 9 and 3, so only p < (2 + 1)^2
        # fails for p = 9
        top, below = pow(8, 2, 9), pow(8, 1, 9)
        assert top == 1 and math.gcd(below - 1, 9) == 1
        assert not pocklington_proves_prime(9, 2, top, below)
        assert pocklington_proves_prime(7, 2, pow(6, 2, 7), 6)
