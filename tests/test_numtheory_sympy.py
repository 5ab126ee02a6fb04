"""Cross-check of `numtheory` against sympy, an independent implementation.

sympy is a test-only dependency: without it this module is skipped.  All
inputs stay below psi_12, where `is_prime` is certified.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zmcenter.numtheory import factorize, is_prime, multiplicative_order

sympy = pytest.importorskip("sympy")

PSI_12 = 318665857834031151167461

# primes of 20 to 31 bits, found by sympy rather than by the code under test
primes_20_31 = st.integers(min_value=2**19, max_value=2**31 - 20).map(sympy.nextprime)


@st.composite
def prime_powers(draw):
    p = draw(st.integers(min_value=3, max_value=2**31).map(sympy.prevprime))
    k_max = 1
    while p ** (k_max + 1) < PSI_12:
        k_max += 1
    return p ** draw(st.integers(min_value=1, max_value=k_max))


semiprimes = st.tuples(primes_20_31, primes_20_31).map(math.prod)


@st.composite
def multiples_of_semiprimes(draw):
    """k * s for a semiprime s and 1 <= k <= 10^6, with k capped so that
    the product stays below psi_12."""
    s = draw(semiprimes)
    return s * draw(st.integers(min_value=1, max_value=min(10**6, (PSI_12 - 1) // s)))


below_psi12 = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=PSI_12 - 1),
    prime_powers(),
    semiprimes,
)


@settings(max_examples=300, deadline=None)
@given(below_psi12)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**12),
        prime_powers(),
        semiprimes,
        multiples_of_semiprimes(),
    )
)
def test_factorize_matches_sympy(n):
    assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=2, max_value=10**12),
        prime_powers(),
        semiprimes,
    ),
    st.integers(min_value=1, max_value=PSI_12),
)
def test_multiplicative_order_matches_sympy(m, r):
    assume(math.gcd(r, m) == 1)
    assert multiplicative_order(r, m) == sympy.n_order(r, m)
