import pytest

from zmcenter.zm import iter_valid_triples, validate_triple


@pytest.fixture(scope="session")
def zm_5_16_2():
    return validate_triple(5, 16, 2)


@pytest.fixture(scope="session")
def zm_5_48_2():
    return validate_triple(5, 48, 2)


@pytest.fixture(scope="session")
def zm_5_4_2():
    return validate_triple(5, 4, 2)


@pytest.fixture(scope="session")
def zm_7_6_2():
    return validate_triple(7, 6, 2)


@pytest.fixture(scope="session")
def zm_7_9_2():
    return validate_triple(7, 9, 2)


# small triples on which exhaustive element-level checks are cheap
SMALL_TRIPLES = [
    (1, 1, 1),
    (1, 6, 1),
    (3, 4, 2),
    (5, 4, 2),
    (5, 8, 2),
    (7, 3, 2),
    (7, 6, 2),
    (7, 9, 4),
]


@pytest.fixture(scope="session")
def small_triples():
    return [validate_triple(m, n, r) for m, n, r in SMALL_TRIPLES]


@pytest.fixture(scope="session")
def valid_triples():
    """Every valid triple with m > 1 and mn <= 2000, built once for the
    tests that walk all 7318 of them."""
    return list(iter_valid_triples(2000))
