"""Output checks for the benchmark's operations, and the small exact
arithmetic they rest on.

Nothing here imports zmcenter: every check recomputes what it needs by
direct search (orders by repeated multiplication, divisors by trial
division, primality by its own Miller-Rabin), so a bug in the package's
formulas cannot hide behind a check that calls the same formulas.
"""

from __future__ import annotations

import json
import math

ANSWERED = "answered"
REFUSED = "refused"
FAILED = "failed"  # no answer where one was due
WRONG = "wrong"    # an answer the checks reject

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BOUND = 3

# Strong-probable-prime bases proven sufficient for n < 3.18 * 10^23,
# far above every number the workloads produce (all below 2^64).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class CheckError(Exception):
    """An operation's output contradicts what the check recomputed."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SPRP_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct primes of a small n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    """All divisors of a small n in ascending order."""
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def order_mod(r: int, m: int, limit: int | None = None) -> int | None:
    """Least k >= 1 with r^k = 1 (mod m) by repeated multiplication, or
    None if there is none up to ``limit``."""
    limit = m if limit is None else limit
    x = r % m
    for k in range(1, limit + 1):
        if x == 1 % m:
            return k
        x = x * r % m
    return None


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


def check_abscenter(subject: tuple[int, int, int], doc: dict) -> None:
    """`abscenter m n r --json`, checked from the group's definition."""
    m, n, r = subject
    _expect(doc["triple"] == {"m": m, "n": n, "r": r}, "triple echoed wrongly")
    d = order_mod(r, m)
    _expect(doc["d"] == d, f"d is {doc['d']}, order of {r} mod {m} is {d}")
    e = doc["e"]
    _expect(
        e >= 1 and (d * d * e) % n == 0 and all((d * d * s) % n for s in range(1, e)),
        f"e = {e} is not the least s with n | d^2 s",
    )
    u = d * e % n
    _expect(doc["generator"] == f"b^{u}", f"generator {doc['generator']} is not b^{u}")
    # order of b^u in <b> of order n
    _expect(doc["formula_order"] == n // math.gcd(u, n), "formula_order is not the order of b^(d*e)")
    _expect(doc["center_order"] == n // d, "center_order is not |<b^d>|")
    _expect(
        doc["equals_center"] == (doc["formula_order"] == doc["center_order"]),
        "equals_center contradicts the orders",
    )
    guaranteed = all(d % p == 0 for p in prime_factors(n))
    _expect(doc["regime_guaranteed"] == guaranteed, "regime flag is wrong")
    oracle = doc["oracle_order"]
    _expect(isinstance(oracle, int), "oracle did not run")
    # <b^(d*e)> <= L <= Z(G) = <b^d>, all inside the cyclic group <b>, where a
    # subgroup is fixed by its order: agreement is equality of orders.
    _expect(doc["center_order"] % oracle == 0, "oracle order does not divide the center order")
    _expect(oracle % doc["formula_order"] == 0, "closed form is not inside the oracle's L")
    _expect(doc["agree"] == (oracle == doc["formula_order"]), "agree contradicts the orders")
    if guaranteed:
        _expect(doc["agree"] is True, "formula and oracle disagree in the guaranteed regime")


def check_certificate(N: int, cert: dict) -> None:
    """`realise N --json`: the q^alpha multiply to N, each p = 1 (mod q^alpha),
    r has order exactly q^alpha mod p, and the p are distinct primes."""
    _expect(cert["N"] == N, f"certificate is for {cert['N']}, not {N}")
    factors = cert["factors"]
    qs = [f["q"] for f in factors]
    _expect(qs == sorted(set(qs)), "primes q are not strictly ascending")
    _expect(math.prod(f["q"] ** f["alpha"] for f in factors) == N, "q^alpha do not multiply to N")
    ps = [f["p"] for f in factors]
    _expect(len(set(ps)) == len(ps), f"auxiliary primes repeat: {ps}")
    _expect(not set(ps) & set(qs), "an auxiliary prime equals a prime of N")
    for f in factors:
        q, alpha, p, r = f["q"], f["alpha"], f["p"], f["r"]
        q_pow = q**alpha
        _expect(alpha >= 1 and is_prime(q), f"{q}^{alpha} is not a prime power")
        _expect(is_prime(p), f"{p} is not prime")
        _expect((p - 1) % q_pow == 0, f"{p} is not 1 mod {q_pow}")
        _expect(
            pow(r, q_pow, p) == 1 and pow(r, q_pow // q, p) != 1,
            f"{r} does not have order {q_pow} mod {p}",
        )


def check_forward(N: int, doc: dict) -> None:
    """`verify N --json`: one row per divisor, each formula product equal
    to its divisor."""
    check_certificate(N, doc["certificate"])
    rows = doc["forward_results"]
    _expect([row["divisor"] for row in rows] == divisors(N), "rows do not list the divisors of N")
    for row in rows:
        _expect(row["formula_product"] == row["divisor"], f"divisor {row['divisor']} not realised")
        _expect(
            math.prod(f["formula_order"] for f in row["factors"]) == row["formula_product"],
            "formula_product is not the product of the factor orders",
        )
        for f in row["factors"]:
            if f["oracle_order"] is not None:
                _expect(f["oracle_order"] == f["formula_order"], "oracle disagrees on a factor")
        _expect(row["pass"] is True, f"divisor {row['divisor']} reported as failed")
    _expect(doc["pass"] is True, "verification reported as failed")


def check_converse(N: int, doc: dict) -> None:
    """`verify N --converse --json`: forward rows as above, and every
    scanned subgroup's absolute center cyclic of order dividing its target."""
    check_forward(N, doc)
    factors = doc["certificate"]["factors"]
    rows = doc["converse_results"]
    _expect(len(rows) == len(factors), "one converse row per factor expected")
    for row, f in zip(rows, factors):
        _expect(row["target"] == f["q"] ** f["alpha"], "converse target is not q^alpha")
        for s in row["subgroups"]:
            _expect(s["l_cyclic"] and row["target"] % s["l_order"] == 0, "an L does not embed")
    full = doc["full_product"]
    for s in full["subgroups"]:
        _expect(s["l_cyclic"] and N % s["l_order"] == 0, "an L of the full product does not embed")
    _expect(full["scanned"] or not full["subgroups"], "unscanned product lists subgroups")


CHECKS = {
    "sweep": check_abscenter,
    "forward": check_forward,
    "converse": check_converse,
    "realise": check_certificate,
}


def classify(workload: str, subject, code: int | None, stdout: str) -> tuple[str, str]:
    """(outcome, reason) of one operation.

    Every input the workloads make is valid. Exit 0 must carry a correct
    answer. Exit 1 is the package's own verification reporting a failure,
    so it is a wrong answer whatever its output says. Exit 3 (a documented
    bound) is a refusal. Any other exit code is a failure.
    """
    if code == EXIT_BOUND:
        return REFUSED, "bound exceeded"
    if code not in (EXIT_OK, EXIT_VERIFY_FAIL):
        return FAILED, f"exit code {code}"
    try:
        CHECKS[workload](subject, json.loads(stdout))
    except CheckError as exc:
        return WRONG, f"wrong answer: {exc}"
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, f"malformed output: {exc!r}"
    if code == EXIT_VERIFY_FAIL:
        return WRONG, "exit 1: the package reports a failed verification"
    return ANSWERED, ""
