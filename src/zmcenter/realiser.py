"""Constructive realisation of any finite cyclic group C_N as an absolute
center, with machine-checked verification in both directions.

For each prime power q^a in N the construction picks a prime p = 1 (mod q^a)
and an r of order exactly q^a mod p, giving a factor group
H = ZM(p, q^(2a), r) with L(H) = C_(q^a).  The direct product over all
prime powers has absolute center C_N because the factor orders are pairwise
coprime.

Verification:
  * forward  - for every divisor N1 of N, with beta the exponent of q in
    N1, each factor's b-part is shrunk to q^(a + beta), giving the triple
    ZM(p, q^(a + beta), r); the closed form always sits in its guaranteed
    regime here, and small triples are cross-checked against the
    fixed-point oracle.  The factor orders are pairwise coprime, so a row
    passes iff each (factor, beta) has formula order q^beta and an oracle
    that is skipped or agrees: N1 is then the absolute center of the
    product of these triples.  For beta < a that triple is no subgroup of
    H; the subgroup <a, b^(q^(a - beta))> of H is
    ZM(p, q^(a + beta), r^(q^(a - beta))), with absolute center
    C_(q^beta), which the tests check and this check does not.  Each
    (factor, beta) is checked, compared and judged once per verification,
    and ord_p(r) once per factor.
  * converse - subgroups of a coprime direct product split as products of
    factor subgroups, so each factor is scanned exhaustively: every
    subgroup's brute-force absolute center must be cyclic of order dividing
    q^a.  On top of that, when the full product itself fits the bounds, its
    subgroups are scanned directly.  Conjugate subgroups are isomorphic, so
    each scan runs the brute force once per conjugacy class and gives its
    row to every subgroup of the class.  The factor triples are read off
    the certificate, whose construction proved them.  The converse runs
    first: it checks every factor bound before any Cayley table, so a
    refusal costs no scan and no forward comparison.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from operator import itemgetter

from . import abscenter, genericgroup
from .config import Bounds, DEFAULT_BOUNDS, TABLE_BOUND
from .errors import BoundExceededError, CertificateError
from .numtheory import (
    factorize,
    find_element_of_order,
    find_prime_in_progression,
    is_prime,
    multiplicative_order,
    pocklington_proves_prime,
)
from .zm import ZmTriple, check_presentation, validate_triple


@dataclass(frozen=True)
class FactorWitness:
    q: int      # prime of N
    alpha: int  # exponent of q in N
    p: int      # auxiliary prime, p = 1 (mod q^alpha)
    r: int      # element of order exactly q^alpha mod p

    @property
    def q_pow(self) -> int:
        return self.q**self.alpha

    def divisor_triples(self) -> list[ZmTriple]:
        """ZM(p, q^(alpha+beta), r) for beta = 0..alpha: the triple the
        forward check compares for a divisor in which q has exponent beta.
        It has the factor's p and r with the b-part shrunk; for beta <
        alpha it is not a subgroup of the factor ZM(p, q^(2 alpha), r).
        d = ord_p(r) does not depend on n, so only beta = 0 computes it;
        every beta's presentation is still checked."""
        first = validate_triple(self.p, self.q_pow, self.r)
        return [first] + [
            ZmTriple(m=self.p, n=n, r=check_presentation(self.p, n, self.r), d=first.d)
            for n in (self.q ** (self.alpha + beta) for beta in range(1, self.alpha + 1))
        ]


@dataclass(frozen=True)
class RealiserCertificate:
    """Construction runs `validate_certificate(self, decomposition)`, so
    every instance is checked and the verifiers take it as given."""

    N: int
    factors: tuple[FactorWitness, ...]
    decomposition: InitVar[tuple[tuple[int, int], ...] | None] = None

    def __post_init__(self, decomposition: tuple[tuple[int, int], ...] | None) -> None:
        validate_certificate(self, decomposition)

    def triples(self) -> list[ZmTriple]:
        """ZM(p, q^(2 alpha), r) per factor: `validate_certificate` has
        checked this presentation and proven ord_p(r) = q^alpha."""
        return [ZmTriple(f.p, f.q ** (2 * f.alpha), f.r % f.p, f.q_pow) for f in self.factors]


def validate_certificate(
    cert: RealiserCertificate, decomposition: tuple[tuple[int, int], ...] | None = None
) -> None:
    """Check every structural invariant; raises CertificateError, or
    TripleError for a bad factor presentation, or the BoundExceededError of
    `is_prime` when a cofactor of N or an auxiliary prime the lemma does
    not prove is at or past psi_12.

    The factors must be the prime powers of N in ascending q;
    `decomposition` is `factorize(cert.N)` when the caller has just
    computed it (`realise` does); without it N is factored here, so a
    certificate built from its fields alone is checked from scratch.
    Each factor's presentation ZM(p, q^(2 alpha), r) is checked without
    computing ord_p(r), which the two modular powers before it have
    already proven to be q^alpha.  When p < (q^alpha + 1)^2, which is
    t <= q^alpha + 1 for p = 1 + t*q^alpha, those two powers also prove p
    prime by `pocklington_proves_prime`, with r as the witness, at any
    size.  `is_prime` decides every p the lemma does not prove, so a bad
    certificate is refused by the same test with the same message.

    The factor orders p * q^(2 alpha) are pairwise coprime once these
    checks pass, so no separate test is made.  Each q is a distinct prime
    of N (the decomposition check) and each p is prime, so two orders can
    share a prime only if two p are equal, two q are equal, or a p equals
    a q: the distinct-p check, the decomposition check and the collision
    check reject those three cases in turn.
    """
    if cert.N < 1:
        raise CertificateError(f"N must be >= 1, got {cert.N}")
    if decomposition is None:
        decomposition = factorize(cert.N)
    got = tuple((f.q, f.alpha) for f in cert.factors)
    if got != decomposition:
        raise CertificateError(
            f"factors {got} do not match the decomposition {decomposition} of {cert.N}"
        )
    qs = {f.q for f in cert.factors}
    ps = [f.p for f in cert.factors]
    if len(set(ps)) != len(ps):
        raise CertificateError(f"auxiliary primes are not distinct: {ps}")
    if qs & set(ps):
        raise CertificateError(f"auxiliary primes collide with {sorted(qs & set(ps))}")
    for f in cert.factors:
        # q is prime (the factors match factorize(N)), so ord_p(r) = q^alpha
        # iff r^(q^alpha) = 1 and r^(q^(alpha-1)) != 1; the same two powers
        # prove p prime by Pocklington's lemma when it applies; is_prime
        # refuses every p < 2, which has no powers mod p to speak of
        proven = False
        if f.p > 1:
            below = pow(f.r, f.q_pow // f.q, f.p)
            top = pow(below, f.q, f.p)
            proven = pocklington_proves_prime(f.p, f.q_pow, top, below)
        if not proven and not is_prime(f.p):
            raise CertificateError(f"{f.p} is not prime")
        if (f.p - 1) % f.q_pow != 0:
            raise CertificateError(f"{f.p} is not 1 mod {f.q_pow}")
        if top != 1 or below == 1:
            if f.r % f.p == 0:  # a multiple of p has no order mod p
                raise CertificateError(
                    f"{f.r} is not a unit mod {f.p}, so its order is not {f.q_pow}"
                )
            raise CertificateError(
                f"order of {f.r} mod {f.p} is {multiplicative_order(f.r, f.p)}, "
                f"expected {f.q_pow}"
            )
        check_presentation(f.p, f.q ** (2 * f.alpha), f.r)


def realise(N: int, prime_budget: int = DEFAULT_BOUNDS.prime_budget) -> RealiserCertificate:
    """Build the certificate for C_N.  Deterministic: factors are handled
    in ascending-q order, the prime hunt takes the smallest admissible
    prime, and the order-q^a element comes from the smallest base."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    decomposition = factorize(N)
    exclusions = {q for q, _ in decomposition}
    factors = []
    for q, alpha in decomposition:
        q_pow = q**alpha
        p = find_prime_in_progression(q_pow, exclusions, budget=prime_budget, q=q)
        exclusions.add(p)
        r = find_element_of_order(p, q_pow, q=q)
        factors.append(FactorWitness(q=q, alpha=alpha, p=p, r=r))
    return RealiserCertificate(N, tuple(factors), decomposition)


def subgroup_for_divisor(cert: RealiserCertificate, n1: int) -> list[ZmTriple]:
    """The triples whose product the forward check compares for the
    divisor n1 of N: ZM(p, q^(alpha+beta), r) per factor, beta the
    multiplicity of q in n1.  Their product has absolute center C_n1 but
    is a subgroup of the certificate's group only where beta = alpha for
    every factor: see `FactorWitness.divisor_triples`."""
    if n1 < 1 or cert.N % n1 != 0:
        raise ValueError(f"{n1} does not divide {cert.N}")
    exponents = dict(factorize(n1))
    return [f.divisor_triples()[exponents.get(f.q, 0)] for f in cert.factors]


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class ForwardRow:
    divisor: int
    factors: tuple[abscenter.AbsCenterComparison, ...]
    formula_product: int
    oracle_product: int | None
    passed: bool


@dataclass(frozen=True)
class SubgroupScanRow:
    order: int
    l_order: int
    l_cyclic: bool
    embeds: bool  # cyclic and order divides the factor's q^alpha


@dataclass(frozen=True)
class ConverseFactorRow:
    index: int
    triple: ZmTriple
    target: int  # q^alpha
    scans: tuple[SubgroupScanRow, ...]
    passed: bool


@dataclass(frozen=True)
class FullProductRow:
    order: int
    scanned: bool
    reason: str
    scans: tuple[SubgroupScanRow, ...]
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    certificate: RealiserCertificate
    forward_results: tuple[ForwardRow, ...]
    converse_results: tuple[ConverseFactorRow, ...] | None
    full_product: FullProductRow | None
    passed: bool


def verify_forward(cert: RealiserCertificate) -> tuple[ForwardRow, ...]:
    """One row per divisor N1 of N: the per-factor closed forms must
    multiply to N1, and every factor small enough is cross-checked against
    the fixed-point oracle.  Disagreements are recorded, never raised.

    Each (factor, beta) gets one record (q^beta, comparison, ok), ok iff
    the formula order is q^beta and the oracle is skipped or agrees with
    it.  A row picks one record per factor and passes iff all are ok,
    which is exactly the row-level check, since
      - each formula order n // gcd(de, n) divides its n = q^(alpha+beta);
      - the q are distinct primes (the decomposition check);
      - so the orders are always pairwise coprime, and their product is
        the product of the q^beta only when each order is its own q^beta;
      - `agree is True` means the oracle set is <b^(de)>, so then the
        oracle order is the formula order.

    The rows are built as one running product over the factors: starting
    from the empty row (divisor 1, no factors, both products 1, passing),
    each factor extends every partial row by each of its records.  After
    the last factor the partial rows are the choices of one record per
    factor, each once, and each field is a left fold along its choice: the
    divisor, the formula product and the oracle product fold by
    multiplication (the oracle product turns None at the first skipped
    oracle and stays None, so it is the product exactly when no oracle of
    the row was skipped), and the verdict folds by AND.  The divisors are
    distinct, so sorting by them orders the rows totally.
    """
    rows = [(1, (), 1, 1, True)]
    for f in cert.factors:
        by_beta = []
        for beta, t in enumerate(f.divisor_triples()):
            q_beta, c = f.q**beta, abscenter.compare(t)
            ok = c.formula_order == q_beta and c.oracle_order in (None, q_beta)
            by_beta.append((q_beta, c, ok and c.agree is not False))
        rows = [
            (
                divisor * q_beta,
                factors + (c,),
                formula * c.formula_order,
                None if oracle is None or c.oracle_order is None else oracle * c.oracle_order,
                passed and ok,
            )
            for divisor, factors, formula, oracle, passed in rows
            for q_beta, c, ok in by_beta
        ]
    rows.sort(key=itemgetter(0))
    return tuple(ForwardRow(*row) for row in rows)


def _scan_subgroups(
    group: genericgroup.CayleyGroup, target: int
) -> tuple[SubgroupScanRow, ...]:
    """Brute-force absolute center of every subgroup of the given table,
    one row per subgroup in `genericgroup.subgroups` order.  The brute
    force runs once per conjugacy class, on its first subgroup, and the
    rest of the class reuses that row: x -> y^-1 x y is an isomorphism of
    S onto S^y, and every field of the row depends only on the
    isomorphism type of S."""
    rows = []
    by_class: dict[int, SubgroupScanRow] = {}
    for sub in genericgroup.subgroups(group):
        row = by_class.get(sub.conjugacy_class)
        if row is None:
            as_group = sub.as_group()
            fixed = genericgroup.absolute_center_bruteforce(as_group)
            cyclic, l_order = genericgroup.is_cyclic(fixed)
            row = by_class[sub.conjugacy_class] = SubgroupScanRow(
                order=sub.order,
                l_order=l_order,
                l_cyclic=cyclic,
                embeds=cyclic and target % l_order == 0,
            )
        rows.append(row)
    return tuple(rows)


def verify_converse(
    cert: RealiserCertificate, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[tuple[ConverseFactorRow, ...], FullProductRow]:
    """Exhaustive per-factor subgroup scans, plus a direct scan of the full
    product group whenever it fits the bounds (the product-splitting step
    then gets spot-checked, not just assumed).

    Each factor is checked against TABLE_BOUND and the scan bounds
    (BoundExceededError for the first that fails) before any Cayley table
    is built, so a refused certificate costs no scan.  These are the
    converse's only gates: the table engines take any order.

    A one-factor certificate reuses its factor scan as the full-product
    scan, keyed here on the number of factors: the product of one table
    is an equal copy of it, and the factor's target q^alpha is N, so a
    second scan would run the same brute force on an equal group against
    the same target.  Nothing the check looks at is skipped.
    """
    triples = cert.triples()
    for t in triples:
        if t.order > TABLE_BOUND:
            raise BoundExceededError(f"{t} has order {t.order} > table bound {TABLE_BOUND}")
        if t.order > bounds.subgroups or t.order > bounds.aut:
            raise BoundExceededError(
                f"factor {t} of order {t.order} exceeds the scan bounds "
                f"(subgroups {bounds.subgroups}, aut {bounds.aut})"
            )
    groups = [t.cayley() for t in triples]
    factor_rows = []
    for i, (f, t, group) in enumerate(zip(cert.factors, triples, groups)):
        scans = _scan_subgroups(group, f.q_pow)
        factor_rows.append(
            ConverseFactorRow(
                index=i,
                triple=t,
                target=f.q_pow,
                scans=scans,
                passed=all(s.embeds for s in scans),
            )
        )

    full_order = math.prod(t.order for t in triples)
    scanned = full_order <= min(bounds.subgroups, bounds.aut, TABLE_BOUND)
    if not scanned:
        scans = ()
    elif len(factor_rows) == 1:
        scans = factor_rows[0].scans
    else:
        scans = _scan_subgroups(genericgroup.direct_product(groups), cert.N)
    full_row = FullProductRow(
        order=full_order,
        scanned=scanned,
        reason=(
            "within bounds"
            if scanned
            else f"order {full_order} above scan bounds; factor scans cover it"
        ),
        scans=scans,
        passed=all(s.embeds for s in scans),
    )
    return tuple(factor_rows), full_row


def verify(
    cert: RealiserCertificate,
    converse: bool = False,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> VerificationReport:
    """Forward verification, and the converse one when asked.  The
    converse runs first, so its bound refusal comes before any forward
    comparison."""
    converse_rows: tuple[ConverseFactorRow, ...] | None = None
    full_row: FullProductRow | None = None
    if converse:
        converse_rows, full_row = verify_converse(cert, bounds)
    forward = verify_forward(cert)
    passed = all(r.passed for r in forward)
    if converse_rows is not None:
        passed = passed and all(r.passed for r in converse_rows) and full_row.passed
    return VerificationReport(
        certificate=cert,
        forward_results=forward,
        converse_results=converse_rows,
        full_product=full_row,
        passed=passed,
    )
