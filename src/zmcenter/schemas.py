"""The JSON documents the package emits: the one module that knows their
format.

Each document part has one writer, which fills a fixed ``%``-template
straight from the fields of its result object.  A writer returns the
text ``json.dumps(part, sort_keys=True, indent=2)`` would give the part's
tree at the depth the part opens at: keys sorted, ``": "`` between key
and value, items separated by ``",\\n"`` and two spaces of indent per
level, ``[]`` for an empty list, strings ASCII-escaped.  The templates
are built at import from their members, listed in key order, for each
depth the part opens at.  The command line writes a document's text and
a newline.

Every document carries ``"schema": 1``; the JSON-Schema of each lives in
``tests/test_json_schemas.py``, which validates the emitted documents
against it and checks that each text is in that canonical form.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .abscenter import AbsCenterComparison
    from .aut import AutCounts, AutTriple
    from .realiser import (
        ConverseFactorRow,
        ForwardRow,
        FullProductRow,
        RealiserCertificate,
        SubgroupScanRow,
        VerificationReport,
    )
    from .zm import ZmTriple

_PAD = ["\n" + "  " * depth for depth in range(8)]


def _block(items: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """A list (or, with brackets "{}", an object) opening at `depth`, of
    item texts written at depth + 1."""
    items = list(items)
    if not items:
        return brackets
    inner = _PAD[depth + 1]
    return brackets[0] + inner + ("," + inner).join(items) + _PAD[depth] + brackets[1]


def _template(depth: int, *members: str) -> str:
    return _block(members, depth, "{}")


def _flag(value: bool | None) -> str:
    return "null" if value is None else "true" if value else "false"


def _int(value: int | None) -> str:
    return "null" if value is None else "%d" % value


_TRIPLE = {depth: _template(depth, '"m": %d', '"n": %d', '"r": %d') for depth in (1, 3, 5)}


def triple(t: ZmTriple, depth: int = 1) -> str:
    """The "triple" object of every document: at depth 1 in the top-level
    documents, 3 in a converse row, 5 in a forward factor record."""
    return _TRIPLE[depth] % (t.m, t.n, t.r)


_ABSCENTER = _template(
    0, '"agree": %s', '"center_order": %d', '"d": %d', '"e": %d', '"equals_center": %s',
    '"formula_order": %d', '"generator": "b^%d"', '"oracle_order": %s',
    '"regime_guaranteed": %s', '"schema": 1', '"triple": %s',
)


def abscenter(c: AbsCenterComparison) -> str:
    """The `abscenter --json` document: the comparison `c`, and d, the
    center and the regime read off its triple."""
    t = c.triple
    _, center_order = t.center()
    return _ABSCENTER % (
        _flag(c.agree),
        center_order,
        t.d,
        c.e,
        _flag(c.formula_order == center_order),
        c.formula_order,
        c.formula_generator.u,
        _int(c.oracle_order),
        _flag(t.regime_guaranteed),
        triple(t),
    )


_CERTIFICATE = {
    depth: _template(depth, '"N": %d', '"factors": %s', '"schema": 1') for depth in (0, 1)
}
_WITNESS = {
    depth: _template(depth, '"alpha": %d', '"p": %d', '"q": %d', '"r": %d') for depth in (2, 3)
}


def certificate(cert: RealiserCertificate, depth: int = 0) -> str:
    """The `realise --json` document at depth 0, and a report's
    "certificate" at depth 1."""
    witness = _WITNESS[depth + 2]
    factors = _block((witness % (f.alpha, f.p, f.q, f.r) for f in cert.factors), depth + 1)
    return _CERTIFICATE[depth] % (cert.N, factors)


_FACTOR_RECORD = _template(
    4, '"agree": %s', '"formula_order": %d', '"oracle_order": %s', '"triple": %s'
)


def factor_record(c: AbsCenterComparison) -> str:
    """One factor of a forward row: the comparison of its triple."""
    return _FACTOR_RECORD % (
        _flag(c.agree), c.formula_order, _int(c.oracle_order), triple(c.triple, 5)
    )


_FORWARD_ROW = _template(
    2, '"divisor": %d', '"factors": %s', '"formula_product": %d', '"oracle_product": %s',
    '"pass": %s',
)


def forward_row(row: ForwardRow, records: list[str]) -> str:
    """One divisor's row, given the factor record of each of its factors."""
    return _FORWARD_ROW % (
        row.divisor,
        _block(records, 3),
        row.formula_product,
        _int(row.oracle_product),
        _flag(row.passed),
    )


_SCAN_ROW = {
    depth: _template(
        depth, '"embeds_in_C_N": %s', '"l_cyclic": %s', '"l_order": %d', '"order": %d'
    )
    for depth in (3, 4)
}


def scan_row(s: SubgroupScanRow, depth: int) -> str:
    """One scanned subgroup: at depth 4 in a converse row, 3 in the full
    product."""
    return _SCAN_ROW[depth] % (_flag(s.embeds), _flag(s.l_cyclic), s.l_order, s.order)


_CONVERSE_ROW = _template(
    2, '"factor_index": %d', '"pass": %s', '"subgroups": %s', '"target": %d', '"triple": %s'
)


def converse_row(row: ConverseFactorRow) -> str:
    return _CONVERSE_ROW % (
        row.index,
        _flag(row.passed),
        _block((scan_row(s, 4) for s in row.scans), 3),
        row.target,
        triple(row.triple, 3),
    )


_FULL_PRODUCT = _template(
    1, '"order": %d', '"pass": %s', '"reason": %s', '"scanned": %s', '"subgroups": %s'
)


def full_product(fp: FullProductRow) -> str:
    return _FULL_PRODUCT % (
        fp.order,
        _flag(fp.passed),
        _quote(fp.reason),
        _flag(fp.scanned),
        _block((scan_row(s, 3) for s in fp.scans), 2),
    )


_REPORT = _template(
    0, '"certificate": %s', '"converse_results": %s', '"forward_results": %s',
    '"full_product": %s', '"pass": %s', '"schema": 1',
)


def report(rep: VerificationReport) -> str:
    """The `verify --json` document.  Divisor rows share the comparison
    objects of their factors, so each distinct one gets one factor record
    per call, kept under its id: the report keeps every one alive."""
    records: dict[int, str] = {}
    rows = []
    for row in rep.forward_results:
        texts = []
        for c in row.factors:
            text = records.get(id(c))
            if text is None:
                text = records[id(c)] = factor_record(c)
            texts.append(text)
        rows.append(forward_row(row, texts))
    converse = "null"
    if rep.converse_results is not None:
        converse = _block(map(converse_row, rep.converse_results), 1)
    return _REPORT % (
        certificate(rep.certificate, 1),
        converse,
        _block(rows, 1),
        "null" if rep.full_product is None else full_product(rep.full_product),
        _flag(rep.passed),
    )


_AUT_COUNTS = _template(
    0, '"aut": %d', '"central": %d', '"complete": %s', '"ia": %d', '"inn": %d', '"out": %d',
    '"regime_guaranteed": %s', '"schema": 1', '"triple": %s',
)


def aut_counts(t: ZmTriple, counts: AutCounts) -> str:
    """The `aut --count-only --json` document."""
    return _AUT_COUNTS % (
        counts.aut,
        counts.central,
        _flag(counts.complete),
        counts.ia,
        counts.inn,
        counts.out,
        _flag(t.regime_guaranteed),
        triple(t),
    )


_AUT_FAMILY = _template(
    0, '"count": %d', '"family": %s', '"schema": 1', '"triple": %s', '"triples": %s'
)
_MEMBER = _template(2, '"x1": %d', '"x2": %d', '"y": %d')


def aut_family(t: ZmTriple, name: str, family: list[AutTriple]) -> str:
    """The `aut --family NAME --json` document.  A member is an (x1, x2, y)
    tuple, so it fills its template as it is."""
    return _AUT_FAMILY % (
        len(family),
        _quote(name),
        triple(t),
        _block((_MEMBER % a for a in family), 1),
    )


_ORACLE_CHECK = _template(
    0, '"agree": %s', '"aut_bruteforce": %s', '"aut_enumerated": %d', '"aut_formula": %d',
    '"aut_sets_match": %s', '"l_bruteforce": %s', '"l_formula": %d', '"l_oracle": %s',
    '"regime_guaranteed": %s', '"schema": 1', '"triple": %s',
)


def oracle_check(
    c: AbsCenterComparison,
    *,
    agree: bool,
    aut_bruteforce: int | None,
    aut_enumerated: int,
    aut_formula: int,
    aut_sets_match: bool | None,
    l_bruteforce: int | None,
) -> str:
    """The `oracle-check --json` document of the comparison `c`; None is a
    brute-force path that did not run."""
    return _ORACLE_CHECK % (
        _flag(agree),
        _int(aut_bruteforce),
        aut_enumerated,
        aut_formula,
        _flag(aut_sets_match),
        _int(l_bruteforce),
        c.formula_order,
        _int(c.oracle_order),
        _flag(c.triple.regime_guaranteed),
        triple(c.triple),
    )
