"""Replay of recorded CLI invocations against golden files: exit code,
SHA-256 of stdout and the stderr text must match byte for byte.

* `converse_golden.json` pins `verify N --converse [--json]` for N = 1..30,
  for N = 5 and 10 with raised aut and subgroup bounds, and
  `verify 6 --converse --json` with raised bounds, which scans a
  two-factor product table.
* `cli_golden.json` pins every other subcommand: `abscenter`, `aut`,
  `realise N` and forward `verify N` for N = 1..30, `oracle-check` on
  triples within the oracle bound, `realise N --json` on 40 seeded
  larger N: semiprimes, prime squares, smooth N and primes in
  10^12..10^15, `verify N --json` for N = 720, 840, 900, 960, 1000,
  5040 and 720720 (and `verify 720720` as text), whose reports repeat
  factor rows across many divisors, and
  `abscenter --json` on twelve more triples that disagree, sit outside
  the guaranteed regime, or are above the oracle bound.

Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_converse_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import random

from zmcenter import aut, cli
from zmcenter.numtheory import is_prime

DATA = pathlib.Path(__file__).parent / "data"
N_MAX = 30
TEXT_AND_JSON = ([], ["--json"])


def _converse_argvs() -> list[list[str]]:
    argvs = [
        ["verify", str(n), "--converse", *flag]
        for n in range(1, N_MAX + 1)
        for flag in (["--json"], [])
    ]
    # raised scan bounds admit the factor ZM(11,25,.) of order 275, a
    # table above the default bounds
    raised = ["--aut-bound", "2000", "--subgroup-bound", "2000"]
    argvs += [
        ["verify", n, "--converse", *flag, *raised]
        for n in ("5", "10")
        for flag in (["--json"], [])
    ]
    # ZM(5,4,4) x ZM(7,9,4) of order 1260: the one multi-factor product
    # table within the raised bounds, so its subgroups are scanned directly
    argvs.append(["verify", "6", "--converse", "--json", *raised])
    return argvs


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def _realise_inputs() -> list[int]:
    """Ten seeded N from each of four classes, all below 2^64."""
    rng = random.Random("realise-golden")
    ns = []
    for _ in range(10):
        ns.append(_prime_between(rng, 35_000, 40_000) * _prime_between(rng, 10**5, 10**6))
        ns.append(_prime_between(rng, 20_000, 25_000) ** 2)
        qs = rng.sample((2, 3, 5, 7, 11, 13, 17, 19), 4)
        ns.append(math.prod(q ** rng.randint(1, 3) for q in qs))
        ns.append(_prime_between(rng, 10**12, 10**15))
    return ns


def _cli_argvs() -> list[list[str]]:
    # 101 625 16 is above the oracle bound; 1 5 1 is the degenerate m = 1
    # case, a usage error for the closed forms; 3 6 2 is no presentation.
    abscenter_triples = [
        "5 16 2", "5 48 2", "7 6 2", "5 4 2", "7 9 2", "101 625 16", "1 5 1", "3 6 2",
    ]
    aut_triples = ["5 16 2", "7 6 2", "5 4 2", "1 5 1"]
    # 11 25 4 is above the aut bound (brute force skipped); 7 6 2 disagrees
    # on |Aut| and on L, 7 15 2 on the |Aut| formula alone.
    oracle_triples = ["5 16 2", "7 6 2", "5 4 2", "7 9 2", "11 25 4", "7 15 2"]
    argvs = [["abscenter", *t.split(), *f] for t in abscenter_triples for f in TEXT_AND_JSON]
    argvs += [["aut", *t.split(), "--count-only", *f] for t in aut_triples for f in TEXT_AND_JSON]
    argvs += [
        ["aut", *t.split(), "--family", family, *f]
        for t in aut_triples
        for family in aut.FAMILIES
        for f in TEXT_AND_JSON
    ]
    argvs += [
        [cmd, str(n), *f]
        for cmd in ("realise", "verify")
        for n in range(1, N_MAX + 1)
        for f in TEXT_AND_JSON
    ]
    argvs += [["oracle-check", *t.split(), *f] for t in oracle_triples for f in TEXT_AND_JSON]
    argvs += [["oracle-check", "5", "16", "2", "--aut-bound", "10", *f] for f in TEXT_AND_JSON]
    # order 1994 is above the aut bound; the family has 993,012 members
    argvs += [["oracle-check", "997", "2", "996", *f] for f in TEXT_AND_JSON]
    argvs += [["realise", str(n), "--json"] for n in _realise_inputs()]
    # many divisors and many repeated factor rows: four factors and 32
    # divisors, one factor and 16 divisors
    argvs += [["verify", n, "--json"] for n in ("840", "1000")]
    # abscenter documents in each case a field can take: agree false,
    # unguaranteed but agreeing, and the oracle skipped above its bound
    argvs += [
        ["abscenter", *t.split(), "--json"]
        for t in (
            "113 14 28", "19 90 17", "217 6 67", "67 22 62",
            "3 380 2", "37 52 31", "13 138 4", "7 22 6",
            "131 26 113", "245 24 97", "17 168 2", "455 12 439",
        )
    ]
    # forward reports of the benchmark's pool: 30, 27 and 28 divisors
    argvs += [["verify", n, "--json"] for n in ("720", "900", "960")]
    # wide rows: 720720 has six factors, 240 divisors and factors above
    # the oracle bound, so its rows carry a null oracle product; 5040 has
    # four factors and 60 divisors
    argvs += [["verify", "720720", "--json"], ["verify", "720720"], ["verify", "5040", "--json"]]
    return argvs


GOLDENS = {
    "converse_golden.json": _converse_argvs,
    "cli_golden.json": _cli_argvs,
}


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def _check(name: str) -> None:
    golden = json.loads((DATA / name).read_text())
    assert [g["argv"] for g in golden] == GOLDENS[name]()
    mismatches = [g["argv"] for g in golden if _run(g["argv"]) != g]
    assert mismatches == []


def test_converse_output_matches_golden():
    _check("converse_golden.json")


def test_cli_output_matches_golden():
    _check("cli_golden.json")


if __name__ == "__main__":
    for name, argvs in GOLDENS.items():
        (DATA / name).write_text(json.dumps([_run(a) for a in argvs()], indent=1) + "\n")
