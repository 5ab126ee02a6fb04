"""Kept mutants of the cross-checks, and the score the tier-1 suite gets on them.

    python tests/mutants.py           # run every mutant
    python tests/mutants.py --check   # only check that every entry applies

Each entry is one source edit: (name, path, old, new), where path
is `src/zmcenter/<stem>.py` and `tests/test_<stem>.py` is its own test
file.  Before it runs any mutant, the script checks every entry: an `old`
that is not in its file exactly once, or a missing own test file, is a
stale entry and stops the script with exit 2.  It then copies the checkout
to a temporary directory once; for each entry it replaces the one
occurrence of `old` in `path` by `new`, runs the tier-1 command there with
`-x -q` on the own test file and then, if that passes, on the whole suite,
and restores the file.  A mutant is killed when either run fails or hangs
past TIMEOUT_S; a run of a subset of tier-1 that fails means that tier-1
fails too, so the verdicts are those of the whole suite alone.  It prints
killed or survived per mutant, with the run that decided it, then
killed/total, and exits 1 if any mutant survives.  With --check it stops
after the entry check, with exit 0 when every entry applies.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors"]
TIMEOUT_S = 900  # a run this long counts as killed: the mutant hangs

ABSCENTER = "src/zmcenter/abscenter.py"
CLI = "src/zmcenter/cli.py"
GENERICGROUP = "src/zmcenter/genericgroup.py"
NUMTHEORY = "src/zmcenter/numtheory.py"
REALISER = "src/zmcenter/realiser.py"

MUTANTS = [
    (
        "generating-sequence-ties-to-the-largest-index",
        GENERICGROUP,
        "key=lambda i: (-orders[i], i)",
        "key=lambda i: (-orders[i], -i)",
    ),
    (
        "closure-drops-a-seed",
        GENERICGROUP,
        "for g in set(seed)]",
        "for g in list(set(seed))[1:]]",
    ),
    # Light's verdict cannot tell this one from the program: on a group
    # both closures are the generated subgroup, and the elements that pass
    # the test are closed under products in either order.  What kills it
    # is the generating sequence on tables that are not groups.
    (
        "closure-multiplies-on-the-left",
        GENERICGROUP,
        "lambda x, g=g: table[x][g]",
        "lambda x, g=g: table[g][x]",
    ),
    (
        "forward-verdict-ignores-the-oracle",
        REALISER,
        "by_beta.append((q_beta, c, ok and c.agree is not False))",
        "by_beta.append((q_beta, c, c.formula_order == q_beta))",
    ),
    (
        "converse-embeds-a-non-cyclic-l",
        REALISER,
        "embeds=cyclic and target % l_order == 0,",
        "embeds=target % l_order == 0,",
    ),
    # each check of the automorphism search's walk, weakened in turn
    (
        "automorphism-walk-ignores-a-clash",
        GENERICGROUP,
        "elif phi[z] != w:",
        "elif False:",
    ),
    (
        "automorphism-walk-uses-the-newest-generator-only",
        GENERICGROUP,
        "for h in assigned:",
        "for h in assigned[-1:]:",
    ),
    (
        "automorphism-walk-admits-two-preimages",
        GENERICGROUP,
        "if used[w]:\n                        return False  # two preimages; not injective\n",
        "",
    ),
    # each clause of oracle-check's verdict, dropped in turn
    (
        "oracle-check-ignores-the-count-formula",
        CLI,
        "aut_agree = formula_aut == enumerated and (",
        "aut_agree = (",
    ),
    (
        "oracle-check-ignores-the-bruteforce-count",
        CLI,
        "(brute_aut is None or brute_aut == enumerated)",
        "True",
    ),
    (
        "oracle-check-ignores-the-bruteforce-l",
        CLI,
        "(l_brute is None or l_brute == cmp.oracle_order)",
        "True",
    ),
    (
        "oracle-check-ignores-the-oracle-verdict",
        CLI,
        "l_agree = cmp.agree is True and (",
        "l_agree = (",
    ),
    (
        "oracle-check-ignores-the-permutation-sets",
        CLI,
        "verdict = aut_agree and l_agree and aut_tables_agree is not False",
        "verdict = aut_agree and l_agree",
    ),
    (
        "pocklington-admits-the-square-bound",
        NUMTHEORY,
        "return p < (q_pow + 1) ** 2 and",
        "return p <= (q_pow + 1) ** 2 and",
    ),
    (
        "pocklington-ignores-the-top-power",
        NUMTHEORY,
        "(q_pow + 1) ** 2 and top == 1 and math.gcd",
        "(q_pow + 1) ** 2 and math.gcd",
    ),
    (
        "certificate-ignores-the-lower-power",
        REALISER,
        "if top != 1 or below == 1:",
        "if top != 1:",
    ),
    (
        "certificate-ignores-p-mod-q-power",
        REALISER,
        "if (f.p - 1) % f.q_pow != 0:",
        "if False:",
    ),
    # a certificate built from its fields alone is checked from scratch
    (
        "certificate-trusts-its-own-factors",
        REALISER,
        "decomposition = factorize(cert.N)",
        "decomposition = tuple((f.q, f.alpha) for f in cert.factors)",
    ),
    (
        "certificate-admits-a-repeated-auxiliary-prime",
        REALISER,
        "if len(set(ps)) != len(ps):",
        "if False:",
    ),
    (
        "certificate-admits-a-colliding-auxiliary-prime",
        REALISER,
        "if qs & set(ps):",
        "if False:",
    ),
    (
        "compare-ignores-the-oracle-size",
        ABSCENTER,
        "agree = len(oracle) == len(span) and all(",
        "agree = all(",
    ),
]


def _copy_checkout(dest: pathlib.Path) -> None:
    shutil.copytree(
        ROOT,
        dest,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"
        ),
    )


def _own_tests(path: str) -> str:
    """tests/test_<stem>.py for src/zmcenter/<stem>.py."""
    return f"tests/test_{pathlib.PurePath(path).stem}.py"


def _fails(copy: pathlib.Path, argv: list[str]) -> bool:
    """Whether the run of argv in the copy fails or hangs past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode != 0
    except subprocess.TimeoutExpired:
        return True


def _run(copy: pathlib.Path, path: str) -> tuple[bool, str, float]:
    """(killed, the run that decided it, seconds): the tier-1 command on
    the mutated module's own test file, then on the whole suite only if
    that file passes."""
    start = time.perf_counter()
    own = _own_tests(path)
    if _fails(copy, TIER1 + [own]):
        return True, own, time.perf_counter() - start
    return _fails(copy, TIER1), "tier-1", time.perf_counter() - start


def _stale_entries() -> list[str]:
    """A message for each entry whose `old` is not in its file exactly once
    or whose own test file is missing."""
    return [
        f"stale mutant {name}: {old!r} is not in {path} once"
        for name, path, old, _ in MUTANTS
        if (ROOT / path).read_text().count(old) != 1
    ] + [
        f"stale mutant {name}: {_own_tests(path)} is missing"
        for name, path, _, _ in MUTANTS
        if not (ROOT / _own_tests(path)).is_file()
    ]


def main(argv: list[str]) -> int:
    stale = _stale_entries()
    for message in stale:
        print(message, file=sys.stderr)
    if stale:
        return 2
    if argv == ["--check"]:
        print(f"{len(MUTANTS)} mutants apply")
        return 0
    if argv:
        print("usage: python tests/mutants.py [--check]", file=sys.stderr)
        return 2
    survivors = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "checkout"
        _copy_checkout(copy)
        for name, path, old, new in MUTANTS:
            target = copy / path
            source = target.read_text()
            target.write_text(source.replace(old, new))
            try:
                was_killed, by, seconds = _run(copy, path)
            finally:
                target.write_text(source)
            verdict = "killed" if was_killed else "survived"
            print(f"{verdict:8}  {name}  ({by}, {seconds:.1f} s)", flush=True)
            if not was_killed:
                survivors.append(name)
    killed = len(MUTANTS) - len(survivors)
    print(f"killed {killed}/{len(MUTANTS)} in {time.perf_counter() - start:.0f} s")
    if survivors:
        print(f"survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
