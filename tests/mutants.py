"""Kept mutants of the cross-checks, and the score the tier-1 suite gets on them.

    python tests/mutants.py

Each entry is one source edit: (name, path, old, new, reason).  The script
copies the checkout to a temporary directory once; for each entry it
replaces the one occurrence of `old` in `path` by `new`, runs the tier-1
command there with `-x -q`, and restores the file.  A mutant is killed
when that run fails or hangs past TIMEOUT_S.  It prints killed or survived per mutant,
then killed/total, and exits 1 if a mutant survives whose reason is
None.  A reason marks a mutant as believed equivalent, no input telling
it from the program, and says why.  An `old` that is not in its file
exactly once is a stale entry and stops the script with exit 2.

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

GENERICGROUP = "src/zmcenter/genericgroup.py"
REALISER = "src/zmcenter/realiser.py"

MUTANTS = [
    (
        "generating-sequence-ties-to-the-largest-index",
        GENERICGROUP,
        "key=lambda i: (-orders[i], i)",
        "key=lambda i: (-orders[i], -i)",
        None,
    ),
    (
        "closure-drops-a-seed",
        GENERICGROUP,
        "for g in set(seed)]",
        "for g in list(set(seed))[1:]]",
        None,
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
        None,
    ),
    (
        "forward-verdict-ignores-the-oracle",
        REALISER,
        "by_beta.append((q_beta, c, ok and c.agree is not False))",
        "by_beta.append((q_beta, c, c.formula_order == q_beta))",
        None,
    ),
    (
        "converse-embeds-a-non-cyclic-l",
        REALISER,
        "embeds=cyclic and target % l_order == 0,",
        "embeds=target % l_order == 0,",
        None,
    ),
    (
        "automorphism-extend-skips-the-old-elements",
        GENERICGROUP,
        "for x in reached:  # old elements: new generator only",
        "for x in ():  # old elements: new generator only",
        "on every subgroup H of nine named groups and each g outside it, the"
        " new elements alone reached all of <H, g> \\ H, which implies the"
        " pairs this loop checks; unproven in general, so the loop stays: it"
        " alone makes `reached` provably a subgroup",
    ),
]


def _copy_checkout(dest: pathlib.Path) -> None:
    shutil.copytree(
        ROOT,
        dest,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
    )


def _run(copy: pathlib.Path) -> tuple[bool, float]:
    """(killed, seconds) for the tier-1 run in the copy."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        code = subprocess.run(
            TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code != 0, time.perf_counter() - start


def main() -> int:
    killed, bad_survivors = 0, []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "checkout"
        _copy_checkout(copy)
        for name, path, old, new, reason in MUTANTS:
            target = copy / path
            source = target.read_text()
            if source.count(old) != 1:
                print(f"stale mutant {name}: {old!r} is not in {path} once", file=sys.stderr)
                return 2
            target.write_text(source.replace(old, new))
            try:
                was_killed, seconds = _run(copy)
            finally:
                target.write_text(source)
            killed += was_killed
            verdict = "killed" if was_killed else "survived"
            note = f"  equivalent: {reason}" if reason and not was_killed else ""
            print(f"{verdict:8}  {name}  ({seconds:.1f} s){note}", flush=True)
            if not was_killed and reason is None:
                bad_survivors.append(name)
    print(f"killed {killed}/{len(MUTANTS)} in {time.perf_counter() - start:.0f} s")
    if bad_survivors:
        print(f"survived and not equivalent: {', '.join(bad_survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
