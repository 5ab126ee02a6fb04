"""Batch command line front end.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or domain error, 3 bound or search budget exceeded.
JSON output (--json) is byte-identical across identical invocations.

`COMMANDS` is the one description of the command line: per subcommand
its handler, help, int positionals and options.  `build_parser` makes the
argparse parser from it, and `main` reads a well-formed argv (an exact
subcommand, exact option strings with separate values, and exactly the
declared positionals, none of them starting with "-") straight off the
same table; every other argv, help and every usage error included, goes
through argparse.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from . import abscenter, aut, genericgroup, realiser, schemas
from .config import Bounds, DEFAULT_BOUNDS, TABLE_BOUND
from .errors import BoundExceededError, SearchBudgetError, ZmcenterError
from .zm import validate_triple

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _emit_json(text: str) -> None:
    sys.stdout.write(text + "\n")


def _bounds_from_args(args: argparse.Namespace) -> Bounds:
    """The one place a subcommand's bound flags become `Bounds`, whose
    every field is a flag.  A bound with no flag on the subcommand keeps
    its default; a negative bound is a usage error."""
    for dest in ("aut_bound", "subgroup_bound", "prime_budget"):
        value = getattr(args, dest, 0)
        if value < 0:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= 0, got {value}")
    return Bounds(
        aut=getattr(args, "aut_bound", DEFAULT_BOUNDS.aut),
        subgroups=getattr(args, "subgroup_bound", DEFAULT_BOUNDS.subgroups),
        prime_budget=getattr(args, "prime_budget", DEFAULT_BOUNDS.prime_budget),
    )


def _yesno(flag: bool | None) -> str:
    if flag is None:
        return "skipped"
    return "yes" if flag else "NO"


def _cmd_abscenter(args) -> int:
    t = validate_triple(args.m, args.n, args.r)
    cmp = abscenter.compare(t)
    if args.json:
        _emit_json(schemas.abscenter(cmp))
        return EXIT_OK
    regime = "guaranteed" if t.regime_guaranteed else "unguaranteed (compare with oracle)"
    _, center_order = t.center()
    print(f"{t}  order {t.order}")
    print(f"d = {t.d}   e = {cmp.e}   regime: {regime}")
    print(f"Z = <b^{t.d}>  order {center_order}")
    print(f"L = <b^{cmp.formula_generator.u}>  order {cmp.formula_order}  (formula)")
    print(f"L equals Z: {_yesno(cmp.formula_order == center_order)}")
    if cmp.oracle_order is None:
        print("oracle: skipped (above bound)")
    else:
        print(f"oracle: order {cmp.oracle_order}, agrees: {_yesno(cmp.agree)}")
    return EXIT_OK


def _cmd_aut(args) -> int:
    t = validate_triple(args.m, args.n, args.r)
    if args.count_only:
        counts = aut.aut_counts(t)
        if args.json:
            _emit_json(schemas.aut_counts(t, counts))
            return EXIT_OK
        regime = "guaranteed" if t.regime_guaranteed else "unguaranteed (compare with oracle)"
        print(f"{t}  order {t.order}   regime: {regime}")
        print(f"|Aut| = {counts.aut}   |Inn| = {counts.inn}   |Out| = {counts.out}")
        print(f"central = {counts.central}   IA = {counts.ia}   complete: {_yesno(counts.complete)}")
        return EXIT_OK
    aut._check_listing_cost(t, args.family)
    family = aut.enumerate_family(t, args.family)
    if args.json:
        _emit_json(schemas.aut_family(t, args.family, family))
        return EXIT_OK
    print(f"{t}  family {args.family}: {len(family)} automorphisms")
    for a in family:
        print(f"({a.x1},{a.x2},{a.y})")
    return EXIT_OK


def _cmd_realise(args) -> int:
    cert = realiser.realise(args.N, prime_budget=_bounds_from_args(args).prime_budget)
    if args.json:
        _emit_json(schemas.certificate(cert))
        return EXIT_OK
    print(f"N = {cert.N}")
    if not cert.factors:
        print("trivial certificate: H is the trivial group")
        return EXIT_OK
    for f, t in zip(cert.factors, cert.triples()):
        print(
            f"q^alpha = {f.q}^{f.alpha}  ->  p = {f.p}, r = {f.r}, "
            f"H_i = {t} of order {t.order}, L(H_i) = C_{f.q_pow}"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    bounds = _bounds_from_args(args)
    cert = realiser.realise(args.N, prime_budget=bounds.prime_budget)
    report = realiser.verify(cert, converse=args.converse, bounds=bounds)
    if args.json:
        _emit_json(schemas.report(report))
    else:
        print(f"N = {cert.N}: forward verification over {len(report.forward_results)} divisors")
        for row in report.forward_results:
            detail = ", ".join(
                f"{fr.triple}: |L| = {fr.formula_order}"
                + ("" if fr.oracle_order is None else f" (oracle {fr.oracle_order})")
                for fr in row.factors
            )
            print(
                f"  divisor {row.divisor}: product {row.formula_product} "
                f"[{_yesno(row.passed)}]" + (f"  {detail}" if detail else "")
            )
        if report.converse_results is not None:
            for row in report.converse_results:
                print(
                    f"  converse factor {row.triple}: {len(row.scans)} subgroups, "
                    f"all L cyclic dividing {row.target}: {_yesno(row.passed)}"
                )
            fp = report.full_product
            if fp.scanned:
                print(
                    f"  full product (order {fp.order}): {len(fp.scans)} subgroups "
                    f"scanned: {_yesno(fp.passed)}"
                )
            else:
                print(f"  full product (order {fp.order}): not scanned ({fp.reason})")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_oracle_check(args) -> int:
    t = validate_triple(args.m, args.n, args.r)
    bounds = _bounds_from_args(args)
    cmp = abscenter.compare(t)
    # refuse before enumerating a family that no comparison would use
    if cmp.oracle_order is None:
        raise BoundExceededError(f"{t} has order {t.order} > oracle bound {abscenter.ORACLE_BOUND}")
    enumerated = aut.family_size(t)
    formula_aut = aut.aut_counts(t).aut
    brute_aut: int | None = None
    aut_tables_agree: bool | None = None
    l_brute: int | None = None
    if t.order <= min(bounds.aut, TABLE_BOUND):
        group = t.cayley()
        perms = genericgroup.automorphisms_bruteforce(group)
        brute_aut = len(perms)
        family = aut.enumerate_family(t, "all")
        aut_tables_agree = set(perms) == {aut.to_permutation(t, a) for a in family}
        l_brute = genericgroup.fixed_subgroup(group, perms).order
    aut_agree = formula_aut == enumerated and (brute_aut is None or brute_aut == enumerated)
    l_agree = cmp.agree is True and (l_brute is None or l_brute == cmp.oracle_order)
    verdict = aut_agree and l_agree and aut_tables_agree is not False
    if args.json:
        _emit_json(
            schemas.oracle_check(
                cmp,
                agree=verdict,
                aut_bruteforce=brute_aut,
                aut_enumerated=enumerated,
                aut_formula=formula_aut,
                aut_sets_match=aut_tables_agree,
                l_bruteforce=l_brute,
            )
        )
    else:
        regime = "guaranteed" if t.regime_guaranteed else "unguaranteed"
        print(f"{t}  order {t.order}   regime: {regime}")
        print(
            f"|Aut|: formula {formula_aut}, enumerated {enumerated}, "
            f"brute force {brute_aut}, sets match: {_yesno(aut_tables_agree)}"
        )
        print(
            f"|L|: formula {cmp.formula_order}, oracle {cmp.oracle_order}, "
            f"brute force {l_brute}"
        )
        print(f"verdict: {'AGREE' if verdict else 'DISAGREE'}")
    return EXIT_OK if verdict else EXIT_VERIFY_FAIL


class Option(NamedTuple):
    type: Callable[[str], object] | None  # None: a store_true flag
    default: object = False
    choices: tuple | None = None


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    positionals: tuple[str, ...]  # each read with int
    options: dict[str, Option]  # in help order


FLAG = Option(None)
POSITIONAL = Option(int)  # how the direct parse reads each positional
TRIPLE = ("m", "n", "r")
COMMANDS = {
    "abscenter": Command(
        _cmd_abscenter, "absolute center of ZM(m,n,r), both paths", TRIPLE, {"--json": FLAG}
    ),
    "aut": Command(
        _cmd_aut, "automorphism family or counts of ZM(m,n,r)", TRIPLE,
        {"--family": Option(str, "all", aut.FAMILIES), "--count-only": FLAG, "--json": FLAG},
    ),
    "realise": Command(
        _cmd_realise, "certificate realizing C_N as an absolute center", ("N",),
        {"--prime-budget": Option(int, DEFAULT_BOUNDS.prime_budget), "--json": FLAG},
    ),
    "verify": Command(
        _cmd_verify, "realise N and machine-check the construction", ("N",),
        {
            "--converse": FLAG,
            "--json": FLAG,
            "--aut-bound": Option(int, DEFAULT_BOUNDS.aut),
            "--subgroup-bound": Option(int, DEFAULT_BOUNDS.subgroups),
            "--prime-budget": Option(int, DEFAULT_BOUNDS.prime_budget),
        },
    ),
    "oracle-check": Command(
        _cmd_oracle_check, "formula paths vs brute force, exit 1 on disagreement", TRIPLE,
        {"--json": FLAG, "--aut-bound": Option(int, DEFAULT_BOUNDS.aut)},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`.  It alone parses help, abbreviations,
    `--opt=value`, `--`, "-" tokens in place of values, and usage errors."""
    parser = argparse.ArgumentParser(
        prog="zmcenter",
        description="Absolute centers of ZM-groups: formulas, oracles, and "
        "cyclic realisation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.positionals:
            p.add_argument(dest, type=int)
        for flag, option in command.options.items():
            if option.type is None:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=option.type, default=option.default, choices=option.choices)
        p.set_defaults(func=command.handler)
    return parser


def _parse_direct(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, for an argv
    made only of an exact subcommand name, exact option strings of its
    options (one with a type takes the next token as its value) and
    exactly its positionals, each value converted and checked as argparse
    does; None for any other argv."""
    command = COMMANDS.get(argv[0]) if argv and type(argv[0]) is str else None
    if command is None:
        return None
    values = {"command": argv[0], "func": command.handler}
    unread = iter(command.positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        option = command.options.get(token) if type(token) is str else None
        if option is None:
            dest, option = next(unread, None), POSITIONAL
            if dest is None:
                return None
        else:
            dest = token[2:].replace("-", "_")
            if option.type is None:
                values[dest] = True
                continue
            token = next(tokens, None)
        # argparse reads a token starting with "-" as an option, or fails
        if type(token) is not str or token.startswith("-"):
            return None
        try:
            value = option.type(token)
        except (TypeError, ValueError):
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[dest] = value
    if next(unread, None) is not None:
        return None
    for flag, option in command.options.items():
        values.setdefault(flag[2:].replace("-", "_"), option.default)
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_direct(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BoundExceededError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ZmcenterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
