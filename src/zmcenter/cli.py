"""Batch command line front end.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or domain error, 3 bound or search budget exceeded.
JSON output (--json) is byte-identical across identical invocations.

The argparse parser of `build_parser` is the one description of the
command line.  `main` reads a well-formed argv (an exact subcommand, exact
option strings with separate values, and the declared number of
positionals, none of them starting with "-") straight off that parser's
actions; every other argv, help and every usage error included, goes
through `parse_args`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import abscenter, aut, genericgroup, realiser
from .config import Bounds, DEFAULT_BOUNDS
from .errors import BoundExceededError, SearchBudgetError, TripleError, ZmcenterError
from .schemas import to_json
from .zm import validate_triple

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _emit_json(doc: dict) -> None:
    sys.stdout.write(to_json(doc))


def _bounds_from_args(args: argparse.Namespace) -> Bounds:
    """The one place a subcommand's bound flags become `Bounds`.  A bound
    with no flag on the subcommand, and the table and oracle bounds, which
    have no flag at all, keep their defaults."""
    return Bounds(
        aut=getattr(args, "aut_bound", DEFAULT_BOUNDS.aut),
        subgroups=getattr(args, "subgroup_bound", DEFAULT_BOUNDS.subgroups),
        prime_budget=getattr(args, "prime_budget", DEFAULT_BOUNDS.prime_budget),
    )


def _refuse_above_oracle_bound(t, bounds: Bounds) -> None:
    if t.order > bounds.oracle:
        raise BoundExceededError(f"{t} has order {t.order} > oracle bound {bounds.oracle}")


def _yesno(flag: bool | None) -> str:
    if flag is None:
        return "skipped"
    return "yes" if flag else "NO"


def _cmd_abscenter(args) -> int:
    t = validate_triple(args.m, args.n, args.r)
    cmp = abscenter.compare(t, _bounds_from_args(args).oracle)
    if args.json:
        _emit_json(cmp.as_json_dict())
        return EXIT_OK
    regime = "guaranteed" if cmp.regime_guaranteed else "unguaranteed (compare with oracle)"
    print(f"{t}  order {t.order}")
    print(f"d = {cmp.d}   e = {cmp.e}   regime: {regime}")
    print(f"Z = <b^{t.d}>  order {cmp.center_order}")
    print(f"L = <b^{cmp.formula_generator.u}>  order {cmp.formula_order}  (formula)")
    print(f"L equals Z: {_yesno(cmp.formula_order == cmp.center_order)}")
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
            _emit_json(
                {
                    "schema": 1,
                    "triple": t.as_json_dict(),
                    "aut": counts.aut,
                    "inn": counts.inn,
                    "out": counts.out,
                    "central": counts.central,
                    "ia": counts.ia,
                    "complete": counts.complete,
                    "regime_guaranteed": counts.regime_guaranteed,
                }
            )
            return EXIT_OK
        regime = "guaranteed" if counts.regime_guaranteed else "unguaranteed (compare with oracle)"
        print(f"{t}  order {t.order}   regime: {regime}")
        print(f"|Aut| = {counts.aut}   |Inn| = {counts.inn}   |Out| = {counts.out}")
        print(f"central = {counts.central}   IA = {counts.ia}   complete: {_yesno(counts.complete)}")
        return EXIT_OK
    # a listing has m * phi(m) * |Y| lines: refuse it before building it
    _refuse_above_oracle_bound(t, _bounds_from_args(args))
    family = aut.enumerate_family(t, args.family)
    if args.json:
        _emit_json(
            {
                "schema": 1,
                "triple": t.as_json_dict(),
                "family": args.family,
                "count": len(family),
                "triples": [{"x1": a.x1, "x2": a.x2, "y": a.y} for a in family],
            }
        )
        return EXIT_OK
    print(f"{t}  family {args.family}: {len(family)} automorphisms")
    for a in family:
        print(f"({a.x1},{a.x2},{a.y})")
    return EXIT_OK


def _cmd_realise(args) -> int:
    cert = realiser.realise(args.N, prime_budget=_bounds_from_args(args).prime_budget)
    if args.json:
        _emit_json(cert.as_json_dict())
        return EXIT_OK
    print(f"N = {cert.N}")
    if not cert.factors:
        print("trivial certificate: H is the trivial group")
        return EXIT_OK
    for f in cert.factors:
        t = f.triple()
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
        _emit_json(report.as_json_dict())
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
    cmp = abscenter.compare(t, bounds.oracle)
    # refuse before enumerating a family that no comparison would use
    _refuse_above_oracle_bound(t, bounds)
    # the size of enumerate_family(t, "all"), the product of the lists it multiplies
    enumerated = t.phi_m * t.m * sum(1 for _ in aut.valid_ys(t))
    formula_aut = aut.aut_counts(t).aut
    brute_aut: int | None = None
    aut_tables_agree: bool | None = None
    l_brute: int | None = None
    if t.order <= min(bounds.aut, bounds.table):
        group = t.cayley(bounds.table)
        perms = genericgroup.automorphisms_bruteforce(group, bounds.aut)
        brute_aut = len(perms)
        family = aut.enumerate_family(t, "all")
        aut_tables_agree = set(perms) == {aut.to_permutation(t, a) for a in family}
        l_brute = genericgroup.fixed_subgroup(group, perms).order
    aut_agree = formula_aut == enumerated and (brute_aut is None or brute_aut == enumerated)
    l_agree = cmp.agree is True and (l_brute is None or l_brute == cmp.oracle_order)
    verdict = aut_agree and l_agree and aut_tables_agree is not False
    doc = {
        "schema": 1,
        "triple": t.as_json_dict(),
        "regime_guaranteed": t.regime_guaranteed,
        "aut_formula": formula_aut,
        "aut_enumerated": enumerated,
        "aut_bruteforce": brute_aut,
        "aut_sets_match": aut_tables_agree,
        "l_formula": cmp.formula_order,
        "l_oracle": cmp.oracle_order,
        "l_bruteforce": l_brute,
        "agree": verdict,
    }
    if args.json:
        _emit_json(doc)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmcenter",
        description="Absolute centers of ZM-groups: formulas, oracles, and "
        "cyclic realisation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_triple_args(p):
        p.add_argument("m", type=int)
        p.add_argument("n", type=int)
        p.add_argument("r", type=int)

    p = sub.add_parser("abscenter", help="absolute center of ZM(m,n,r), both paths")
    add_triple_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_abscenter)

    p = sub.add_parser("aut", help="automorphism family or counts of ZM(m,n,r)")
    add_triple_args(p)
    p.add_argument("--family", choices=aut.FAMILIES, default="all")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("realise", help="certificate realizing C_N as an absolute center")
    p.add_argument("N", type=int)
    p.add_argument("--prime-budget", type=int, default=DEFAULT_BOUNDS.prime_budget)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realise)

    p = sub.add_parser("verify", help="realise N and machine-check the construction")
    p.add_argument("N", type=int)
    p.add_argument("--converse", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--aut-bound", type=int, default=DEFAULT_BOUNDS.aut)
    p.add_argument("--subgroup-bound", type=int, default=DEFAULT_BOUNDS.subgroups)
    p.add_argument("--prime-budget", type=int, default=DEFAULT_BOUNDS.prime_budget)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle-check", help="formula paths vs brute force, exit 1 on disagreement")
    add_triple_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--aut-bound", type=int, default=DEFAULT_BOUNDS.aut)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on the first call rather than at
    import.  Reuse is safe: every parse starts a fresh Namespace from the
    action defaults.  `main` parses a well-formed argv directly from its
    actions (`_parse_direct`); argparse stays the spec, and it alone
    parses help requests, abbreviations, `--opt=value`, `--`, tokens
    starting with "-" in place of a value or positional, and every argv
    that is a usage error."""
    return build_parser()


@functools.lru_cache(maxsize=1)
def _direct_forms(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """Per subcommand name: its option strings and its positionals, each
    paired with its action and its type converter (None for a flag), and
    the Namespace contents of a parse with no options, read off `parser`.
    A subcommand with an action other than help, store_true and one-value
    store, a required option, a mutually exclusive group or a typed str
    default has no form, and neither has any subcommand of a parser with
    options or defaults of its own: argparse parses those."""
    commands, *others = [a for a in parser._actions if type(a) is not argparse._HelpAction]
    if others or type(commands) is not argparse._SubParsersAction or parser._defaults:
        return {}
    forms = {}
    for name, sub in commands.choices.items():
        options, positionals, values = {}, [], {commands.dest: name}
        for action in sub._actions:
            kind = type(action)
            if kind is argparse._HelpAction:
                continue
            if kind is argparse._StoreTrueAction:
                convert = None
            elif kind is argparse._StoreAction and action.nargs is None:
                convert = sub._registry_get("type", action.type, action.type)
            else:
                break
            if (action.required and action.option_strings
                    or isinstance(action.default, str) and action.type is not None):
                break
            if action.default is not argparse.SUPPRESS:
                values.setdefault(action.dest, action.default)
            if action.option_strings:
                options.update(dict.fromkeys(action.option_strings, (action, convert)))
            else:
                positionals.append((action, convert))
        else:
            if not sub._mutually_exclusive_groups:
                for key, value in sub._defaults.items():
                    values.setdefault(key, value)
                forms[name] = (options, positionals, values)
    return forms


_DECLINED = object()


def _value(action, convert, token):
    """`token` converted and checked as argparse does, or _DECLINED where
    argparse would report an error or read the token otherwise."""
    if type(token) is not str or token.startswith("-"):
        return _DECLINED
    try:
        value = convert(token)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return _DECLINED
    if action.choices is not None and value not in action.choices:
        return _DECLINED
    return value


def _parse_direct(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace `parser.parse_args(argv)` returns, for an argv made
    only of an exact subcommand name, exact option strings of its
    store_true and store actions (a store option takes the next token as
    its value) and exactly its positionals; None for any other argv."""
    form = _direct_forms(parser).get(argv[0]) if argv and type(argv[0]) is str else None
    if form is None:
        return None
    options, positionals, defaults = form
    values = dict(defaults)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        entry = options.get(token) if type(token) is str else None
        if entry is None:
            given.append(token)
            continue
        action, convert = entry
        value = action.const if convert is None else _value(action, convert, next(tokens, None))
        if value is _DECLINED:
            return None
        values[action.dest] = value
    if len(given) != len(positionals):
        return None
    for (action, convert), token in zip(positionals, given):
        value = _value(action, convert, token)
        if value is _DECLINED:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_direct(parser, argv)
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TripleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BoundExceededError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ZmcenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
