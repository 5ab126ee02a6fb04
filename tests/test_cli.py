import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from group_helpers import certificate_from_document
from zmcenter import abscenter, aut, cli, genericgroup, numtheory, realiser, zm
from zmcenter.zm import ZmTriple

try:  # a test-only dependency, for an independent primality check
    import sympy
except ImportError:
    sympy = None


SCAN_REFUSAL_63 = "error: factor ZM(7,9,4) of order 63 exceeds the scan bounds"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAbscenter:
    def test_classic_fixture_text(self, capsys):
        code, out, _ = run(capsys, "abscenter", "5", "16", "2")
        assert code == 0
        assert "d = 4" in out and "e = 1" in out
        assert "L = <b^4>  order 4" in out
        assert "agrees: yes" in out

    def test_classic_fixture_json(self, capsys):
        code, out, _ = run(capsys, "abscenter", "5", "48", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 4 and doc["e"] == 3
        assert doc["formula_order"] == 4 and doc["center_order"] == 12
        assert doc["equals_center"] is False
        assert doc["oracle_order"] == 4 and doc["agree"] is True

    def test_invalid_triple_is_usage_error(self, capsys):
        code, _, err = run(capsys, "abscenter", "3", "6", "2")
        assert code == 2
        assert "gcd" in err


class TestAut:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "aut", "5", "16", "2", "--count-only")
        assert code == 0
        assert "|Aut| = 80" in out and "|Inn| = 20" in out and "|Out| = 4" in out

    def test_family_listing(self, capsys):
        code, out, _ = run(capsys, "aut", "5", "4", "2", "--family", "central")
        assert code == 0
        assert "1 automorphisms" in out

    def test_family_json(self, capsys):
        code, out, _ = run(capsys, "aut", "5", "16", "2", "--family", "inner", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 20
        assert len(doc["triples"]) == 20

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            # the family of ZM(1000003,2,1000002) has about 10^12 members
            ("1000003 2 1000002", "all family of ZM(1000003,2,1000002) costs 1000005000006"),
            ("1000003 2 1000002 --json", "all family of ZM(1000003,2,1000002) costs 1000005000006"),
            ("1000003 2 1000002 --family inner", "inner family of ZM(1000003,2,1000002) costs 2000006"),
            # order 1994 is within the oracle bound, but the listing has 993012 lines
            ("997 2 996", "all family of ZM(997,2,996) costs 993012"),
            ("997 2 996 --json", "all family of ZM(997,2,996) costs 993012"),
        ],
    )
    def test_listing_above_listing_bound_refused_before_enumeration(
        self, capsys, monkeypatch, argv, refusal
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the family was built")

        for name in ("enumerate_family", "units", "valid_ys"):
            monkeypatch.setattr(aut, name, refuse)
        code, out, err = run(capsys, "aut", *argv.split())
        assert (code, out) == (3, "")
        assert err == f"error: listing the {refusal} > listing bound 100000\n"

    def test_central_listing_of_a_large_group_answers(self, capsys, monkeypatch):
        # n / d = 1: one central automorphism, and the phi(m) = 10^6 units
        # are never built
        def refuse(*args, **kwargs):
            raise AssertionError("the units were built")

        monkeypatch.setattr(aut, "units", refuse)
        code, out, err = run(capsys, "aut", "1000003", "2", "1000002", "--family", "central")
        assert (code, err) == (0, "")
        assert out == "ZM(1000003,2,1000002)  family central: 1 automorphisms\n(1,0,1)\n"

    def test_listing_bound_admits_a_family_of_exactly_its_cost(self, capsys, monkeypatch):
        # ZM(5,16,2) is in the guaranteed regime: |Y| = n / d, so its
        # family costs exactly its 80 members
        monkeypatch.setattr(aut, "_LISTING_BOUND", 80)
        code, out, _ = run(capsys, "aut", "5", "16", "2")
        assert code == 0 and out.startswith("ZM(5,16,2)  family all: 80 automorphisms\n")
        monkeypatch.setattr(aut, "_LISTING_BOUND", 79)
        code, out, err = run(capsys, "aut", "5", "16", "2")
        assert (code, out) == (3, "")
        assert err == "error: listing the all family of ZM(5,16,2) costs 80 > listing bound 79\n"

    def test_count_above_oracle_bound_still_answers(self, capsys):
        code, out, _ = run(capsys, "aut", "1000003", "2", "1000002", "--count-only")
        assert code == 0
        assert "|Aut| = 1000005000006" in out


class TestRealise:
    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "realise", "1")
        assert code == 0
        assert "trivial" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "realise", "12", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 12

    def test_byte_identical_json(self, capsys):
        _, out1, _ = run(capsys, "realise", "30", "--json")
        _, out2, _ = run(capsys, "realise", "30", "--json")
        assert out1 == out2

    def test_certificate_check_does_not_factor_again(self, capsys, monkeypatch):
        calls = []
        orders = []
        real_factorize = numtheory.factorize
        real_order = numtheory.multiplicative_order

        def factorize(n, *args, **kwargs):
            calls.append(n)
            return real_factorize(n, *args, **kwargs)

        def multiplicative_order(*args, **kwargs):
            orders.append(args)
            return real_order(*args, **kwargs)

        for module in (numtheory, realiser, zm):
            monkeypatch.setattr(module, "factorize", factorize)
            monkeypatch.setattr(module, "multiplicative_order", multiplicative_order)
        code, out, _ = run(capsys, "realise", "18809838571", "--json")
        assert code == 0
        assert json.loads(out)["N"] == 18809838571
        # N = 37619 * 500009 is factored once, and the certificate check
        # reuses that decomposition.  The searches take each q from it and
        # factor no q^alpha again.  The check of ord_p(r) = q^alpha and of
        # the factor presentations computes no order, so it factors
        # neither p nor p - 1
        assert calls == [18809838571]
        assert orders == []

    @staticmethod
    def _is_prime_calls(monkeypatch) -> list[int]:
        calls = []
        real_is_prime = numtheory.is_prime

        def is_prime(m):
            calls.append(m)
            return real_is_prime(m)

        for module in (numtheory, realiser):
            monkeypatch.setattr(module, "is_prime", is_prime)
        return calls

    def test_prime_n_is_certified_once(self, capsys, monkeypatch):
        n = 10**12 + 39  # a 13-digit prime
        calls = self._is_prime_calls(monkeypatch)
        code, out, _ = run(capsys, "realise", str(n), "--json")
        assert code == 0
        assert json.loads(out)["N"] == n
        # factorize(N) certifies N; the hunt and the certificate check test
        # only candidates 1 + t*N.  The auxiliary p = 1 + t*N has t <= N + 1,
        # so Pocklington's lemma proves it, in the hunt with a base g and in
        # the check with r, and is_prime never sees it
        assert calls.count(n) == 1
        (factor,) = json.loads(out)["factors"]
        assert (factor["p"] - 1) // n <= n + 1
        assert calls.count(factor["p"]) == 0

    def test_auxiliary_prime_beyond_the_lemma_is_certified_by_is_prime(
        self, capsys, monkeypatch
    ):
        # N = 210 excludes 3, 5 and 7, so the q = 2 factor takes p = 11 =
        # 1 + 5*2: t = 5 > q^alpha + 1 = 3 puts it outside the lemma, and
        # the certificate check hands it to is_prime.  The sieve decides
        # it in the hunt.  The q = 3 factor takes p = 13 = 1 + 4*3, which
        # the lemma proves with r
        calls = self._is_prime_calls(monkeypatch)
        code, out, _ = run(capsys, "realise", "210", "--json")
        assert code == 0
        ps = {f["q"]: f["p"] for f in json.loads(out)["factors"]}
        assert (ps[2], ps[3]) == (11, 13)
        assert calls.count(11) == 1
        assert calls.count(13) == 0

    def test_certificate_is_checked_once(self, capsys, monkeypatch):
        calls = []
        real = realiser.validate_certificate

        def validate_certificate(*args, **kwargs):
            calls.append(args[0].N)
            return real(*args, **kwargs)

        monkeypatch.setattr(realiser, "validate_certificate", validate_certificate)
        code, _, _ = run(capsys, "realise", "720720", "--json")
        assert code == 0
        assert calls == [720720]


class TestVerify:
    def test_forward_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "12")
        assert code == 0
        assert "overall: PASS" in out

    @pytest.mark.parametrize(
        "argv", [("verify", "12", "--converse", "--json"), ("verify", "720720", "--json")]
    )
    def test_n_is_factored_once(self, capsys, monkeypatch, argv):
        # the certificate is checked when realise builds it; the verifiers
        # take its decomposition as given and factor N no more
        calls = []
        real = realiser.factorize

        def factorize(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(realiser, "factorize", factorize)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["pass"] is True
        assert calls == [int(argv[1])]

    def test_converse_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "--converse", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["converse_results"] is not None

    def test_converse_lists_no_automorphism_group(self, capsys, monkeypatch):
        # the scans read L off a generating set of each Aut; only
        # oracle-check closes one into the full list
        calls = {"automorphisms_bruteforce": 0, "automorphism_generators": 0}
        for name in calls:
            real = getattr(genericgroup, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(genericgroup, name, counting)
        code, out, _ = run(capsys, "verify", "12", "--converse", "--json")
        assert code == 0 and json.loads(out)["pass"] is True
        # one generating set per conjugacy class of subgroups of ZM(5,16,2)
        # (18 subgroups in 10 classes) and ZM(7,9,2) (12 in 6)
        assert calls == {"automorphisms_bruteforce": 0, "automorphism_generators": 10 + 6}

    def test_report_json_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "6", "--json")
        _, out2, _ = run(capsys, "verify", "6", "--json")
        assert out1 == out2

    def test_large_prime_factor_verifies(self, capsys):
        # n = q^2 of the factor triple is past psi_12, where factorize
        # refuses; the regime flag must not need to factor it
        code, out, _ = run(capsys, "verify", "1000000000039", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["forward_results"][-1]["factors"][0]["triple"]["n"] == 1000000000039**2


class TestOracleCheck:
    def test_agreement_case(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "5", "16", "2")
        assert code == 0
        assert "AGREE" in out

    def test_disagreement_probe(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "7", "6", "2")
        assert code == 1
        assert "DISAGREE" in out

    @pytest.mark.parametrize("triple", [("101", "625", "16"), ("1009", "2", "1008")])
    def test_above_oracle_bound_refused_before_enumeration(self, capsys, monkeypatch, triple):
        calls = []
        for module, name in [
            (aut, "enumerate_family"),
            (aut, "units"),
            (aut, "valid_ys"),
            (abscenter, "absolute_center_oracle"),
        ]:
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        code, out, err = run(capsys, "oracle-check", *triple, "--json")
        assert code == 3
        assert out == ""
        assert "> oracle bound 2000" in err
        assert calls == []

    def test_family_counted_without_enumeration(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(aut, "enumerate_family", lambda *a, **k: calls.append(a))
        code, out, _ = run(capsys, "oracle-check", "997", "2", "996", "--json")
        assert code == 0
        assert calls == []
        assert json.loads(out) == {
            "agree": True,
            "aut_bruteforce": None,
            "aut_enumerated": 993012,
            "aut_formula": 993012,
            "aut_sets_match": None,
            "l_bruteforce": None,
            "l_formula": 1,
            "l_oracle": 1,
            "regime_guaranteed": True,
            "schema": 1,
            "triple": {"m": 997, "n": 2, "r": 996},
        }

    def test_count_is_the_enumerated_family_size(self, capsys):
        for triple in ("5 16 2", "7 6 2", "7 9 2"):
            t = zm.validate_triple(*map(int, triple.split()))
            _, out, _ = run(capsys, "oracle-check", *triple.split(), "--json")
            size = len(aut.enumerate_family(t, "all"))
            assert json.loads(out)["aut_enumerated"] == aut.family_size(t) == size

    def test_one_bruteforce_automorphism_search(self, capsys, monkeypatch):
        calls = []
        real = genericgroup.automorphisms_bruteforce

        def automorphisms_bruteforce(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(genericgroup, "automorphisms_bruteforce", automorphisms_bruteforce)
        code, out, _ = run(capsys, "oracle-check", "5", "16", "2", "--json")
        assert code == 0
        assert json.loads(out)["l_bruteforce"] == 4
        assert len(calls) == 1

    def test_disagreement_probe_json(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "7", "6", "2", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["l_formula"] == 1
        assert doc["l_oracle"] == 2  # the ground truth
        assert doc["l_bruteforce"] == 2
        assert doc["aut_formula"] == 84 and doc["aut_enumerated"] == 42
        assert doc["aut_bruteforce"] == 42 and doc["aut_sets_match"] is True
        assert doc["agree"] is False

    # the fields of the JSON document that each broken engine changes
    CLAUSE_CHANGES = {
        "bruteforce-count": {"aut_bruteforce": 81},
        "permutation-sets": {"aut_sets_match": False},
        "bruteforce-l": {"l_bruteforce": 80},
        "oracle-verdict": {},
    }

    @pytest.mark.parametrize("clause", list(CLAUSE_CHANGES))
    def test_each_clause_of_the_verdict_bites(self, capsys, monkeypatch, clause):
        # each patch breaks one engine so that exactly one clause of the
        # verdict fails on ZM(5,16,2), |Aut| = 80, |L| = 4
        _, clean, _ = run(capsys, "oracle-check", "5", "16", "2", "--json")
        assert json.loads(clean)["agree"] is True
        t = zm.validate_triple(5, 16, 2)
        if clause == "bruteforce-count":
            real_perms = genericgroup.automorphisms_bruteforce
            monkeypatch.setattr(
                genericgroup,
                "automorphisms_bruteforce",
                lambda group: (perms := real_perms(group)) + perms[:1],
            )
        elif clause == "permutation-sets":
            first, second = aut.enumerate_family(t, "all")[:2]
            real_perm = aut.to_permutation
            monkeypatch.setattr(
                aut,
                "to_permutation",
                lambda t, alpha: real_perm(t, second if alpha == first else alpha),
            )
        elif clause == "bruteforce-l":
            monkeypatch.setattr(
                genericgroup,
                "fixed_subgroup",
                lambda group, perms: genericgroup.Subgroup(group, tuple(range(group.order))),
            )
        else:
            real_compare = abscenter.compare
            monkeypatch.setattr(
                abscenter, "compare", lambda t: dataclasses.replace(real_compare(t), agree=False)
            )
        code, out, _ = run(capsys, "oracle-check", "5", "16", "2", "--json")
        assert code == 1
        changed = self.CLAUSE_CHANGES[clause]
        assert json.loads(out) == {**json.loads(clean), "agree": False, **changed}


def run_any(capsys, argv):
    """Like `run`, but an argparse error gives its exit code too."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    SEQUENCE = [
        ["verify", "4", "--converse", "--aut-bound", "10"],
        ["oracle-check", "5", "16", "2", "--subgroup-bound", "3"],
        ["verify", "4", "--converse"],
        ["abscenter", "5", "16", "2", "--json"],
        ["aut", "5", "16", "2", "--family", "inner", "--json"],
        ["verify", "4", "--converse", "--aut-b=10"],
    ]

    def test_no_state_carried_between_calls(self, capsys):
        shared = [run_any(capsys, argv) for argv in self.SEQUENCE]
        direct = [cli._parse_direct(argv) is not None for argv in self.SEQUENCE]
        assert direct == [True, False, True, True, True, False]
        fresh = [run_any(capsys, argv) for argv in self.SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [3, 2, 0, 0, 0, 3]
        assert "overall: PASS" in shared[2][1]


DATA = pathlib.Path(__file__).parent / "data"
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _parse_args(parser, argv):
    """What `parser.parse_args(argv)` returns, or the SystemExit it raises,
    with its help and usage output swallowed."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return parser.parse_args(argv)
    except SystemExit as exc:
        return exc


# Per subcommand: positionals, and options with their value (None for a flag)
FUZZ_COMMANDS = {
    "abscenter": (["5", "16", "2"], [("--json", None)]),
    "aut": (["5", "16", "2"], [("--family", "central"), ("--count-only", None), ("--json", None)]),
    "realise": (["12"], [("--prime-budget", "10"), ("--json", None)]),
    "verify": (
        ["4"],
        [("--converse", None), ("--aut-bound", "10"), ("--subgroup-bound", "5"), ("--json", None)],
    ),
    "oracle-check": (["5", "16", "2"], [("--aut-bound", "10"), ("--json", None)]),
}
# Tokens an edit inserts: subcommands, exact, abbreviated and `=` options,
# help, `--`, a bad --family choice, and numbers int() reads oddly or not at all
FUZZ_TOKENS = [
    *FUZZ_COMMANDS, "abs", "ver", "--json", "--count-only", "--family", "--converse",
    "--aut-bound", "--subgroup-bound", "--prime-budget", "--js", "--aut-b", "--fam",
    "--aut-bound=10", "--family=inner", "--json=1", "-h", "--help", "--", "", "-5",
    " 7", "1_000", "5", "16", "inner", "bogus",
]


def _fuzz_argv(rng: random.Random) -> list[str]:
    """A subcommand with its positionals and some of its options, each
    option spelled exactly, abbreviated or as `--opt=value`, all in
    shuffled order, then edited up to twice: a token inserted, dropped,
    replaced or repeated."""
    command = rng.choice(sorted(FUZZ_COMMANDS))
    positionals, options = FUZZ_COMMANDS[command]
    units = [[token] for token in positionals]
    for option, value in rng.sample(options, rng.randint(0, len(options))):
        spelling = rng.choice([option, option, option[:-2]])
        if value is None:
            units.append([spelling])
        elif rng.random() < 0.2:
            units.append([f"{spelling}={value}"])
        else:
            units.append([spelling, value])
    rng.shuffle(units)
    argv = [command, *(token for unit in units for token in unit)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(argv))
        edit = rng.randrange(4)
        if edit == 0:
            argv.insert(at, rng.choice(FUZZ_TOKENS))
        elif edit == 1:
            del argv[at]
        elif edit == 2:
            argv[at] = rng.choice(FUZZ_TOKENS)
        else:
            argv.insert(at, argv[at])
    return argv


class TestDirectParse:
    def test_golden_and_benchmark_argvs_take_the_direct_path(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        argvs = [
            g["argv"]
            for name in ("cli_golden.json", "converse_golden.json")
            for g in json.loads((DATA / name).read_text())
        ]
        argvs += [
            list(op.argv) for workload in workloads.WORKLOADS for op in workloads.build(workload, 1, 12)
        ]
        parser = cli.build_parser()
        for argv in argvs:
            direct = cli._parse_direct(argv)
            assert direct is not None, argv
            assert direct == parser.parse_args(argv), argv

    def test_fuzz_agrees_with_argparse(self):
        parser = cli.build_parser()
        rng = random.Random("direct-parse")
        paths = {"direct": 0, "argparse parses": 0, "argparse exits": 0}
        for _ in range(4000):
            argv = _fuzz_argv(rng)
            direct = cli._parse_direct(argv)
            result = _parse_args(parser, argv)
            if direct is not None:
                assert isinstance(result, argparse.Namespace) and result == direct, argv
                paths["direct"] += 1
            elif isinstance(result, SystemExit):
                paths["argparse exits"] += 1
            else:
                paths["argparse parses"] += 1
        # each path is taken often enough to mean something
        assert min(paths.values()) > 200, paths

    def test_non_str_token_is_left_to_argparse(self):
        assert cli._parse_direct(["abscenter", "5", 16, "2"]) is None
        assert cli._parse_direct([5, "16", "2"]) is None


class TestFallback:
    def test_help_is_argparse_help(self, capsys):
        code, out, _ = run_any(capsys, ["abscenter", "-h"])
        assert code == 0
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["abscenter", "-h"])
        assert out == capsys.readouterr().out
        assert out.startswith("usage: zmcenter abscenter")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "4", "--aut-b", "10", "--converse"], ["verify", "4", "--converse", "--aut-bound=10"]],
    )
    def test_abbreviated_and_equals_options_still_apply(self, capsys, argv):
        assert cli._parse_direct(argv) is None
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "exceeds the scan bounds" in err

    def test_negative_positional_is_a_range_error(self, capsys):
        argv = ["abscenter", "-5", "3", "2"]
        assert cli._parse_direct(argv) is None
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: need m, n, r >= 1, got (-5,3,2)\n")


class TestHelpAndUsagePins:
    """`cli_help.json` holds the exit code, stdout and stderr of the help
    of every command and of four usage errors, recorded with Python 3.11
    and COLUMNS=80, the terminal width argparse wraps its lines to."""

    @pytest.mark.parametrize(
        "pin", json.loads((DATA / "cli_help.json").read_text()), ids=lambda pin: " ".join(pin["argv"])
    )
    def test_replays_byte_for_byte(self, capsys, monkeypatch, pin):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_any(capsys, pin["argv"])
        assert {"argv": pin["argv"], "exit": code, "stdout": out, "stderr": err} == pin


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_nonpositive_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "realise", "0")
        assert code == 2
        assert "N must be >= 1" in err


class TestBoundExits:
    def test_scan_bound_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "4", "--converse", "--aut-bound", "10")
        assert code == 3
        assert "exceeds the scan bounds" in err

    @pytest.mark.parametrize(
        "n, message",
        [
            ("21", "factor ZM(29,49,16) of order 1421 exceeds the scan bounds"),
            ("30", "factor ZM(11,25,4) of order 275 exceeds the scan bounds"),
            ("8", "factor ZM(17,64,9) of order 1088 exceeds the scan bounds"),
        ],
    )
    def test_out_of_bound_factor_refused_before_any_table(
        self, capsys, monkeypatch, n, message
    ):
        # nor any forward comparison, whose rows the refusal would discard
        calls = {"cayley": 0, "subgroups": 0, "compare": 0}
        real_cayley = ZmTriple.cayley
        real_subgroups = genericgroup.subgroups
        real_compare = abscenter.compare

        def compare(*args, **kwargs):
            calls["compare"] += 1
            return real_compare(*args, **kwargs)

        def cayley(self, *args, **kwargs):
            calls["cayley"] += 1
            return real_cayley(self, *args, **kwargs)

        def subgroups(*args, **kwargs):
            calls["subgroups"] += 1
            return real_subgroups(*args, **kwargs)

        monkeypatch.setattr(ZmTriple, "cayley", cayley)
        monkeypatch.setattr(genericgroup, "subgroups", subgroups)
        monkeypatch.setattr(abscenter, "compare", compare)
        code, out, err = run(capsys, "verify", n, "--converse")
        assert code == 3
        assert out == ""
        assert err == f"error: {message} (subgroups 400, aut 200)\n"
        assert calls == {"cayley": 0, "subgroups": 0, "compare": 0}

    def test_prime_hunt_past_certified_range_exits_3(self, capsys):
        # 2^77: the lemma proves 1 + 29*2^77 prime past psi_12; 2^100: no
        # base proves the prime candidate at t = 165, and is_prime refuses it
        code, out, _ = run(capsys, "realise", str(2**77), "--json")
        assert code == 0
        assert json.loads(out)["factors"][0]["p"] == 1 + 29 * 2**77
        code, _, err = run(capsys, "realise", str(2**100))
        assert code == 3
        assert "certified range" in err

    def test_prime_hunt_above_2_64_answers(self, capsys):
        code, out, _ = run(capsys, "realise", "4611686018427387904", "--json")
        assert code == 0
        [factor] = json.loads(out)["factors"]
        assert factor["p"] == 83010348331692982273

    def test_prime_above_2_64_answers(self, capsys):
        code, out, _ = run(capsys, "realise", "18446744073709551629", "--json")
        assert code == 0
        [factor] = json.loads(out)["factors"]
        assert factor["q"] == 18446744073709551629

    def test_cofactor_at_certified_limit_exits_3(self, capsys):
        # psi_12 = 399165290221 * 798330580441 is the first n the
        # primality test cannot certify, so factorize refuses it
        code, out, err = run(capsys, "realise", "318665857834031151167461")
        assert code == 3
        assert out == ""
        assert "psi_12 = 318665857834031151167461" in err

    def test_cofactor_just_above_certified_limit_exits_3(self, capsys):
        # 133873 * 1542841351^2, a product the factorize cross-check with
        # sympy must not draw: factorize refuses it
        code, out, err = run(capsys, "realise", "318665858555474547773473")
        assert code == 3
        assert out == ""
        assert "318665858555474547773473 is outside the certified range" in err

    def test_prime_budget_exhausted_exits_3(self, capsys):
        code, _, err = run(capsys, "realise", "4", "--prime-budget", "0")
        assert code == 3
        assert "no admissible prime" in err

    def test_oracle_skipped_above_bound(self, capsys):
        # formula still answers; the oracle columns go null
        code, out, _ = run(capsys, "abscenter", "101", "625", "16", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["formula_order"] == 25
        assert doc["oracle_order"] is None and doc["agree"] is None


class TestPastCertifiedRange:
    """Past psi_12 an auxiliary prime is proven by Pocklington's lemma, and
    what no proof decides is refused by `is_prime` alone, with exit 3."""

    ANSWERED = {
        "2^77": 2**77,
        "2^80": 2**80,
        "2^256": 2**256,
        "2^400": 2**400,
        "3^50": 3**50,
        "5^40": 5**40,
        "7^30": 7**30,
        "2^80*3^40": 2**80 * 3**40,
        "(10^12+39)^2": (10**12 + 39) ** 2,
    }

    @pytest.mark.parametrize("N", ANSWERED.values(), ids=list(ANSWERED))
    def test_realise_answers(self, capsys, N):
        code, out, err = run(capsys, "realise", str(N), "--json")
        assert (code, err) == (0, "")
        # a certificate rebuilt from the document's fields factors its own
        # N and checks every witness
        cert = certificate_from_document(json.loads(out))
        assert cert.N == N
        assert any(f.p >= numtheory._PSI_12 for f in cert.factors)
        for f in cert.factors:
            # the lemma's two powers, recomputed here: r^(q^alpha) = 1,
            # gcd(r^(q^(alpha-1)) - 1, p) = 1 and p < (q^alpha + 1)^2
            # prove p prime
            below = pow(f.r, f.q_pow // f.q, f.p)
            assert pow(below, f.q, f.p) == 1
            assert math.gcd(below - 1, f.p) == 1
            assert f.p < (f.q_pow + 1) ** 2 and (f.p - 1) % f.q_pow == 0
        if sympy is not None:
            assert all(sympy.isprime(f.p) for f in cert.factors)

    @pytest.mark.parametrize(
        "argv",
        [
            # the least prime above psi_12, whose order ord_m(r) needs phi(m)
            ["abscenter", "318665857834031151167483", "2", "318665857834031151167482"],
            # (10^12 + 39)(10^12 + 61): a cofactor no perfect square
            ["realise", "1000000000100000000002379"],
            # the candidate 1 + 165*2^100 is prime, and no base proves it
            ["realise", str(2**100)],
            # forward verification factors the auxiliary prime p
            ["verify", str(2**80)],
        ],
        ids=["abscenter-least-prime-above-psi_12", "realise-semiprime", "realise-2^100", "verify-2^80"],
    )
    def test_refusal_exits_3_and_names_the_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "is outside the certified range of the primality test" in err
        assert "psi_12 = 318665857834031151167461" in err


# For each bound flag a subcommand declares: an invocation, and the flag
# with a value that changes its result.
BOUND_FLAG_CASES = {
    ("verify", "--aut-bound"): (["verify", "4", "--converse"], ["--aut-bound", "10"]),
    ("verify", "--subgroup-bound"): (["verify", "4", "--converse"], ["--subgroup-bound", "10"]),
    ("verify", "--prime-budget"): (["verify", "4"], ["--prime-budget", "0"]),
    ("realise", "--prime-budget"): (["realise", "4"], ["--prime-budget", "0"]),
    ("oracle-check", "--aut-bound"): (["oracle-check", "5", "16", "2"], ["--aut-bound", "10"]),
}


def _declared_bound_flags() -> set[tuple[str, str]]:
    return {
        (name, flag)
        for name, command in cli.COMMANDS.items()
        for flag in command.options
        if flag.endswith(("-bound", "-budget"))
    }


class TestNoDeadFlag:
    def test_every_bound_flag_has_a_case(self):
        assert _declared_bound_flags() == set(BOUND_FLAG_CASES)

    def test_readme_bound_flag_table_matches(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` +\| (.+?) +\|$", readme, re.M)
        documented = {name: set(re.findall(r"`(--[\w-]+)`", flags)) for name, flags in rows}
        declared = {name: set() for name in cli.COMMANDS}
        for name, flag in _declared_bound_flags():
            declared[name].add(flag)
        assert documented == declared

    @pytest.mark.parametrize("key", sorted(BOUND_FLAG_CASES))
    def test_flag_changes_the_result(self, capsys, key):
        argv, flag = BOUND_FLAG_CASES[key]
        assert run(capsys, *argv) != run(capsys, *argv, *flag)

    @pytest.mark.parametrize("key", sorted(BOUND_FLAG_CASES))
    def test_negative_bound_is_a_usage_error(self, capsys, key):
        # as a negative positional is; zero stays a bound (see
        # test_prime_budget_exhausted_exits_3)
        argv, (flag, _) = BOUND_FLAG_CASES[key]
        assert run(capsys, *argv, flag, "-1") == (2, "", f"error: {flag} must be >= 0, got -1\n")

    def test_every_bounds_field_is_read_from_a_flag(self):
        # a Bounds field with no flag would keep its default here
        argv = ["verify", "4", "--aut-bound", "11", "--subgroup-bound", "12", "--prime-budget", "13"]
        bounds = cli._bounds_from_args(cli.build_parser().parse_args(argv))
        fields = {f.name: getattr(bounds, f.name) for f in dataclasses.fields(bounds)}
        assert fields == {"aut": 11, "subgroups": 12, "prime_budget": 13}

    def test_oracle_check_aut_bound_skips_brute_force(self, capsys):
        _, out, _ = run(capsys, "oracle-check", "5", "16", "2", "--json")
        assert json.loads(out)["aut_bruteforce"] == 80
        _, out, _ = run(capsys, "oracle-check", "5", "16", "2", "--json", "--aut-bound", "10")
        assert json.loads(out)["aut_bruteforce"] is None

    @pytest.mark.parametrize(
        "argv, code, shown, err",
        [
            # the factors of 6 are ZM(5,4,4) of order 20 and ZM(7,9,4) of
            # order 63; their product of order 1260 is past both bounds
            (
                "verify 6 --converse --aut-bound 63 --subgroup-bound 63",
                0,
                "full product (order 1260): not scanned",
                "",
            ),
            (
                "verify 6 --converse --aut-bound 62 --subgroup-bound 63",
                3,
                None,
                f"{SCAN_REFUSAL_63} (subgroups 63, aut 62)\n",
            ),
            (
                "verify 6 --converse --aut-bound 63 --subgroup-bound 62",
                3,
                None,
                f"{SCAN_REFUSAL_63} (subgroups 62, aut 63)\n",
            ),
            # ZM(5,16,2) has order 80
            ("oracle-check 5 16 2 --json --aut-bound 80", 0, '"aut_bruteforce": 80', ""),
            ("oracle-check 5 16 2 --json --aut-bound 79", 0, '"aut_bruteforce": null', ""),
        ],
    )
    def test_command_gates_sit_at_the_group_order(self, capsys, argv, code, shown, err):
        # the engines check no bound, so each command's gate is the only one
        got_code, out, got_err = run(capsys, *argv.split())
        assert (got_code, got_err) == (code, err)
        assert shown in out if shown else out == ""

    def test_oracle_check_has_no_subgroup_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle-check", "5", "16", "2", "--subgroup-bound", "5"])
        assert exc.value.code == 2
        assert "--subgroup-bound" in capsys.readouterr().err


def test_module_entry_point_reads_sys_argv(capsys):
    root = pathlib.Path(__file__).resolve().parents[1]
    argv = ["abscenter", "5", "16", "2", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "zmcenter", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
