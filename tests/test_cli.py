import argparse
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from zmcenter import abscenter, aut, cli, genericgroup, numtheory, realiser, schemas, zm
from zmcenter.zm import ZmTriple


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
        jsonschema.validate(doc, schemas.ABSCENTER_SCHEMA)
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

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--family", "inner"]])
    def test_listing_above_oracle_bound_refused_before_enumeration(
        self, capsys, monkeypatch, flags
    ):
        # the family of ZM(1000003,2,1000002) has about 10^12 members
        def refuse(*args, **kwargs):
            raise AssertionError("the family was built")

        for name in ("enumerate_family", "units", "valid_ys"):
            monkeypatch.setattr(aut, name, refuse)
        code, out, err = run(capsys, "aut", "1000003", "2", "1000002", *flags)
        assert code == 3
        assert out == ""
        monkeypatch.undo()
        assert (code, out, err) == run(capsys, "oracle-check", "1000003", "2", "1000002")

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
        jsonschema.validate(doc, schemas.CERTIFICATE_SCHEMA)
        assert doc["N"] == 12

    def test_byte_identical_json(self, capsys):
        _, out1, _ = run(capsys, "realise", "30", "--json")
        _, out2, _ = run(capsys, "realise", "30", "--json")
        assert out1 == out2

    def test_certificate_check_does_not_factor_again(self, capsys, monkeypatch):
        calls = []
        real = numtheory.factorize

        def factorize(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        for module in (numtheory, realiser, zm):
            monkeypatch.setattr(module, "factorize", factorize)
        code, out, _ = run(capsys, "realise", "18809838571", "--json")
        assert code == 0
        assert json.loads(out)["N"] == 18809838571
        # the check of ord_p(r) = q^alpha factors neither p nor p - 1, and
        # validating a factor triple does not factor m for phi(m)
        assert len(calls) == 10


class TestVerify:
    def test_forward_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "12")
        assert code == 0
        assert "overall: PASS" in out

    def test_converse_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "--converse", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.REPORT_SCHEMA)
        assert doc["pass"] is True
        assert doc["converse_results"] is not None

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
            assert json.loads(out)["aut_enumerated"] == len(aut.enumerate_family(t, "all"))

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
    ]

    def test_no_state_carried_between_calls(self, capsys, monkeypatch):
        cli._shared_parser.cache_clear()
        shared = [run_any(capsys, argv) for argv in self.SEQUENCE]
        assert cli._shared_parser() is cli._shared_parser()
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [run_any(capsys, argv) for argv in self.SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [3, 2, 0, 0]
        assert "overall: PASS" in shared[2][1]


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
        ],
    )
    def test_out_of_bound_factor_refused_before_any_table(
        self, capsys, monkeypatch, n, message
    ):
        calls = {"cayley": 0, "subgroups": 0}
        real_cayley = ZmTriple.cayley
        real_subgroups = genericgroup.subgroups

        def cayley(self, *args, **kwargs):
            calls["cayley"] += 1
            return real_cayley(self, *args, **kwargs)

        def subgroups(*args, **kwargs):
            calls["subgroups"] += 1
            return real_subgroups(*args, **kwargs)

        monkeypatch.setattr(ZmTriple, "cayley", cayley)
        monkeypatch.setattr(genericgroup, "subgroups", subgroups)
        code, out, err = run(capsys, "verify", n, "--converse")
        assert code == 3
        assert out == ""
        assert err == f"error: {message} (subgroups 400, aut 200)\n"
        assert calls == {"cayley": 0, "subgroups": 0}

    def test_prime_hunt_past_certified_range_exits_3(self, capsys):
        # 2^77: the hunt 1 + t*2^77 passes psi_12 at t = 3
        code, _, err = run(capsys, "realise", "151115727451828646838272")
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
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, option)
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.endswith(("-bound", "-budget"))
    }


class TestNoDeadFlag:
    def test_every_bound_flag_has_a_case(self):
        assert _declared_bound_flags() == set(BOUND_FLAG_CASES)

    @pytest.mark.parametrize("key", sorted(BOUND_FLAG_CASES))
    def test_flag_changes_the_result(self, capsys, key):
        argv, flag = BOUND_FLAG_CASES[key]
        assert run(capsys, *argv) != run(capsys, *argv, *flag)

    def test_oracle_check_aut_bound_skips_brute_force(self, capsys):
        _, out, _ = run(capsys, "oracle-check", "5", "16", "2", "--json")
        assert json.loads(out)["aut_bruteforce"] == 80
        _, out, _ = run(capsys, "oracle-check", "5", "16", "2", "--json", "--aut-bound", "10")
        assert json.loads(out)["aut_bruteforce"] is None

    def test_oracle_check_has_no_subgroup_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle-check", "5", "16", "2", "--subgroup-bound", "5"])
        assert exc.value.code == 2
        assert "--subgroup-bound" in capsys.readouterr().err


def test_probe_discrepancies_script_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "probe_discrepancies.py"), "--max-order", "60"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n10 unguaranteed triples with mn <= 60; 10 with formula drift\n")
