"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import signal
from time import perf_counter

import pytest

import checks
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def cli():
    module = run.import_cli()
    assert module is not None, "zmcenter not found under src/"
    return module


def _stdout(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 50.0),
        (19, 50.0),
        (20, 50.0),
        (30, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (1050, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_harrell_davis_quantile():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.quantile(values, 0.5) == pytest.approx(50.5)
    assert 89.5 < run.quantile(values, 0.9) < 91.5
    assert run.quantile(values, 0.5) < run.quantile(values, 0.9) < run.quantile(values, 0.99)
    assert run.quantile([7.0], 0.5) == pytest.approx(7.0)
    assert run.quantile([3.0] * 40, 0.75) == pytest.approx(3.0)


# -- validators -----------------------------------------------------------------

_CORRUPTIONS = {
    "sweep": ((5, 16, 2), ["abscenter", "5", "16", "2", "--json"], lambda d: d.update(generator="b^8")),
    "forward": (12, ["verify", "12", "--json"], lambda d: d["forward_results"][2].update(formula_product=4)),
    "converse": (
        6,
        ["verify", "6", "--converse", "--json"],
        lambda d: d["converse_results"][0]["subgroups"][-1].update(l_order=4),
    ),
    "realise": (12, ["realise", "12", "--json"], lambda d: d["factors"][0].update(r=1)),
}


@pytest.mark.parametrize("workload", sorted(_CORRUPTIONS))
def test_validator_accepts_real_output_and_rejects_a_corrupted_one(cli, workload):
    subject, argv, corrupt = _CORRUPTIONS[workload]
    code, stdout = _stdout(cli, argv)
    assert checks.classify(workload, subject, code, stdout) == (checks.ANSWERED, "")
    doc = json.loads(stdout)
    corrupt(doc)
    outcome, reason = checks.classify(workload, subject, code, json.dumps(doc))
    assert outcome == checks.WRONG, reason


def test_sweep_check_accepts_reported_drift_outside_the_guaranteed_regime(cli):
    # ZM(7,6,2): the closed form gives 1, the oracle 2; the report says so
    code, stdout = _stdout(cli, ["abscenter", "7", "6", "2", "--json"])
    assert json.loads(stdout)["agree"] is False
    assert checks.classify("sweep", (7, 6, 2), code, stdout)[0] == checks.ANSWERED


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.update(d=2),
        lambda d: d.update(e=2, generator="b^8"),
        lambda d: d.update(agree=False),
        lambda d: d.update(oracle_order=8),
        lambda d: d.update(regime_guaranteed=False),
    ],
)
def test_sweep_check_rejects_each_field(cli, corrupt):
    code, stdout = _stdout(cli, ["abscenter", "5", "16", "2", "--json"])
    doc = json.loads(stdout)
    corrupt(doc)
    assert checks.classify("sweep", (5, 16, 2), code, json.dumps(doc))[0] == checks.WRONG


def test_exit_codes_classify_as_refused_failed_or_wrong():
    assert checks.classify("converse", 8, 3, "")[0] == checks.REFUSED
    assert checks.classify("realise", 1 << 62, 2, "")[0] == checks.FAILED
    assert checks.classify("forward", 12, 1, "{}")[0] == checks.WRONG
    assert checks.classify("forward", 12, 1, "")[0] == checks.WRONG
    assert checks.classify("forward", 12, 0, "not json")[0] == checks.WRONG


def test_exit_1_with_a_failed_verification_is_wrong(cli):
    code, stdout = _stdout(cli, ["verify", "12", "--json"])
    doc = json.loads(stdout)
    doc["pass"] = False
    outcome, reason = checks.classify("forward", 12, 1, json.dumps(doc))
    assert outcome == checks.WRONG, reason
    # exit 1 is wrong even when every field of the output checks out
    outcome, reason = checks.classify("forward", 12, 1, stdout)
    assert (outcome, reason) == (checks.WRONG, "exit 1: the package reports a failed verification")


def test_check_arithmetic():
    assert [n for n in range(50) if checks.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]
    assert not checks.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert checks.is_prime((1 << 61) - 1)
    assert checks.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert checks.order_mod(2, 7) == 3
    assert checks.order_mod(2, 31, limit=4) is None


# -- timing ---------------------------------------------------------------------


def test_timed_pass_probes_inside_an_operation_and_does_not_count_it():
    class BusyCli:
        @staticmethod
        def main(argv):
            end = perf_counter() + 0.6
            while perf_counter() < end:
                pass
            return 0

    handler = signal.getsignal(signal.SIGALRM)
    ops = [workloads.Op(("abscenter", "5", "16", "2", "--json"), (5, 16, 2))]
    res = run.run_pass(BusyCli, "sweep", ops, timed=True)
    inside = [s for when, s in res.pauses if when >= res.starts[0]]
    assert len(inside) >= 2
    assert res.seconds[0] + sum(inside) == pytest.approx(0.6, abs=0.02)
    assert len(res.probes) == len(res.pauses) and res.setups
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- operation lists ------------------------------------------------------------


@pytest.mark.parametrize("workload", ["sweep", "forward", "converse", "realise"])
def test_same_seed_gives_same_operation_list(workload):
    seconds = 2 if workload in ("sweep", "realise") else 15
    first = workloads.build(workload, 7, seconds)
    assert first == workloads.build(workload, 7, seconds)
    assert first != workloads.build(workload, 8, seconds)


def test_list_length_follows_seconds_not_seed():
    assert len(workloads.build("sweep", 1, 2)) == len(workloads.build("sweep", 2, 2)) == 132
    assert len(workloads.build("realise", 1, 3)) == len(workloads.build("realise", 2, 3))
    assert len(workloads.build("converse", 1, 15)) == 30


def test_count_bounds_are_below_one_operation_of_every_list():
    # ok_frac and answered_frac are exact counts over attempted operations
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads.WORKLOADS:
        n = len(workloads.build(workload, 1, bench["run_seconds"]))
        assert 1 / n > max(bounds["ok_frac"], bounds["answered_frac"]), workload


def test_sweep_has_no_repeats_and_realise_keeps_the_exit_2_input():
    argvs = [op.argv for op in workloads.build("sweep", 1, 5)]
    assert len(argvs) == len(set(argvs))
    assert workloads.TWO_TO_62 in [op.subject for op in workloads.build("realise", 1, 1)]


def test_valid_triples_match_the_package_enumeration(cli):
    from zmcenter.zm import iter_valid_triples

    package = sorted((t.m, t.n, t.r) for t in iter_valid_triples(200))
    assert sorted(workloads.valid_triples(200)) == package


# -- tracing --------------------------------------------------------------------


def _snapshot():
    from zmcenter import genericgroup, zm

    owners = tracing.package_modules() + [zm.ZmTriple, genericgroup.CayleyGroup, genericgroup.Subgroup]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_install_then_uninstall_restores_every_attribute(cli):
    from zmcenter import numtheory, realiser, zm

    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # one wrapper, bound under every name that bound the original
        assert hasattr(numtheory.factorize, "__wrapped__")
        assert zm.factorize is numtheory.factorize is realiser.factorize
        assert hasattr(zm.ZmTriple.cayley, "__wrapped__")
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert attrs.keys() == now.keys(), owner
        changed = [name for name in attrs if attrs[name] is not now[name]]
        assert not changed, (owner, changed)


def _traced_counts(cli, ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = run.run_pass(cli, "converse", ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return res, {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_and_catch_from_imported_calls(cli):
    ops = [workloads.Op(("verify", str(n), "--converse", "--json"), n) for n in (2, 5, 6)]
    res, first = _traced_counts(cli, ops)
    assert res.outcomes == [checks.ANSWERED, checks.REFUSED, checks.ANSWERED]
    _, second = _traced_counts(cli, ops)
    assert first == second
    # validate_triple and multiplicative_order are called through names
    # that zm and realiser import, not through numtheory or zm themselves
    assert first["zm.validate_triple.calls"] > 0
    assert first["numtheory.multiplicative_order.calls"] > 0
    assert first["genericgroup.closure.calls"] > 0
    assert first["cli.main.calls"] == 3
