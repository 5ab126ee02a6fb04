#!/usr/bin/env python3
"""zmcenter benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Each operation is one in-process ``zmcenter.cli.main([...])`` call with
stdout captured, checked by checks.py. ``--trace 0`` times the operation
list and reports the end-to-end metrics; ``--trace 1`` runs the same list
traced and then untraced, and reports the per-layer metrics. The last
line of stdout is the result object; spans of a traced run go to
.bench_out/. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# op_tail_ms: the highest of these percentiles with ten samples above it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
# setup_s: one fresh interpreter every two seconds of the run, at least 11 in all
SETUP_EVERY_S = 2.0
SETUP_MIN = 11
# CPU probe: its size, its period (also inside operations), the window
# around an operation whose probes scale it, and the probe's time at the
# reference speed (the quiet 2-core x86-64 baseline machine)
PROBE_SIZE = 600
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 0.0013
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from zmcenter import cli; cli.build_parser()"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "answered_frac": "ratio",
}


# -- statistics ------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples above
    its nearest-rank position; the median when n is below 20."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= TAIL_MIN_BEYOND:
            best = p
    return best


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1): the mean of the
    order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each
    1/n slice of [0, 1]. It varies less than a single order statistic when
    samples are few; the mass is integrated by the midpoint rule."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16
    log_density = [
        (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        for t in ((k + 0.5) / (steps * n) for k in range(steps * n))
    ]
    top = max(log_density)
    weights = [0.0] * n
    for k, value in enumerate(log_density):
        weights[k // steps] += math.exp(value - top)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


# -- running operations ---------------------------------------------------------


class Outcome:
    """What one pass over the operation list produced."""

    def __init__(self, ops: list[workloads.Op]) -> None:
        self.ops = ops
        self.seconds: list[float] = []
        self.starts: list[float] = []
        self.probes: list[tuple[float, float]] = []  # (when, probe seconds)
        self.pauses: list[tuple[float, float]] = []  # (when, seconds spent probing)
        self.setups: list[float] = []
        self.digests: list[str] = []
        self.outcomes: list[str] = []
        self.reasons: list[str] = []
        self.stdout_bytes = 0


def run_op(
    cli, op: workloads.Op, pauses: list[tuple[float, float]]
) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, stderr). Probes
    that interrupt the call are listed in ``pauses`` and not counted."""
    mark = len(pauses)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # an operation's crash is a result to count, not a reason to stop
        code = None
        err.write(traceback.format_exc())
    end = perf_counter()
    probing = sum(s for when, s in pauses[mark:] if start <= when < end)
    return end - start - probing, code, out.getvalue(), err.getvalue()


def probe() -> float:
    """Best of three timings of a fixed piece of pure-Python work like the
    package's inner loops: big-int powers, dict updates, and building and
    indexing tuples as a Cayley table does. The collector is off while it
    runs, so the objects the package leaves live cannot time it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_once() for _ in range(PROBE_REPEATS))
    finally:
        if collecting:
            gc.enable()


def _probe_once() -> float:
    start = perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_SIZE):
        acc += pow(i + 2, 1_000_003, 998_244_353)
        table[(i % 61, i % 7)] = acc
    rows = [tuple((i * j) % 97 for j in range(97)) for i in range(PROBE_SIZE // 20)]
    acc += sum(rows[i % len(rows)][(i * 7) % 97] for i in range(PROBE_SIZE * 4))
    return perf_counter() - start


def run_pass(
    cli, workload: str, ops: list[workloads.Op], tracer=None, timed: bool = False
) -> Outcome:
    """Run every operation once, each from a collected heap as in a fresh
    process. A timed pass also times the CPU probe every PROBE_EVERY_S,
    from a SIGALRM handler so that long operations are probed while they
    run, and a fresh interpreter's set-up every SETUP_EVERY_S."""
    res = Outcome(ops)
    first_digest: dict[tuple[str, ...], str] = {}
    last_setup = -math.inf

    def on_alarm(signum, frame) -> None:
        start = perf_counter()
        res.probes.append((start, probe()))
        res.pauses.append((start, perf_counter() - start))

    previous = signal.signal(signal.SIGALRM, on_alarm) if timed else None
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            if timed and perf_counter() - last_setup >= SETUP_EVERY_S:
                # no probe while the child starts: it would compete for the CPU
                signal.setitimer(signal.ITIMER_REAL, 0)
                res.setups.append(time_setup())
                on_alarm(signal.SIGALRM, None)  # so that even a short pass has a probe
                last_setup = perf_counter()
                signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            gc.collect()
            res.starts.append(perf_counter())
            _record(res, workload, op, run_op(cli, op, res.pauses), first_digest)
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return res


def _record(res: Outcome, workload: str, op: workloads.Op, result, first_digest: dict) -> None:
    """Check one operation's result and add it to ``res``."""
    seconds, code, stdout, stderr = result
    data = stdout.encode()
    digest = hashlib.sha256(data).hexdigest()
    outcome, reason = checks.classify(workload, op.subject, code, stdout)
    if code is None:
        outcome, reason = checks.WRONG, "raised: " + stderr.strip().splitlines()[-1]
    elif first_digest.setdefault(op.argv, digest) != digest:
        outcome, reason = checks.WRONG, "stdout differs from an earlier run of the same input"
    if outcome == checks.FAILED:
        reason += ": " + (stderr.strip().splitlines() or [""])[-1][:160]
    res.seconds.append(seconds)
    res.digests.append(digest)
    res.outcomes.append(outcome)
    res.reasons.append(reason)
    res.stdout_bytes += len(data)


def time_setup() -> float:
    """Seconds from starting a fresh interpreter to zmcenter.cli imported and
    its parser built."""
    start = perf_counter()
    # no timeout: with one, wait() polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], cwd=ROOT, check=True)
    return perf_counter() - start


# -- reporting ------------------------------------------------------------------


def _count(res: Outcome, *kinds: str) -> int:
    return sum(o in kinds for o in res.outcomes)


def summarize(workload: str, res: Outcome) -> None:
    n = len(res.outcomes)
    failed = _count(res, checks.FAILED, checks.WRONG)
    refused = _count(res, checks.REFUSED)
    print(
        f"{workload}: {n} operations, failed_frac {failed / n:.4f} ({failed}), "
        f"refused_frac {refused / n:.4f} ({refused})"
    )
    shown = 0
    for outcome, reason, op in zip(res.outcomes, res.reasons, res.ops):
        if outcome in (checks.FAILED, checks.WRONG) and shown < 5:
            print(f"  {outcome}: {' '.join(op.argv)}: {reason}")
            shown += 1


def result_line(res: Outcome, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": _count(res, checks.WRONG) == 0,
            "attempted": len(res.outcomes),
            "failed": _count(res, checks.FAILED, checks.WRONG),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def scaled_times(res: Outcome) -> list[float]:
    """Each operation's time at the reference speed: scaled by PROBE_REF_S
    over the median probe time within PROBE_WINDOW_S of the operation."""
    times = [t for t, _ in res.probes]
    out = []
    for start, seconds in zip(res.starts, res.seconds):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + seconds + PROBE_WINDOW_S)
        near = [p for _, p in res.probes[lo:hi]] or [res.probes[max(0, lo - 1)][1]]
        out.append(seconds * PROBE_REF_S / statistics.median(near))
    return out


def timed_run(cli, workload: str, ops: list[workloads.Op]) -> tuple[Outcome, dict]:
    time_setup()  # writes the bytecode
    res = run_pass(cli, workload, ops, timed=True)
    while len(res.setups) < SETUP_MIN:
        res.setups.append(time_setup())
    setup_s = statistics.median(res.setups)
    n = len(ops)
    p_tail = tail_percentile(n)
    answered = _count(res, checks.ANSWERED)
    raw = res.seconds
    scaled = scaled_times(res)
    print(
        f"unscaled: ops_per_s {n / sum(raw):.4g}, op_p50_ms {quantile(raw, 0.5) * 1e3:.4g}, "
        f"op_tail_ms {quantile(raw, p_tail / 100) * 1e3:.4g}; median probe "
        f"{statistics.median(p for _, p in res.probes) * 1e3:.4g} ms of {len(res.probes)}"
    )
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": quantile(scaled, 0.5) * 1e3,
        "op_tail_ms": quantile(scaled, p_tail / 100) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - _count(res, checks.FAILED, checks.WRONG) / n,
        "answered_frac": answered / n,
    }
    print(f"op_tail_ms is p{p_tail:g} of {n} samples")
    return res, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def traced_run(cli, workload: str, ops: list[workloads.Op], seed: int) -> tuple[Outcome, dict]:
    """The traced pass runs first, so its counts see the package as the timed
    runs do; the untraced pass then gives the overhead and a second stdout.
    Neither pass probes: a probe inside an operation would land in its spans."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, workload, ops, tracer)
    finally:
        tracer.uninstall()
    plain = run_pass(cli, workload, ops)
    for i, (a, b) in enumerate(zip(traced.digests, plain.digests)):
        if a != b:
            traced.outcomes[i] = checks.WRONG
            traced.reasons[i] = "stdout differs between the traced and untraced runs"
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz")
    values = tracer.layer_metrics()
    values["cli.stdout_bytes"] = traced.stdout_bytes
    overhead = sum(traced.seconds) / sum(plain.seconds) - 1
    values["trace.overhead_frac"] = overhead
    print(f"{len(tracer.spans)} spans; tracing overhead {overhead:+.1%} of untraced time")
    return traced, {k: (v, unit_of(k)) for k, v in values.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".yield", "_frac")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


# -- entry ----------------------------------------------------------------------


def import_cli():
    """zmcenter.cli from this checkout's src/, or None if it is not there."""
    if not (SRC / "zmcenter" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from zmcenter import cli

    if Path(cli.__file__).resolve().parent != SRC / "zmcenter":
        return None
    return cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zmcenter benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = import_cli()
    if cli is None:
        print(f"error: no zmcenter package under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.seconds)
    if args.trace:
        res, metrics = traced_run(cli, args.workload, ops, args.seed)
    else:
        res, metrics = timed_run(cli, args.workload, ops)
    summarize(args.workload, res)
    print(result_line(res, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
