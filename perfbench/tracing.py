"""Layer tracing from outside the package.

The tracer wraps the public functions and methods of each zmcenter module
wherever a module namespace binds them (``zm`` and ``realiser`` bind
``factorize`` and friends with ``from ... import``, so patching
``numtheory`` alone would miss their calls). Each call records a span
(name, start, end, parent, operation) in memory, and counts are taken at
the same boundaries. Hot leaf helpers such as ``geometric_sum_mod`` and
``ZmTriple.multiply`` stay unwrapped; their time is self time of the
wrapped caller. ``is_prime`` runs at every step of the trial-division
wheel (millions of calls on the realise workload), so it is counted but
gets no span. ``uninstall`` puts every patched attribute back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from checks import EXIT_BOUND

LAYERS = ("numtheory", "zm", "aut", "abscenter", "genericgroup", "realiser", "cli")

# (module, attribute); "Class.method" names a method.
TARGETS = (
    ("numtheory", "is_prime"),
    ("numtheory", "factorize"),
    ("numtheory", "euler_phi"),
    ("numtheory", "multiplicative_order"),
    ("numtheory", "find_prime_in_progression"),
    ("numtheory", "find_element_of_order"),
    ("zm", "validate_triple"),
    ("zm", "ZmTriple.cayley"),
    ("aut", "enumerate_family"),
    ("abscenter", "compare"),
    ("abscenter", "absolute_center_formula"),
    ("abscenter", "absolute_center_oracle"),
    ("genericgroup", "CayleyGroup.from_table"),
    ("genericgroup", "CayleyGroup.closure"),
    ("genericgroup", "subgroups"),
    ("genericgroup", "Subgroup.as_group"),
    ("genericgroup", "automorphisms_bruteforce"),
    ("genericgroup", "absolute_center_bruteforce"),
    ("genericgroup", "direct_product"),
    ("realiser", "realise"),
    ("realiser", "verify"),
    ("realiser", "verify_forward"),
    ("realiser", "verify_converse"),
    ("realiser", "validate_certificate"),
    ("realiser", "subgroup_for_divisor"),
    ("cli", "main"),
)

# Calls counted without a span; their time stays with the caller.
COUNT_ONLY = frozenset({"numtheory.is_prime"})


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def package_modules() -> list:
    """Every module of the zmcenter package, imported (not __main__, whose
    import runs the command line)."""
    pkg = importlib.import_module("zmcenter")
    names = [info.name for info in pkgutil.iter_modules(pkg.__path__) if info.name != "__main__"]
    return [pkg] + [importlib.import_module(f"zmcenter.{name}") for name in sorted(names)]


def _first_arg(args: tuple, kwargs: dict, name: str):
    return args[0] if args else kwargs[name]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = -1
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [span index, time in child spans]
        self._open: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        start = perf_counter()
        self.spans.append([name, start, start, parent, self.op_id])
        self._stack.append(frame)
        self._open[name] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[frame[0]][2] = end
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result, duration)
        return result

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name in COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        modules = package_modules()
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            module = importlib.import_module(f"zmcenter.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._patch(cls, method, raw, wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Spans as tab-separated rows; times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tstart_us\tend_us\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    f"{i}\t{name}\t{(start - origin) * 1e6:.1f}\t"
                    f"{(end - origin) * 1e6:.1f}\t{parent}\t{op}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, except the ones the
        runner measures itself (cli.stdout_bytes, trace.overhead_frac)."""
        busy = defaultdict(float)
        for name, seconds in self.self_s.items():
            busy[name.split(".", 1)[0]] += seconds
        c, calls, self_s = self.counts, self.calls, self.self_s
        out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
        out.update(
            {
                "numtheory.factorize.calls": calls["numtheory.factorize"],
                "numtheory.factorize.self_s": self_s["numtheory.factorize"],
                "numtheory.is_prime.calls": calls["numtheory.is_prime"],
                "numtheory.multiplicative_order.calls": calls["numtheory.multiplicative_order"],
                "numtheory.prime_search.candidates": c["prime_search.candidates"],
                "numtheory.prime_search.hit_ratio": _ratio(
                    c["prime_search.hits"], c["prime_search.candidates"]
                ),
                "zm.validate_triple.calls": calls["zm.validate_triple"],
                "zm.cayley.calls": calls["zm.cayley"],
                "zm.cayley.entries": c["cayley.entries"],
                "zm.cayley.self_s": self_s["zm.cayley"],
                "aut.enumerate_family.calls": calls["aut.enumerate_family"],
                "aut.enumerate_family.distinct": len(self.distinct["aut.enumerate_family"]),
                "aut.family_members": c["family_members"],
                "abscenter.compare.calls": c["comparisons"],
                "abscenter.compare.distinct_ratio": _ratio(
                    len(self.distinct["comparisons"]), c["comparisons"]
                ),
                "abscenter.absolute_center_formula.self_s": self_s["abscenter.absolute_center_formula"],
                "abscenter.absolute_center_oracle.self_s": self_s["abscenter.absolute_center_oracle"],
                "abscenter.oracle.elements_scanned": c["oracle.elements_scanned"],
                "genericgroup.from_table.calls": calls["genericgroup.from_table"],
                "genericgroup.from_table.self_s": self_s["genericgroup.from_table"],
                "genericgroup.closure.calls": calls["genericgroup.closure"],
                "genericgroup.closure.self_s": self_s["genericgroup.closure"],
                "genericgroup.subgroups.found": c["subgroups.found"],
                "genericgroup.subgroups.yield": _ratio(
                    c["subgroups.found"], calls["genericgroup.closure"]
                ),
                "genericgroup.as_group.calls": calls["genericgroup.as_group"],
                "genericgroup.automorphisms_bruteforce.self_s": self_s[
                    "genericgroup.automorphisms_bruteforce"
                ],
                "genericgroup.automorphisms_bruteforce.found": c["automorphisms.found"],
                "realiser.verify_forward.rows": c["verify_forward.rows"],
                "realiser.verify_forward.self_s": self_s["realiser.verify_forward"],
                "realiser.verify_converse.self_s": self_s["realiser.verify_converse"],
                "realiser.validate_certificate.calls": calls["realiser.validate_certificate"],
                "cli.main.calls": calls["cli.main"],
                "cli.refused_s": c["cli.refused_s"],
            }
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counts taken at span boundaries ------------------------------------------
# Each hook sees (tracer, args, kwargs, result, span seconds) after a call
# that returned.


def _triple_key(t) -> tuple[int, int, int]:
    return (t.m, t.n, t.r)


def _on_prime_search(tr: Tracer, args, kwargs, p, _s) -> None:
    # p = 1 + t*q_pow is the first admissible candidate, so t candidates were tried
    q_pow = _first_arg(args, kwargs, "q_pow")
    tr.counts["prime_search.hits"] += 1
    tr.counts["prime_search.candidates"] += (p - 1) // q_pow


def _on_cayley(tr: Tracer, args, kwargs, _result, _s) -> None:
    tr.counts["cayley.entries"] += _first_arg(args, kwargs, "self").order ** 2


def _on_enumerate_family(tr: Tracer, args, kwargs, family, _s) -> None:
    t = _first_arg(args, kwargs, "t")
    kind = args[1] if len(args) > 1 else kwargs.get("family", "all")
    tr.distinct["aut.enumerate_family"].add((_triple_key(t), kind))
    tr.counts["family_members"] += len(family)


def _count_comparison(tr: Tracer, args, kwargs) -> None:
    tr.counts["comparisons"] += 1
    tr.distinct["comparisons"].add(_triple_key(_first_arg(args, kwargs, "t")))


def _on_compare(tr: Tracer, args, kwargs, _result, _s) -> None:
    _count_comparison(tr, args, kwargs)


def _on_formula(tr: Tracer, args, kwargs, _result, _s) -> None:
    # A comparison is a call of compare, or a closed-form evaluation outside
    # it (verify_forward compares inline), so the count does not change when
    # one caller starts using the other.
    if not tr.inside("abscenter.compare"):
        _count_comparison(tr, args, kwargs)


def _on_oracle(tr: Tracer, args, kwargs, _result, _s) -> None:
    tr.counts["oracle.elements_scanned"] += _first_arg(args, kwargs, "t").order


def _on_subgroups(tr: Tracer, _args, _kwargs, found, _s) -> None:
    tr.counts["subgroups.found"] += len(found)


def _on_automorphisms(tr: Tracer, _args, _kwargs, found, _s) -> None:
    tr.counts["automorphisms.found"] += len(found)


def _on_verify_forward(tr: Tracer, _args, _kwargs, rows, _s) -> None:
    tr.counts["verify_forward.rows"] += len(rows)


def _on_main(tr: Tracer, _args, _kwargs, code, seconds) -> None:
    if code == EXIT_BOUND:
        tr.counts["cli.refused_s"] += seconds


_HOOKS = {
    "numtheory.find_prime_in_progression": _on_prime_search,
    "zm.cayley": _on_cayley,
    "aut.enumerate_family": _on_enumerate_family,
    "abscenter.compare": _on_compare,
    "abscenter.absolute_center_formula": _on_formula,
    "abscenter.absolute_center_oracle": _on_oracle,
    "genericgroup.subgroups": _on_subgroups,
    "genericgroup.automorphisms_bruteforce": _on_automorphisms,
    "realiser.verify_forward": _on_verify_forward,
    "cli.main": _on_main,
}
