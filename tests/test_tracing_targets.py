"""Every name the layer tracer wraps must exist in the package.

The benchmark's tracer (`perfbench/tracing.py`) patches the functions and
methods listed in its `TARGETS`.  Its own tests live outside `tests/`, so
without this check a change could delete or rename a traced name and
still pass here.  Its hooks also read some targets' first argument by
name, so a renamed or reordered parameter would zero a per-layer count
without an error; the second test pins those names.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = []
    for module_name, attr in tracing.TARGETS:
        owner = importlib.import_module(f"zmcenter.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracing.TARGETS and missing == []


# (module, attribute, first parameter) for every first argument a tracing
# hook reads through `_first_arg`
HOOKED_FIRST_ARGS = (
    ("numtheory", "find_prime_in_progression", "q_pow"),
    ("abscenter", "compare", "t"),
    ("abscenter", "absolute_center_formula", "t"),
    ("abscenter", "absolute_center_oracle", "t"),
    ("aut", "enumerate_family", "t"),
    ("zm", "ZmTriple.cayley", "self"),
)


def test_hooked_first_arguments_keep_their_names():
    wrong = []
    for module_name, attr, name in HOOKED_FIRST_ARGS:
        owner = importlib.import_module(f"zmcenter.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        first = next(iter(inspect.signature(owner).parameters))
        if first != name:
            wrong.append(f"{module_name}.{attr}({first}, ...) where the tracer reads {name}")
    assert wrong == []
