"""Every name the layer tracer wraps must exist in the package.

The benchmark's tracer (`perfbench/tracing.py`) patches the functions and
methods listed in its `TARGETS`.  Its own tests live outside `tests/`, so
without this check a change could delete or rename a traced name and
still pass here.
"""

from __future__ import annotations

import importlib
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
