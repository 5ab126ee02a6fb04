"""Replay of `verify N --converse [--json]` for N = 1..30 against a
recorded golden file: exit code, SHA-256 of stdout and the stderr text
must match byte for byte.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_converse_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from zmcenter import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "converse_golden.json"
N_MAX = 30


def _argvs() -> list[list[str]]:
    return [
        ["verify", str(n), "--converse", *flag]
        for n in range(1, N_MAX + 1)
        for flag in (["--json"], [])
    ]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def test_converse_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == _argvs()
    mismatches = [g["argv"] for g in golden if _run(g["argv"]) != g]
    assert mismatches == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(a) for a in _argvs()], indent=1) + "\n")
