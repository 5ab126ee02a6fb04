"""JSON-Schema (version 1) of every document the command line emits, and
the tests that validate emitted documents against them.

The schemas are plain dicts, so any JSON-Schema validator can check a
document with them.  One schema per document:

* `abscenter --json`: ABSCENTER_SCHEMA
* `aut --count-only --json`: AUT_COUNTS_SCHEMA
* `aut --json` (a family listing): AUT_FAMILY_SCHEMA
* `realise --json`: CERTIFICATE_SCHEMA
* `verify --json`: REPORT_SCHEMA
* `oracle-check --json`: ORACLE_CHECK_SCHEMA
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import jsonschema
import pytest

from zmcenter import aut, cli

DATA = pathlib.Path(__file__).parent / "data"

_COUNT = {"type": "integer", "minimum": 1}

_TRIPLE = {
    "type": "object",
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "r": {"type": "integer", "minimum": 1},
    },
    "required": ["m", "n", "r"],
    "additionalProperties": False,
}

CERTIFICATE_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "N": {"type": "integer", "minimum": 1},
        "factors": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "q": {"type": "integer", "minimum": 2},
                    "alpha": {"type": "integer", "minimum": 1},
                    "p": {"type": "integer", "minimum": 2},
                    "r": {"type": "integer", "minimum": 1},
                },
                "required": ["q", "alpha", "p", "r"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["schema", "N", "factors"],
    "additionalProperties": False,
}

_SUBGROUP_SCAN = {
    "type": "object",
    "properties": {
        "order": {"type": "integer", "minimum": 1},
        "l_order": {"type": "integer", "minimum": 1},
        "l_cyclic": {"type": "boolean"},
        "embeds_in_C_N": {"type": "boolean"},
    },
    "required": ["order", "l_order", "l_cyclic", "embeds_in_C_N"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "certificate": CERTIFICATE_SCHEMA,
        "forward_results": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "divisor": {"type": "integer", "minimum": 1},
                    "factors": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "triple": _TRIPLE,
                                "formula_order": {"type": "integer", "minimum": 1},
                                "oracle_order": {"type": ["integer", "null"]},
                                "agree": {"type": ["boolean", "null"]},
                            },
                            "required": ["triple", "formula_order", "oracle_order", "agree"],
                            "additionalProperties": False,
                        },
                    },
                    "formula_product": {"type": "integer", "minimum": 1},
                    "oracle_product": {"type": ["integer", "null"]},
                    "pass": {"type": "boolean"},
                },
                "required": [
                    "divisor", "factors", "formula_product", "oracle_product", "pass",
                ],
                "additionalProperties": False,
            },
        },
        "converse_results": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "properties": {
                    "factor_index": {"type": "integer", "minimum": 0},
                    "triple": _TRIPLE,
                    "target": {"type": "integer", "minimum": 1},
                    "subgroups": {"type": "array", "items": _SUBGROUP_SCAN},
                    "pass": {"type": "boolean"},
                },
                "required": ["factor_index", "triple", "target", "subgroups", "pass"],
                "additionalProperties": False,
            },
        },
        "full_product": {
            "type": ["object", "null"],
            "properties": {
                "order": {"type": "integer", "minimum": 1},
                "scanned": {"type": "boolean"},
                "reason": {"type": "string"},
                "subgroups": {"type": "array", "items": _SUBGROUP_SCAN},
                "pass": {"type": "boolean"},
            },
            "required": ["order", "scanned", "reason", "subgroups", "pass"],
            "additionalProperties": False,
        },
        "pass": {"type": "boolean"},
    },
    "required": [
        "schema", "certificate", "forward_results", "converse_results",
        "full_product", "pass",
    ],
    "additionalProperties": False,
}

ABSCENTER_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "triple": _TRIPLE,
        "d": {"type": "integer", "minimum": 1},
        "e": {"type": "integer", "minimum": 1},
        "formula_order": {"type": "integer", "minimum": 1},
        "generator": {"type": "string"},
        "center_order": {"type": "integer", "minimum": 1},
        "equals_center": {"type": "boolean"},
        "oracle_order": {"type": ["integer", "null"]},
        "agree": {"type": ["boolean", "null"]},
        "regime_guaranteed": {"type": "boolean"},
    },
    "required": [
        "schema", "triple", "d", "e", "formula_order", "generator",
        "center_order", "equals_center", "oracle_order", "agree",
        "regime_guaranteed",
    ],
    "additionalProperties": False,
}

AUT_COUNTS_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "triple": _TRIPLE,
        "aut": _COUNT,
        "inn": _COUNT,
        "out": _COUNT,
        "central": _COUNT,
        "ia": _COUNT,
        "complete": {"type": "boolean"},
        "regime_guaranteed": {"type": "boolean"},
    },
    "required": [
        "schema", "triple", "aut", "inn", "out", "central", "ia", "complete",
        "regime_guaranteed",
    ],
    "additionalProperties": False,
}

_EXPONENT = {"type": "integer", "minimum": 0}

AUT_FAMILY_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "triple": _TRIPLE,
        "family": {"enum": list(aut.FAMILIES)},
        "count": _COUNT,
        "triples": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"x1": _EXPONENT, "x2": _EXPONENT, "y": _EXPONENT},
                "required": ["x1", "x2", "y"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["schema", "triple", "family", "count", "triples"],
    "additionalProperties": False,
}

# oracle-check refuses a triple above the oracle bound, so the oracle
# always answers in an emitted document; the brute-force columns are null
# above the aut or table bound
ORACLE_CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "triple": _TRIPLE,
        "regime_guaranteed": {"type": "boolean"},
        "aut_formula": _COUNT,
        "aut_enumerated": _COUNT,
        "aut_bruteforce": {"type": ["integer", "null"], "minimum": 1},
        "aut_sets_match": {"type": ["boolean", "null"]},
        "l_formula": _COUNT,
        "l_oracle": _COUNT,
        "l_bruteforce": {"type": ["integer", "null"], "minimum": 1},
        "agree": {"type": "boolean"},
    },
    "required": [
        "schema", "triple", "regime_guaranteed", "aut_formula", "aut_enumerated",
        "aut_bruteforce", "aut_sets_match", "l_formula", "l_oracle", "l_bruteforce",
        "agree",
    ],
    "additionalProperties": False,
}


def schema_of(argv: list[str]) -> dict:
    """The schema of the document `zmcenter *argv` writes."""
    command = argv[0]
    if command == "aut":
        return AUT_COUNTS_SCHEMA if "--count-only" in argv else AUT_FAMILY_SCHEMA
    return {
        "abscenter": ABSCENTER_SCHEMA,
        "realise": CERTIFICATE_SCHEMA,
        "verify": REPORT_SCHEMA,
        "oracle-check": ORACLE_CHECK_SCHEMA,
    }[command]


# the golden files store only hashes of stdout, so each argv is run again
JSON_ARGVS = [
    g["argv"] for g in json.loads((DATA / "cli_golden.json").read_text()) if "--json" in g["argv"]
] + [["verify", str(n), "--converse", "--json"] for n in (1, 2, 6, 12)]


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=" ".join)
def test_emitted_document_matches_its_schema(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    if code in (cli.EXIT_USAGE, cli.EXIT_BOUND):
        assert text == ""
        return
    doc = json.loads(text)
    jsonschema.validate(doc, schema_of(argv))
    # the writers fill templates, so the text is checked against json's own
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
