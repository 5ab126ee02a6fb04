"""Versioned JSON schemas for the documents the package emits, and the one
serializer that writes them.

Schema version 1.  Kept as plain dicts so tests (and downstream consumers)
can validate emitted documents with any JSON-Schema validator.
"""

import json


def to_json(doc: dict) -> str:
    """The byte-stable text of an emitted document: sorted keys, two-space
    indent, one trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
