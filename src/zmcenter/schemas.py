"""Versioned JSON schemas for the documents the package emits, and the one
serializer that writes them.

Schema version 1.  Kept as plain dicts so tests (and downstream consumers)
can validate emitted documents with any JSON-Schema validator.
"""

import json
from json.encoder import encode_basestring_ascii as _quote


def to_json(doc: dict) -> str:
    r"""The byte-stable text of an emitted document, and the package's only
    serializer.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``:
    keys sorted, ``": "`` between key and value, items separated by ``",\n"``
    and two spaces of indent per level, ``{}`` and ``[]`` for empty
    containers, tuples written as lists, strings ASCII-escaped.  Unsupported
    types raise TypeError as in ``json.dumps``.

    ``json.dumps`` with an indent runs CPython's pure-Python encoder, so this
    writes the same text directly.  A container placed in the document more
    than once (the shared factor rows of a verification report) is formatted
    once per depth: its text is kept for the call under (id, depth), and the
    ids are stable because the document keeps every container alive.
    """
    memo: dict[tuple[int, int], str] = {}

    def value(obj, depth: int) -> str:
        if isinstance(obj, str):
            return _quote(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if isinstance(obj, (list, tuple, dict)):
            text = memo.get((id(obj), depth))
            if text is None:
                text = memo[id(obj), depth] = container(obj, depth)
            return text
        # floats and anything else: the scalar text does not depend on the
        # indent, and an unsupported type raises json's own TypeError
        return json.dumps(obj)

    def key(k) -> str:
        # json writes an int, float, bool or None key as its scalar text
        if isinstance(k, (list, tuple, dict)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
            )
        return value(k, 0)

    def container(obj, depth: int) -> str:
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = depth + 1
        sep = ",\n" + "  " * inner
        if isinstance(obj, dict):
            body = sep.join([
                f"{_quote(k) if isinstance(k, str) else _quote(key(k))}: {value(v, inner)}"
                for k, v in sorted(obj.items())
            ])
            return "{" + sep[1:] + body + "\n" + "  " * depth + "}"
        body = sep.join([value(item, inner) for item in obj])
        return "[" + sep[1:] + body + "\n" + "  " * depth + "]"

    return value(doc, 0) + "\n"


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
