"""The one serializer of the JSON documents the package emits.

Every document carries ``"schema": 1``; the JSON-Schema of each lives in
``tests/test_json_schemas.py``, which validates the emitted documents
against it.
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

