import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcenter import realiser, schemas

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F))
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(), children, max_size=3)
    ),
    max_leaves=25,
)


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestToJson:
    @given(trees)
    @settings(max_examples=500)
    def test_equals_json_dumps(self, doc):
        assert schemas.to_json(doc) == reference(doc)

    @given(trees, trees)
    @settings(max_examples=300)
    def test_one_object_at_several_depths(self, shared, other):
        doc = {"a": shared, "b": [shared, {"c": shared, "d": (other, shared)}], "e": other}
        assert schemas.to_json(doc) == reference(doc)

    def test_empty_containers_and_tuples(self):
        doc = {"a": {}, "b": [], "c": (), "d": (1, (2, [])), "": [{}]}
        assert schemas.to_json(doc) == reference(doc)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            schemas.to_json({"x": {1, 2}})

    @pytest.mark.parametrize("key", [True, False, None, -7, 2.5, float("nan")])
    def test_scalar_keys_written_as_json_writes_them(self, key):
        doc = {"outer": {key: [key]}}
        assert schemas.to_json(doc) == reference(doc)

    def test_unsupported_key_raises(self):
        with pytest.raises(TypeError):
            schemas.to_json({(1, 2): 3})


class TestSharedFactorRows:
    def test_one_dict_per_distinct_factor_row(self):
        # 840 = 2^3 * 3 * 5 * 7: 32 divisors of 4 factor rows each, drawn
        # from 4 + 2 + 2 + 2 distinct (factor, beta) rows
        report = realiser.verify(realiser.realise(840))
        doc = report.as_json_dict()
        pairs = {
            (id(fr), id(fdoc))
            for row, row_doc in zip(report.forward_results, doc["forward_results"])
            for fr, fdoc in zip(row.factors, row_doc["factors"], strict=True)
        }
        assert len(pairs) == len({r for r, _ in pairs}) == len({d for _, d in pairs}) == 10

    def test_text_reads_back_as_the_document(self):
        report = realiser.verify(realiser.realise(840))
        doc = report.as_json_dict()
        text = schemas.to_json(doc)
        assert json.loads(text) == doc
        assert text == reference(doc)
