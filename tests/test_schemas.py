import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zmcenter import cli, realiser, schemas
from zmcenter.zm import iter_valid_triples

VALID_TRIPLES = list(iter_valid_triples(2000))


def emitted(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def assert_canonical(text: str) -> None:
    """The text is what json writes for the document it reads back as."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestCanonicalForm:
    @given(st.sampled_from(VALID_TRIPLES))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_abscenter_on_valid_triples(self, t):
        code, text = emitted(["abscenter", str(t.m), str(t.n), str(t.r), "--json"])
        assert code == cli.EXIT_OK
        assert_canonical(text)

    @given(st.integers(min_value=1, max_value=2000), st.booleans())
    # converse reports with no factor, one factor, and two factors whose
    # product is scanned too; nearly every other N is refused
    @example(1, True)
    @example(4, True)
    @example(12, True)
    @settings(max_examples=150, deadline=None)
    def test_verify(self, n, converse):
        argv = ["verify", str(n), "--json"] + (["--converse"] if converse else [])
        code, text = emitted(argv)
        if code == cli.EXIT_BOUND:
            assert converse and text == ""
            return
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL)
        assert_canonical(text)


class TestSharedFactorRecords:
    def test_each_distinct_factor_record_formatted_once(self, monkeypatch):
        # 840 = 2^3 * 3 * 5 * 7: 32 divisors of 4 factor records each, drawn
        # from 4 + 2 + 2 + 2 distinct (factor, beta) comparisons
        report = realiser.verify(realiser.realise(840))
        formatted = []
        record = schemas.factor_record

        def counted(c):
            formatted.append(c)
            return record(c)

        monkeypatch.setattr(schemas, "factor_record", counted)
        schemas.report(report)
        assert len(formatted) == len({id(c) for c in formatted}) == 10
        assert {id(c) for row in report.forward_results for c in row.factors} == {
            id(c) for c in formatted
        }

    def test_text_reads_back_as_the_report(self):
        report = realiser.verify(realiser.realise(840))
        text = schemas.report(report)
        assert_canonical(text + "\n")
        doc = json.loads(text)
        assert [row["divisor"] for row in doc["forward_results"]] == [
            row.divisor for row in report.forward_results
        ]
        assert [
            [(f["triple"]["m"], f["triple"]["n"], f["formula_order"]) for f in row["factors"]]
            for row in doc["forward_results"]
        ] == [
            [(c.triple.m, c.triple.n, c.formula_order) for c in row.factors]
            for row in report.forward_results
        ]
