import csv
import io
import json
import sys
from dataclasses import fields
from http import HTTPStatus

from hypothesis import example, given
from hypothesis import strategies as st

from nilpath.report import Detail, ParityReport, _in_full, render_csv, render_json, render_text
from nilpath.walks import count_walks_exact


def sample_report(elapsed=1.5):
    details = (
        Detail("first", 1, 1, "somewhere"),
        Detail("second", "even", "even", "elsewhere"),
        Detail("third", None, None, "nowhere"),
    )
    return ParityReport("demo", {"n": 7, "flag": True}, details, elapsed)


class TestParityReport:
    def test_verdict_pass_when_all_rows_match(self):
        assert sample_report().verdict == "pass"
        assert sample_report().passed

    def test_verdict_fail_on_any_mismatch(self):
        report = ParityReport("demo", {}, (Detail("a", 1, 1, ""), Detail("b", 1, 2, "")))
        assert report.verdict == "fail"
        assert not report.passed

    def test_fields_in_order(self):
        assert [f.name for f in fields(ParityReport)] == [
            "command", "parameters", "details", "elapsed_ms"
        ]
        assert ParityReport("demo", {}, ()).elapsed_ms == 0.0

    def test_json_dict_key_order(self):
        d = sample_report().to_json_dict()
        assert list(d) == ["command", "parameters", "verdict", "details", "elapsed_ms"]
        assert list(d["details"][0]) == ["check", "expected", "observed", "provenance"]


class TestRenderers:
    def test_text_contains_rows_and_verdict(self):
        text = render_text(sample_report())
        assert "demo" in text
        assert "PASS" in text
        assert "first" in text and "elsewhere" in text

    def test_text_is_deterministic_apart_from_elapsed(self):
        a = render_text(sample_report(elapsed=1.0))
        b = render_text(sample_report(elapsed=2.0))
        diff = [
            (la, lb) for la, lb in zip(a.splitlines(), b.splitlines()) if la != lb
        ]
        assert len(diff) == 1 and "ms" in diff[0][0]

    def test_json_round_trip(self):
        parsed = json.loads(render_json(sample_report()))
        assert parsed["command"] == "demo"
        assert parsed["verdict"] == "pass"
        assert parsed["parameters"] == {"n": 7, "flag": True}
        assert len(parsed["details"]) == 3

    def test_json_renders_other_values_as_text(self):
        report = ParityReport("demo", {}, (Detail("pair", (1, 2), (1, 2), ""),))
        row = json.loads(render_json(report))["details"][0]
        assert row["expected"] == row["observed"] == "(1, 2)"

    def test_text_counts_one_check_in_the_singular(self):
        one = ParityReport("demo", {}, (Detail("a", 1, 1, ""),), 2.0)
        assert "verdict:    PASS  (1 check, 2.0 ms)" in render_text(one).splitlines()
        assert "(3 checks, 1.5 ms)" in render_text(sample_report())
        none = ParityReport("demo", {}, ())
        assert "(0 checks, 0.0 ms)" in render_text(none)

    def test_text_marks_missing_parameters(self):
        report = ParityReport("demo", {}, (Detail("a", 1, 1, ""),))
        assert "parameters: (none)" in render_text(report)

    def test_csv_shape(self):
        rows = list(csv.reader(io.StringIO(render_csv(sample_report()))))
        assert rows[0] == ["check", "expected", "observed", "provenance"]
        assert len(rows) == 4
        assert rows[1][0] == "first"

    def test_csv_renders_none_as_word(self):
        rows = list(csv.reader(io.StringIO(render_csv(sample_report()))))
        assert rows[3][1] == "none"

    def test_every_digit_of_a_long_count(self):
        # 2^14999 walks: 4516 digits, past the 4300-digit default limit
        count = count_walks_exact(3, 1, 1, 30000)
        report = ParityReport("walk-count", {"k": 30000}, (Detail("walks", count, count, ""),))
        digits = _in_full(str)(count)
        assert len(digits) == 4516
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        for render in (render_text, render_json, render_csv):
            assert render(report).count(digits) == 2, render.__name__
            assert get_limit() == limit, render.__name__


# any text, lone surrogates included: json escapes each of them
TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x1f\x7f\u2028\ufeff'),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
    )
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # nan, inf and -0.0 included
    TEXT,
    st.integers().map(lambda i: i * 10**4301),  # beyond the int-to-text digit limit
    st.tuples(st.integers()),  # rendered as its text
    st.sampled_from(HTTPStatus),  # an int subclass, spelled as its int value
)
# a row whose observed value is, as often as not, its expected one
ROWS = st.builds(
    lambda check, expected, other, agree, provenance: Detail(
        check, expected, expected if agree else other, provenance
    ),
    TEXT, LEAVES, LEAVES, st.booleans(), TEXT,
)
REPORTS = st.builds(
    ParityReport,
    TEXT,
    st.dictionaries(TEXT, LEAVES),
    st.lists(ROWS).map(tuple),
    st.floats(),
)


class TestJsonWriter:
    """``render_json`` writes the layout itself; ``json.dumps`` is its oracle."""

    @given(REPORTS)
    @example(ParityReport("", {}, ()))
    @example(ParityReport("demo", {}, (Detail("a", None, None, ""),), float("nan")))
    @example(ParityReport("\ud800", {"x": float("-inf")}, (), float("inf")))
    def test_bytes_equal_json_dumps(self, report):
        expected = _in_full(json.dumps)(report.to_json_dict(), indent=2) + "\n"
        assert render_json(report) == expected

    def test_sample_report_layout(self):
        assert render_json(sample_report()).splitlines()[:5] == [
            "{",
            '  "command": "demo",',
            '  "parameters": {',
            '    "n": 7,',
            '    "flag": true',
        ]


class TestVerdict:
    """The verdict is read from the rows, and every renderer shows it."""

    @given(REPORTS)
    @example(ParityReport("demo", {}, (Detail("a", float("nan"), float("nan"), ""),)))
    def test_pass_exactly_when_every_row_agrees(self, report):
        agree = all(d.expected == d.observed for d in report.details)
        assert report.verdict == ("pass" if agree else "fail")
        assert report.passed == agree
        # the command and parameters may hold any text, line breaks too
        assert f"\nverdict:    {report.verdict.upper()}  (" in render_text(report)
        assert _in_full(json.loads)(render_json(report))["verdict"] == report.verdict
