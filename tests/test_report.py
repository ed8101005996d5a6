import csv
import io
import json

from nilpath.report import Detail, ParityReport, render_csv, render_json, render_text


def sample_report(elapsed=1.5):
    details = (
        Detail("first", 1, 1, "somewhere"),
        Detail("second", "even", "even", "elsewhere"),
        Detail("third", None, None, "nowhere"),
    )
    return ParityReport.from_details(
        "demo", {"n": 7, "flag": True}, details, elapsed
    )


class TestParityReport:
    def test_verdict_pass_when_all_rows_match(self):
        assert sample_report().verdict == "pass"
        assert sample_report().passed

    def test_verdict_fail_on_any_mismatch(self):
        report = ParityReport.from_details(
            "demo", {}, [Detail("a", 1, 1, ""), Detail("b", 1, 2, "")], 0.0
        )
        assert report.verdict == "fail"
        assert not report.passed

    def test_renamed_keeps_everything_else(self):
        renamed = sample_report().renamed("other")
        assert renamed.command == "other"
        assert renamed.details == sample_report().details

    def test_with_elapsed(self):
        assert sample_report().with_elapsed(9.0).elapsed_ms == 9.0

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
        report = ParityReport.from_details(
            "demo", {}, [Detail("pair", (1, 2), (1, 2), "")]
        )
        row = json.loads(render_json(report))["details"][0]
        assert row["expected"] == row["observed"] == "(1, 2)"

    def test_text_marks_missing_parameters(self):
        report = ParityReport.from_details("demo", {}, [Detail("a", 1, 1, "")])
        assert "parameters: (none)" in render_text(report)

    def test_csv_shape(self):
        rows = list(csv.reader(io.StringIO(render_csv(sample_report()))))
        assert rows[0] == ["check", "expected", "observed", "provenance"]
        assert len(rows) == 4
        assert rows[1][0] == "first"

    def test_csv_renders_none_as_word(self):
        rows = list(csv.reader(io.StringIO(render_csv(sample_report()))))
        assert rows[3][1] == "none"
