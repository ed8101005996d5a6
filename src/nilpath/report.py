"""Structured pass/fail reports with text, JSON, and CSV rendering.

A report is a list of detail rows, each comparing an expected value against
an observed one; the verdict is "pass" exactly when every row agrees.
Rendering is deterministic: the same report content always produces the
same bytes, except for the elapsed-time field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

__all__ = ["Detail", "ParityReport", "render_text", "render_json", "render_csv"]


@dataclass(frozen=True)
class Detail:
    """One checked fact: a name, what was expected, what was seen, and why."""

    check: str
    expected: Any
    observed: Any
    provenance: str

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


@dataclass(frozen=True)
class ParityReport:
    """Verdict over a batch of checks, serializable for machine consumers."""

    command: str
    parameters: dict[str, Any]
    verdict: str
    details: tuple[Detail, ...]
    elapsed_ms: float

    @classmethod
    def from_details(
        cls,
        command: str,
        parameters: Mapping[str, Any],
        details: Iterable[Detail],
        elapsed_ms: float = 0.0,
    ) -> "ParityReport":
        rows = tuple(details)
        verdict = "pass" if all(d.passed for d in rows) else "fail"
        return cls(command, dict(parameters), verdict, rows, elapsed_ms)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def renamed(self, command: str) -> "ParityReport":
        return replace(self, command=command)

    def with_elapsed(self, elapsed_ms: float) -> "ParityReport":
        return replace(self, elapsed_ms=elapsed_ms)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "parameters": {k: _plain(v) for k, v in self.parameters.items()},
            "verdict": self.verdict,
            "details": [
                {
                    "check": d.check,
                    "expected": _plain(d.expected),
                    "observed": _plain(d.observed),
                    "provenance": d.provenance,
                }
                for d in self.details
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def _plain(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _cell(value: Any) -> str:
    if value is None:
        return "none"
    return str(value)


def render_text(report: ParityReport) -> str:
    """Human-readable table."""
    lines = [
        f"command:    {report.command}",
        "parameters: "
        + (
            ", ".join(f"{k}={_cell(v)}" for k, v in report.parameters.items())
            or "(none)"
        ),
        f"verdict:    {report.verdict.upper()}"
        f"  ({len(report.details)} checks, {report.elapsed_ms:.1f} ms)",
        "",
    ]
    header = ("check", "expected", "observed", "provenance")
    rows = [
        (d.check, _cell(d.expected), _cell(d.observed), d.provenance)
        for d in report.details
    ]
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(4)
    ]
    def fmt(cells: tuple[str, str, str, str]) -> str:
        return "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(cells)).rstrip()
    lines.append(fmt(header))
    lines.append(fmt(tuple("-" * w for w in widths)))
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"


def render_json(report: ParityReport) -> str:
    """One JSON object per report, keys in a fixed order."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def render_csv(report: ParityReport) -> str:
    """Detail rows as CSV: check, expected, observed, provenance."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "expected", "observed", "provenance"])
    for d in report.details:
        writer.writerow([d.check, _cell(d.expected), _cell(d.observed), d.provenance])
    return buf.getvalue()
