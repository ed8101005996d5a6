"""Structured pass/fail reports with text, JSON, and CSV rendering.

A report is a list of detail rows, each comparing an expected value against
an observed one; the verdict is "pass" exactly when every row agrees.
Rendering is deterministic: the same report content always produces the
same bytes, except for the elapsed-time field.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
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
        f"verdict:    {report.verdict.upper()}  ({len(report.details)} check"
        f"{'s' * (len(report.details) != 1)}, {report.elapsed_ms:.1f} ms)",
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


def _json(value: Any, indent: str = "\n  ") -> str:
    """``json.dumps(value, indent=2)``, written directly: with ``indent``,
    json falls back to its pure-Python encoder, which costs more than most
    checks. Strings and numbers are spelled as json spells them."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):
        text = (int if isinstance(value, int) else float).__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    # indent starts each item of value; its own brackets sit two spaces left
    if isinstance(value, dict):
        items = [f"{_json(k)}: {_json(v, indent + '  ')}" for k, v in value.items()]
        return f"{{{indent}{(',' + indent).join(items)}{indent[:-2]}}}" if items else "{}"
    items = [_json(v, indent + "  ") for v in value]
    return f"[{indent}{(',' + indent).join(items)}{indent[:-2]}]" if items else "[]"


def render_json(report: ParityReport) -> str:
    """One JSON object per report, keys in a fixed order."""
    return _json(report.to_json_dict()) + "\n"


def render_csv(report: ParityReport) -> str:
    """Detail rows as CSV: check, expected, observed, provenance."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "expected", "observed", "provenance"])
    for d in report.details:
        writer.writerow([d.check, _cell(d.expected), _cell(d.observed), d.provenance])
    return buf.getvalue()
