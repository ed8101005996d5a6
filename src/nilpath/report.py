"""Structured pass/fail reports with text, JSON, and CSV rendering.

A report is a command's name, its parameters, a tuple of detail rows, each
comparing an expected value against an observed one, and the elapsed time.
The verdict is not stored: it is read from the rows, "pass" exactly when
every row agrees. The command line builds each report once, with the
constructor, after its handler returns the rows. Rendering is
deterministic: the same report content always produces the same bytes,
except for the elapsed-time field. The renderers write every integer in
full, however many digits it has. ``render_json`` writes its layout
directly; ``json.dumps(to_json_dict(), indent=2)`` is its test oracle.
"""

from __future__ import annotations

import csv
import functools
import io
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

__all__ = ["Detail", "ParityReport", "render_text", "render_json", "render_csv"]


class Detail(NamedTuple):
    """One checked fact: a name, what was expected, what was seen, and why."""

    check: str
    expected: Any
    observed: Any
    provenance: str

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


class ParityReport(NamedTuple):
    """A command's rows, serializable for machine consumers. The verdict is
    read from the rows, so no report can say "pass" over a failing one."""

    command: str
    parameters: dict[str, Any]
    details: tuple[Detail, ...]
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(d.passed for d in self.details)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

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


def _in_full(function: Callable[..., Any]) -> Callable[..., Any]:
    """``function`` with the int/text digit limit of Python 3.10.7 and later
    (4300 digits) lifted for each call and restored after it, so that long
    exact counts render in full. A plain wrapper: it runs once per report,
    and a context manager's ``with`` block costs several times as much."""

    @functools.wraps(function)
    def in_full(*args: Any, **kwargs: Any) -> Any:
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            return function(*args, **kwargs)
        limit = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            return function(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)

    return in_full


_HEADER = ("check", "expected", "observed", "provenance")


def _rows(report: ParityReport) -> list[tuple[str, str, str, str]]:
    """The header, then each detail as its four cells of text."""
    return [_HEADER, *((d.check, _cell(d.expected), _cell(d.observed), d.provenance)
                       for d in report.details)]


@_in_full
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
    rows = _rows(report)
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, tuple("-" * w for w in widths))  # under the header
    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(cells)).rstrip()
    lines.extend(map(fmt, rows))
    return "\n".join(lines) + "\n"


_WORDS = {None: "null", True: "true", False: "false"}
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value: Any) -> str:
    """One value as json spells it, any other type as its text. Not
    ``json.dumps``: with ``indent`` it runs its slow pure-Python encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _WORDS[value]
    if isinstance(value, (int, float)):
        text = (int if isinstance(value, int) else float).__repr__(value)
        return _FLOATS.get(text, text)
    return encode_basestring_ascii(str(value))


_ROW = (
    '    {{\n      "check": {},\n      "expected": {},\n'
    '      "observed": {},\n      "provenance": {}\n    }}'
)
_REPORT = (
    '{{\n  "command": {},\n  "parameters": {},\n  "verdict": {},\n'
    '  "details": {},\n  "elapsed_ms": {}\n}}\n'
)


@_in_full
def render_json(report: ParityReport) -> str:
    """One JSON object per report, keys in a fixed order, indented by two."""
    params = ",\n".join(f"    {_scalar(k)}: {_scalar(v)}" for k, v in report.parameters.items())
    rows = ",\n".join(
        _ROW.format(
            _scalar(d.check), _scalar(d.expected), _scalar(d.observed), _scalar(d.provenance)
        )
        for d in report.details
    )
    return _REPORT.format(
        _scalar(report.command),
        "{\n" + params + "\n  }" if params else "{}",
        _scalar(report.verdict),
        "[\n" + rows + "\n  ]" if rows else "[]",
        _scalar(report.elapsed_ms),
    )


@_in_full
def render_csv(report: ParityReport) -> str:
    """Detail rows as CSV: check, expected, observed, provenance."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_rows(report))
    return buf.getvalue()
