"""Deterministic serialization of scenario reports.

The same report always serializes to the same bytes; wall time is kept on
the in-memory record but excluded from the emitted formats.
"""

from __future__ import annotations

import json
import sys

from .groups import HORIZON


def _is_fraction(value) -> bool:
    """isinstance(value, Fraction), without importing the `fractions` a Fraction needs."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def fmt(value) -> str:
    """Render an exact value as stable text: integers plain, rationals p/q."""
    if value is HORIZON:
        return "HORIZON"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    return str(value)


def _jsonable(value):
    if value is HORIZON or _is_fraction(value) or isinstance(value, tuple):
        return fmt(value)
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def report_to_json(report) -> str:
    payload = {
        "scenario": report.name,
        "parameters": _jsonable(report.parameters),
        "rows": [_jsonable(r) for r in report.rows],
        "assertions": [
            {
                "description": a.description,
                "expected": _jsonable(a.expected),
                "observed": _jsonable(a.observed),
                "provenance": a.provenance,
                "pass": a.passed,
            }
            for a in report.assertions
        ],
        "truncations": _jsonable(report.truncations),
        "all_pass": report.all_passed,
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_tsv(report) -> str:
    lines = ["section\tkey\texpected\tobserved\tprovenance\tpass"]
    lines.append(f"scenario\t{report.name}\t\t\t\t")
    for key in report.parameters:
        lines.append(f"param\t{key}\t\t{fmt(report.parameters[key])}\t\t")
    for row in report.rows:
        cells = "; ".join(f"{k}={fmt(v)}" for k, v in row.items())
        lines.append(f"row\t{cells}\t\t\t\t")
    for a in report.assertions:
        lines.append(
            "assertion\t{d}\t{e}\t{o}\t{p}\t{ok}".format(
                d=a.description,
                e=fmt(a.expected),
                o=fmt(a.observed),
                p=a.provenance,
                ok="pass" if a.passed else "FAIL",
            )
        )
    for key in report.truncations:
        lines.append(f"truncation\t{key}\t\t{fmt(report.truncations[key])}\t\t")
    return "\n".join(lines) + "\n"
