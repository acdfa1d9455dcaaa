"""Deterministic serialization of scenario reports.

The same report always serializes to the same bytes; wall time is kept on
the in-memory record but excluded from the emitted formats.  The JSON keeps
json.dumps(indent=2)'s layout and ASCII escapes (`python -m json.tool --indent
2` reproduces it) but is written here: with `indent`, json's encoder is Python.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii

from .groups import HORIZON


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


def _json(value, indent: str = "\n") -> str:
    """`value` in json.dumps(indent=2)'s layout; `indent` precedes its closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        items = [encode_basestring_ascii(str(k)) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    # isinstance(value, Fraction), without importing `fractions` to ask.
    fraction = getattr(sys.modules.get("fractions"), "Fraction", ())
    if value is HORIZON or isinstance(value, (tuple, fraction)):
        return encode_basestring_ascii(fmt(value))
    return json.dumps(value)


def report_to_json(report) -> str:
    payload = {
        "scenario": report.name,
        "parameters": report.parameters,
        "rows": report.rows,
        "assertions": [
            {
                "description": a.description,
                "expected": a.expected,
                "observed": a.observed,
                "provenance": a.provenance,
                "pass": a.passed,
            }
            for a in report.assertions
        ],
        "truncations": report.truncations,
        "all_pass": report.all_passed,
    }
    return _json(payload) + "\n"


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
