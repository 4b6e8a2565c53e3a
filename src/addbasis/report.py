"""Machine-readable reports: canonical JSON, schema validation, CSV rows.

Result fields come from the report dataclasses through ``jsonable``, the one
place that writes a ratio field as ``p/q`` plus a ``<field>_decimal``
sibling.  The schemas list every key a result may carry, so a new report
field fails self-validation until its schema names it.  Keys are sorted, so
identical inputs give byte-identical reports except for ``timing_ms``.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
from fractions import Fraction
from typing import Any, Iterable

import jsonschema

SCHEMA_VERSION = "1"


def frac_decimal(value: Fraction) -> str:
    return format(float(value), ".10g")


def jsonable(value: Any) -> Any:
    """A dataclass as a dict of its fields in order, each ``Fraction`` field as
    ``p/q`` plus a ``<field>_decimal`` sibling; a tuple or list as a list;
    anything else unchanged."""
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    if not dataclasses.is_dataclass(value):
        return value
    out: dict[str, Any] = {}
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if type(item) is Fraction:
            out[field.name], out[f"{field.name}_decimal"] = str(item), frac_decimal(item)
        else:
            out[field.name] = jsonable(item)
    return out


def canonical_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_NAT = {"type": "integer", "minimum": 0}
_INT = {"type": "integer"}
_BOOL = {"type": "boolean"}
_STR = {"type": "string"}
# \Z, not $: jsonschema applies the pattern with re.search, where $ also
# matches before a trailing newline
_RATIO = {
    "type": "string",
    "pattern": r"^(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z",
    "format": "reduced-ratio",
}
_NAT_OR_NULL = {"anyOf": [_NAT, {"type": "null"}]}

_DENSITY_ROW = {
    "type": "object",
    "required": ["k", "n", "count", "ratio", "ratio_decimal"],
    "properties": {
        "k": _NAT,
        "n": _NAT,
        "count": _NAT,
        "ratio": _RATIO,
        "ratio_decimal": _STR,
    },
    "additionalProperties": False,
}


def _obj(properties: dict[str, Any]) -> dict:
    return {
        "type": "object",
        "required": sorted(properties),
        "properties": properties,
        "additionalProperties": False,
    }


RESULT_SCHEMAS: dict[str, dict] = {
    "sumset": _obj(
        {
            "set": _STR,
            "h": _NAT,
            "bound": _NAT,
            "popcount": _NAT,
            "full_coverage": _BOOL,
            "members": {"type": "array", "items": _NAT},
            "members_truncated": _BOOL,
            "gaps": {"type": "array", "items": _NAT},
            "gaps_truncated": _BOOL,
            "limit": _NAT_OR_NULL,
        }
    ),
    "order": _obj(
        {
            "set": _STR,
            "bound": _NAT,
            "h_max": _NAT,
            "upper": _NAT_OR_NULL,
            "lower": _NAT,
            "witness": _NAT_OR_NULL,
            "witness_fold": _NAT_OR_NULL,
            "certified_lower": _BOOL,
            "zero_in_set": _BOOL,
            "coverage_label": _STR,
            "scan": {
                "type": "array",
                "items": _obj(
                    {"h": _NAT, "covered": _BOOL, "first_gap": _NAT_OR_NULL}
                ),
            },
        }
    ),
    "density": _obj(
        {
            "set": _STR,
            "t": _NAT,
            "subseq": _STR,
            "start": _NAT,
            "terms": _NAT,
            "rows": {"type": "array", "items": _DENSITY_ROW},
            "min_ratio": _RATIO,
            "max_ratio": _RATIO,
        }
    ),
    "stability": _obj(
        {
            "set": _STR,
            "added": {"type": "array", "items": _NAT},
            "h": _NAT,
            "probe_fold": _NAT,
            "family": _STR,
            "start": _NAT,
            "terms": _NAT,
            "bound": _NAT,
            "verdicts": {
                "type": "array",
                "items": _obj({"k": _NAT, "n": _NAT, "in_sumset": _BOOL}),
            },
            "survivors": {"type": "array", "items": _NAT},
            "conclusion": _STR,
        }
    ),
    "probe": _obj(
        {
            "set": _STR,
            "h": _NAT,
            "subseq": _STR,
            "start": _NAT,
            "terms": _NAT,
            "h2_fold": _NAT,
            "h1_fold": _NAT,
            "h2_rows": {"type": "array", "items": _DENSITY_ROW},
            "h1_rows": {"type": "array", "items": _DENSITY_ROW},
            "h2_ratio_trending_to_zero": _BOOL,
            "h2_tail_max": _RATIO,
            "h2_tail_max_decimal": _STR,
            "h1_ratio_max": _RATIO,
            "h1_ratio_max_decimal": _STR,
            "h1_strictly_below_one": _BOOL,
            "note": _STR,
        }
    ),
    "verify-counterexample": _obj(
        {
            "claims": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "status", "detail"],
                    "properties": {
                        "name": _STR,
                        "status": {"enum": ["PASS", "FAIL"]},
                        "detail": {"type": "object"},
                    },
                    "additionalProperties": False,
                },
            },
            "overall": {"enum": ["PASS", "FAIL"]},
        }
    ),
}


def report_schema(command: str) -> dict:
    """The whole report of one command: envelope and that command's result."""
    return _obj(
        {
            "schema_version": {"const": SCHEMA_VERSION},
            "command": {"const": command},
            "inputs": {"type": "object"},
            "result": RESULT_SCHEMAS[command],
            "timing_ms": {"type": "number", "minimum": 0},
        }
    )


_FORMATS = jsonschema.FormatChecker(formats=())


@_FORMATS.checks("reduced-ratio", raises=ValueError)
def _is_reduced_ratio(text: object) -> bool:
    """``p/q`` with ``q > 1`` and ``gcd(p, q) = 1``; the pattern checks the digits."""
    if not isinstance(text, str):
        return True
    p, slash, q = text.partition("/")
    return not slash or (int(q) > 1 and math.gcd(int(p), int(q)) == 1)


@functools.cache
def _validator(command: str) -> jsonschema.protocols.Validator:
    # built on first use, so the meta-schema check runs once per command and
    # process rather than once per report, and never at import
    schema = report_schema(command)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema, format_checker=_FORMATS)


def validate_report(report: dict[str, Any]) -> None:
    """Raise jsonschema.ValidationError if the report violates its schema."""
    command = report.get("command")
    if not isinstance(command, str) or command not in RESULT_SCHEMAS:
        raise jsonschema.ValidationError(f"unknown command {command!r}")
    _validator(command).validate(report)


def _csv_text(header: list[str], rows: Iterable[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def rows_csv(report: dict[str, Any]) -> str:
    """Rows-only CSV rendering of a report, for plotting and spreadsheets."""
    command = report["command"]
    result = report["result"]
    if command == "density":
        return _csv_text(
            ["k", "n", "count", "ratio"],
            ([r["k"], r["n"], r["count"], r["ratio_decimal"]] for r in result["rows"]),
        )
    if command == "probe":
        rows = [
            [result["h2_fold"], r["k"], r["n"], r["count"], r["ratio_decimal"]]
            for r in result["h2_rows"]
        ] + [
            [result["h1_fold"], r["k"], r["n"], r["count"], r["ratio_decimal"]]
            for r in result["h1_rows"]
        ]
        return _csv_text(["fold", "k", "n", "count", "ratio"], rows)
    if command == "stability":
        return _csv_text(
            ["k", "n", "in_sumset"],
            (
                [v["k"], v["n"], str(v["in_sumset"]).lower()]
                for v in result["verdicts"]
            ),
        )
    if command == "order":
        return _csv_text(
            ["h", "covered", "first_gap"],
            (
                [r["h"], str(r["covered"]).lower(), "" if r["first_gap"] is None else r["first_gap"]]
                for r in result["scan"]
            ),
        )
    if command == "sumset":
        rows = [["member", n] for n in result["members"]]
        rows += [["gap", n] for n in result["gaps"]]
        return _csv_text(["kind", "n"], rows)
    if command == "verify-counterexample":
        return _csv_text(
            ["claim", "status"],
            ([c["name"], c["status"]] for c in result["claims"]),
        )
    raise ValueError(f"no CSV rendering for command {command!r}")


def plot_data_lines(report: dict[str, Any]) -> str:
    """(k, n, ratio) triples, one per line, gnuplot-style."""
    command = report["command"]
    result = report["result"]
    if command == "density":
        lines = [f"{r['k']} {r['n']} {r['ratio_decimal']}" for r in result["rows"]]
    elif command == "probe":
        lines = [f"# fold {result['h2_fold']}"]
        lines += [f"{r['k']} {r['n']} {r['ratio_decimal']}" for r in result["h2_rows"]]
        lines += ["", f"# fold {result['h1_fold']}"]
        lines += [f"{r['k']} {r['n']} {r['ratio_decimal']}" for r in result["h1_rows"]]
    else:
        raise ValueError(f"no plot data for command {command!r}")
    return "\n".join(lines) + "\n"
