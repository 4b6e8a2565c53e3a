"""Machine-readable reports: canonical JSON, shape validation, CSV rows.

Result fields come from the report dataclasses through ``jsonable``, the one
place that writes a ratio field as ``p/q`` plus a ``<field>_decimal``
sibling.  ``RESULT_SCHEMAS`` gives each command's result as a plain-Python
shape listing every key a result may carry, so a new report field fails
self-validation until its shape names it.  ``validate_report`` walks a whole
report against its shape and raises ``ReportError`` at the first mismatch,
with its path and rule; no JSON Schema library is needed at runtime.  Keys
are sorted, so identical inputs give byte-identical reports except for
``timing_ms``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re
from fractions import Fraction
from typing import Any, Iterable

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


def _natural(value: object) -> bool:
    return type(value) is int and value >= 0


def _nonnegative_number(value: object) -> bool:
    return type(value) in (int, float) and value >= 0


def _reduced_ratio(value: object) -> bool:
    """A natural ``p``, or ``p/q`` with ``q > 1`` and ``gcd(p, q) = 1``."""
    if type(value) is not str or not re.fullmatch(r"(0|[1-9][0-9]*)(/[1-9][0-9]*)?", value):
        return False
    p, slash, q = value.partition("/")
    return not slash or (int(q) > 1 and math.gcd(int(p), int(q)) == 1)


_NAT_OR_NULL = (_natural, None)
_DENSITY_ROW = {
    "k": _natural,
    "n": _natural,
    "count": _natural,
    "ratio": _reduced_ratio,
    "ratio_decimal": str,
}

# Shapes: a dict is an object with exactly its keys, a one-item list an array
# of that item, a tuple any one of its items, a type that exact type (so a
# bool is not an int), a function a named rule, and anything else itself.
RESULT_SCHEMAS: dict[str, dict] = {
    "sumset": {
        "set": str,
        "h": _natural,
        "bound": _natural,
        "popcount": _natural,
        "full_coverage": bool,
        "members": [_natural],
        "members_truncated": bool,
        "gaps": [_natural],
        "gaps_truncated": bool,
        "limit": _NAT_OR_NULL,
    },
    "order": {
        "set": str,
        "bound": _natural,
        "h_max": _natural,
        "upper": _NAT_OR_NULL,
        "lower": _natural,
        "witness": _NAT_OR_NULL,
        "witness_fold": _NAT_OR_NULL,
        "certified_lower": bool,
        "zero_in_set": bool,
        "coverage_label": str,
        "scan": [{"h": _natural, "covered": bool, "first_gap": _NAT_OR_NULL}],
    },
    "density": {
        "set": str,
        "t": _natural,
        "subseq": str,
        "start": _natural,
        "terms": _natural,
        "rows": [_DENSITY_ROW],
        "min_ratio": _reduced_ratio,
        "max_ratio": _reduced_ratio,
    },
    "stability": {
        "set": str,
        "added": [_natural],
        "h": _natural,
        "probe_fold": _natural,
        "family": str,
        "start": _natural,
        "terms": _natural,
        "bound": _natural,
        "verdicts": [{"k": _natural, "n": _natural, "in_sumset": bool}],
        "survivors": [_natural],
        "conclusion": str,
    },
    "probe": {
        "set": str,
        "h": _natural,
        "subseq": str,
        "start": _natural,
        "terms": _natural,
        "h2_fold": _natural,
        "h1_fold": _natural,
        "h2_rows": [_DENSITY_ROW],
        "h1_rows": [_DENSITY_ROW],
        "h2_ratio_trending_to_zero": bool,
        "h2_tail_max": _reduced_ratio,
        "h2_tail_max_decimal": str,
        "h1_ratio_max": _reduced_ratio,
        "h1_ratio_max_decimal": str,
        "h1_strictly_below_one": bool,
        "note": str,
    },
    "verify-counterexample": {
        "claims": [{"name": str, "status": ("PASS", "FAIL"), "detail": dict}],
        "overall": ("PASS", "FAIL"),
    },
}

# the whole report of each command: envelope and that command's result
_REPORT_SHAPES = {
    command: {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": dict,
        "result": result,
        "timing_ms": _nonnegative_number,
    }
    for command, result in RESULT_SCHEMAS.items()
}


class ReportError(Exception):
    """A report that breaks its command's shape: a fault of ours, never of the input."""


def _rule(shape: Any) -> str:
    if isinstance(shape, tuple):
        return " or ".join(map(_rule, shape))
    name = getattr(shape, "__name__", None)
    return repr(shape) if name is None else name.strip("_").replace("_", " ")


def _mismatch(value: Any, shape: Any, path: str) -> str | None:
    """The first place where ``value`` breaks ``shape``, as ``path: rule``, or None."""
    if isinstance(shape, dict):
        if type(value) is not dict:
            return f"{path}: {value!r} is not an object"
        for key, item in value.items():
            if key not in shape:
                return f"{path}: unexpected key {key!r}"
            found = _mismatch(item, shape[key], f"{path}.{key}")
            if found:
                return found
        missing = sorted(shape.keys() - value.keys())
        return f"{path}: missing key {missing[0]!r}" if missing else None
    if isinstance(shape, list):
        if type(value) is not list:
            return f"{path}: {value!r} is not an array"
        for i, item in enumerate(value):
            found = _mismatch(item, shape[0], f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(shape, tuple):
        ok = any(_mismatch(value, option, path) is None for option in shape)
    elif isinstance(shape, type):
        ok = type(value) is shape
    elif callable(shape):
        ok = shape(value)
    else:
        ok = value == shape
    return None if ok else f"{path}: {value!r} is not {_rule(shape)}"


def validate_report(report: dict[str, Any]) -> None:
    """Raise ReportError at the first place where the report breaks its shape."""
    command = report.get("command")
    shape = _REPORT_SHAPES.get(command) if isinstance(command, str) else None
    if shape is None:
        raise ReportError(f"report.command: unknown command {command!r}")
    found = _mismatch(report, shape, "report")
    if found:
        raise ReportError(found)


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
