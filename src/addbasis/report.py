"""Machine-readable reports: canonical JSON, shape validation, CSV rows.

Result fields come from the report dataclasses through ``jsonable``, the one
place that writes a ratio field as ``p/q`` plus a ``<field>_decimal``
sibling.  ``RESULT_SCHEMAS`` gives each command's result as a plain-Python
shape listing every key a result may carry, so a new report field fails
self-validation until its shape names it.  ``validate_report`` walks a whole
report against its shape and raises ``ReportError`` at the first mismatch,
with its path and rule; no JSON Schema library is needed at runtime.  The
walk, ``_mismatch``, builds that path only on the way back from a mismatch,
so a report that fits pays for no path strings.

``canonical_json`` writes a report through ``_write``, a direct recursive
writer that appends text chunks to one list and emits exactly what
``json.dumps(report, sort_keys=True, indent=2)`` would; with an indent,
``json.dumps`` runs the stdlib's pure-Python encoder, at about 2.5 times the
cost.  Keys are sorted, so identical inputs give byte-identical reports
except for ``timing_ms``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
from fractions import Fraction
from typing import Any

SCHEMA_VERSION = "1"


def frac_decimal(value: Fraction) -> str:
    return format(float(value), ".10g")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a dataclass type in order, or None for any other type."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


def jsonable(value: Any) -> Any:
    """A dataclass as a dict of its fields in order, each ``Fraction`` field as
    ``p/q`` plus a ``<field>_decimal`` sibling; a tuple or list as a list;
    anything else unchanged."""
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    names = _field_names(type(value))
    if names is None:
        return value
    out: dict[str, Any] = {}
    for name in names:
        item = getattr(value, name)
        if type(item) is Fraction:
            out[name], out[f"{name}_decimal"] = str(item), frac_decimal(item)
        elif type(item) in _LEAF_TEXT:
            out[name] = item
        else:
            out[name] = jsonable(item)
    return out


_escape = json.encoder.encode_basestring_ascii
_only_ints = frozenset({int}).issuperset
# json's spellings of the floats that have no JSON literal
_FLOAT_WORDS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _float_text(value: float) -> str:
    return "NaN" if value != value else _FLOAT_WORDS.get(value) or float.__repr__(value)


# the JSON text of each exact leaf type, so a bool is not written as an int
_LEAF_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def canonical_json(report: dict[str, Any]) -> str:
    """``report`` as ``json.dumps(report, sort_keys=True, indent=2)`` writes
    it, plus a newline.  Object keys must be strings, and every leaf exactly
    a ``str``, ``int``, ``float``, ``bool`` or None; any other leaf, a
    subclass of these too, raises ``TypeError``."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: Any, indent: str, out: list[str]) -> None:
    """Append ``value`` as indented JSON to ``out``; ``indent`` is the newline
    and spaces that open a line at ``value``'s depth."""
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        out.append(leaf(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(value):
            out.append(f"{sep}{_escape(key)}: ")
            _write(value[key], inner, out)
            sep = comma
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        comma = "," + inner
        if _only_ints(map(type, value)):
            out.append("[" + inner + comma.join(map(int.__repr__, value)) + indent + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = comma
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _mismatch(value: Any, shape: Any) -> list[str] | None:
    """None if ``value`` fits ``shape``; else its first mismatch as the rule
    it breaks, then the path steps from it out to ``value``, so a path is
    built only for a report that fails."""
    if isinstance(shape, dict):
        if type(value) is not dict:
            return [f": {value!r} is not an object"]
        for key, item in value.items():
            if key not in shape:
                return [f": unexpected key {key!r}"]
            item_shape = shape[key]
            # the commonest leaves, checked without a call
            if type(item) is item_shape or (item_shape is _natural and type(item) is int and item >= 0):
                continue
            found = _mismatch(item, item_shape)
            if found:
                found.append(f".{key}")
                return found
        if len(value) == len(shape):
            return None
        return [f": missing key {min(shape.keys() - value.keys())!r}"]
    if isinstance(shape, list):
        if type(value) is not list:
            return [f": {value!r} is not an array"]
        item_shape = shape[0]
        if item_shape is _natural and _only_ints(map(type, value)) and min(value, default=0) >= 0:
            return None
        for i, item in enumerate(value):
            found = _mismatch(item, item_shape)
            if found:
                found.append(f"[{i}]")
                return found
        return None
    if isinstance(shape, tuple):
        ok = any(_mismatch(value, option) is None for option in shape)
    elif isinstance(shape, type):
        ok = type(value) is shape
    elif callable(shape):
        ok = shape(value)
    else:
        ok = value == shape
    return None if ok else [f": {value!r} is not {_rule(shape)}"]


def validate_report(report: dict[str, Any]) -> None:
    """Raise ReportError at the first place where the report breaks its shape."""
    command = report.get("command")
    shape = _REPORT_SHAPES.get(command) if isinstance(command, str) else None
    if shape is None:
        raise ReportError(f"report.command: unknown command {command!r}")
    found = _mismatch(report, shape)
    if found:
        raise ReportError("report" + "".join(reversed(found)))


def _row_groups(report: dict[str, Any]) -> list[tuple[int | None, list[dict[str, Any]]]]:
    """A density or probe report's density rows as ``(fold, rows)`` groups;
    fold is None for a density report's one group."""
    command = report["command"]
    result = report["result"]
    if command == "density":
        return [(None, result["rows"])]
    if command == "probe":
        return [(result["h2_fold"], result["h2_rows"]), (result["h1_fold"], result["h1_rows"])]
    raise ValueError(f"no density rows in a {command!r} report")


def rows_csv(report: dict[str, Any]) -> str:
    """Rows-only CSV rendering of a report, for plotting and spreadsheets.

    No cell is quoted: after ``validate_report`` each one is a natural, a
    ``ratio_decimal``, ``true``/``false``, an empty string, a claim name or
    ``PASS``/``FAIL``, and none of these holds a comma, a quote or a newline.
    """
    command = report["command"]
    result = report["result"]
    if command in ("density", "probe"):
        header = (["fold"] if command == "probe" else []) + ["k", "n", "count", "ratio"]
        rows = [
            ([] if fold is None else [fold]) + [r["k"], r["n"], r["count"], r["ratio_decimal"]]
            for fold, group in _row_groups(report)
            for r in group
        ]
    elif command == "stability":
        header = ["k", "n", "in_sumset"]
        rows = [[v["k"], v["n"], str(v["in_sumset"]).lower()] for v in result["verdicts"]]
    elif command == "order":
        header = ["h", "covered", "first_gap"]
        rows = [
            [r["h"], str(r["covered"]).lower(), "" if r["first_gap"] is None else r["first_gap"]]
            for r in result["scan"]
        ]
    elif command == "sumset":
        header = ["kind", "n"]
        rows = [["member", n] for n in result["members"]] + [["gap", n] for n in result["gaps"]]
    elif command == "verify-counterexample":
        header = ["claim", "status"]
        rows = [[c["name"], c["status"]] for c in result["claims"]]
    else:
        raise ValueError(f"no CSV rendering for command {command!r}")
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def plot_data_lines(report: dict[str, Any]) -> str:
    """(k, n, ratio) triples, one per line, gnuplot-style; a probe report's
    two folds are blocks headed ``# fold <h>`` with a blank line between."""
    blocks = [
        "\n".join(
            ([] if fold is None else [f"# fold {fold}"])
            + [f"{r['k']} {r['n']} {r['ratio_decimal']}" for r in rows]
        )
        for fold, rows in _row_groups(report)
    ]
    return "\n\n".join(blocks) + "\n"
