"""Reference implementations the tests check the package against.

``contains`` decides membership structurally, one number at a time, with no
runs and no mask: the oracle for ``expr_runs`` and for ``verify._recount``.
``to_text`` is the canonical printer the parser round-trips with.
``report_json_schema`` writes each command's report shape out as JSON Schema,
so jsonschema can judge reports independently of ``validate_report``.
"""

from fractions import Fraction

import jsonschema

from addbasis import Augment, BlockFamily, Explicit, Interval, Powers, SetExpr, Union, report


def _iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k == 1 or n in (0, 1):
        return n
    r = max(int(round(n ** (1.0 / k))), 1)
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def contains(expr: SetExpr, n: int) -> bool:
    """Exact membership of ``n``, decided structurally without materializing."""
    if n < 0:
        return False
    if isinstance(expr, Explicit):
        return n in expr.elements
    if isinstance(expr, Interval):
        return expr.lo <= n <= expr.hi
    if isinstance(expr, Powers):
        return _iroot(n, expr.exponent) ** expr.exponent == n
    if isinstance(expr, BlockFamily):
        # walks the blocks itself, apart from family_blocks: the tests scan
        # it as the oracle for verify._recount's closed-form count
        if n <= expr.head_end:
            return True
        i = 2
        while True:
            lo = expr.mult * expr.base ** (i - 1) + expr.offset
            if n < lo:
                return False
            if n <= expr.base**i:
                return True
            i += 1
    if isinstance(expr, Union):
        return contains(expr.left, n) or contains(expr.right, n)
    if isinstance(expr, Augment):
        return n in expr.extra or contains(expr.base, n)
    raise TypeError(f"not a SetExpr: {expr!r}")


def to_text(expr: SetExpr) -> str:
    """Canonical printing; ``parse_set_expr(to_text(e)) == e`` for every node."""
    if isinstance(expr, Explicit):
        return "explicit{" + ",".join(str(x) for x in expr.elements) + "}"
    if isinstance(expr, Interval):
        return f"interval[{expr.lo},{expr.hi}]"
    if isinstance(expr, Powers):
        return f"powers({expr.exponent})"
    if isinstance(expr, BlockFamily):
        return f"paperfamily({expr.base},{expr.head_end},{expr.mult},{expr.offset})"
    if isinstance(expr, Union):
        left = to_text(expr.left)
        right = to_text(expr.right)
        if isinstance(expr.right, Union):
            right = f"({right})"  # keep right-nested unions from reassociating
        return f"{left} | {right}"
    if isinstance(expr, Augment):
        base = to_text(expr.base)
        if isinstance(expr.base, (Union, Augment)):
            base = f"({base})"
        return base + " + {" + ",".join(str(x) for x in expr.extra) + "}"
    raise TypeError(f"not a SetExpr: {expr!r}")


# \Z, not $: jsonschema applies a pattern with re.search, where $ also
# matches before a trailing newline
_RULES = {
    report._natural: {"type": "integer", "minimum": 0},
    report._reduced_ratio: {
        "type": "string",
        "pattern": r"^(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z",
        "format": "reduced-ratio",
    },
}
_TYPES = {str: "string", bool: "boolean", dict: "object"}


def json_schema(shape) -> dict:
    """The JSON Schema that says what one ``report`` shape says."""
    if isinstance(shape, dict):
        return {
            "type": "object",
            "required": sorted(shape),
            "properties": {key: json_schema(item) for key, item in shape.items()},
            "additionalProperties": False,
        }
    if isinstance(shape, list):
        return {"type": "array", "items": json_schema(shape[0])}
    if isinstance(shape, tuple):
        return {"anyOf": [json_schema(option) for option in shape]}
    if isinstance(shape, type):
        return {"type": _TYPES[shape]}
    if callable(shape):
        return _RULES[shape]
    return {"const": shape}


def report_json_schema(command: str) -> dict:
    """The whole report of one command; the envelope is written out here."""
    return {
        "type": "object",
        "required": ["command", "inputs", "result", "schema_version", "timing_ms"],
        "properties": {
            "schema_version": {"const": "1"},
            "command": {"const": command},
            "inputs": {"type": "object"},
            "result": json_schema(report.RESULT_SCHEMAS[command]),
            "timing_ms": {"type": "number", "minimum": 0},
        },
        "additionalProperties": False,
    }


FORMATS = jsonschema.FormatChecker(formats=())


@FORMATS.checks("reduced-ratio")
def _lowest_terms(text: object) -> bool:
    # the pattern checks the digits; a fraction in lowest terms with a
    # denominator above 1, or a whole number, prints back as itself
    if not isinstance(text, str):
        return True
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


def report_validator(command: str) -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(report_json_schema(command), format_checker=FORMATS)
