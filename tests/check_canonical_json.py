"""Check ``report.canonical_json`` against ``json.dumps`` with the standard
library alone.

Run as ``PYTHONPATH=src python tests/check_canonical_json.py``.  It needs no
third-party package, so it runs on every Python the package supports without
an install.  It compares ``canonical_json(value)`` with
``json.dumps(value, sort_keys=True, indent=2) + "\\n"`` on a fixed corpus of
edge cases, on values drawn from a seeded generator, and on every JSON golden
report, and exits 1 at the first difference.
"""

import json
import math
import random
import sys
from pathlib import Path

from addbasis.report import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_CASES = [
    None, True, False, 0, 1, -1, 2**70, -(2**70), 0.0, -0.0, 1e16, 1.5e-300, math.nan, math.inf,
    -math.inf, "", "plain", 'quote " and backslash \\', "\x00\x1f\x7f", "\ud800 \udfff", "é   \U0001f600",
    [], {}, (), [[]], {"": {}}, [True, 1, False, 0], (1, 2, 3), [1, "1", 1.0, None],
    {"b": [1, 2], "a": {"d": (), "c": [{"e": None}]}, "é": "x", "A": -0.0},
]


def random_value(rng: random.Random, depth: int = 0):
    """A JSON value nested at most four deep: any code point in its text
    (lone surrogates too), ints past 64 bits and every float spelling."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(2**70), 2**70)
    if kind == 2:
        return rng.choice([rng.uniform(-1e20, 1e20), rng.random(), math.nan, math.inf, -math.inf, -0.0])
    if kind in (3, 4, 5):
        return "".join(chr(rng.choice([rng.randrange(128), rng.randrange(0x110000)])) for _ in range(rng.randrange(6)))
    if kind == 6:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 7:
        return tuple(rng.randint(-9, 9) for _ in range(rng.randrange(5)))
    return {
        "".join(chr(rng.randrange(0x110000)) for _ in range(rng.randrange(4))): random_value(rng, depth + 1)
        for _ in range(rng.randrange(5))
    }


def main() -> int:
    rng = random.Random(0)
    corpus = [(f"edge case {i}", value) for i, value in enumerate(EDGE_CASES)]
    corpus += [(f"random value {i}", random_value(rng)) for i in range(2000)]
    corpus += [(path.name, json.loads(path.read_text())) for path in sorted(GOLDEN.glob("*.json"))]
    for name, value in corpus:
        if canonical_json(value) != json.dumps(value, sort_keys=True, indent=2) + "\n":
            print(f"canonical_json differs from json.dumps on {name}: {value!r}", file=sys.stderr)
            return 1
    print(f"canonical_json matches json.dumps on {len(corpus)} values (Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
