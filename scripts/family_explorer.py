#!/usr/bin/env python3
"""Sweep block-family parameters and watch how the construction generalizes.

For each base b the family keeps a head block [0, c] and blocks
[m*b^(n-1)+s, b^n].  The numbers just below each block start, m*b^k + (s-1),
form the natural witness family: they need one addend from the empty zone
below a block, so small fold counts miss them.  The sweep reports the order
bracket, the witnesses' survival, and the density window of A(n)/n, showing
the same order-3, oscillating-density shape at every base.
"""

import argparse
import sys

from addbasis import (
    BlockFamily,
    SubseqSpec,
    density_sequence,
    order_bounds,
    stability_probe,
    window_extrema,
)


def explore(base: int, bound: int, hmax: int) -> dict:
    family = BlockFamily(base=base, head_end=base, mult=2, offset=2)
    order = order_bounds(family, bound, hmax)

    # witness subsequence m*b^k + (s-1); keep terms within the bound
    count = 0
    while family.mult * base ** (count + 2) + family.offset - 1 <= bound:
        count += 1
    subseq = SubseqSpec(family.mult, base, family.offset - 1, start=1, count=max(count, 2))

    probe = stability_probe(family, (), 3, subseq, bound)
    lo, hi = window_extrema(density_sequence(family, 1, subseq)[-4:])
    return {
        "base": base,
        "upper": order.upper,
        "lower": order.lower,
        "witness": order.witness,
        "survivors": len(probe.survivors),
        "terms": len(probe.verdicts),
        "tail_min": float(lo),
        "tail_max": float(hi),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bases", type=int, nargs="*", default=list(range(3, 13)))
    parser.add_argument("--bound", type=int, default=10**5)
    parser.add_argument("--hmax", type=int, default=6)
    args = parser.parse_args()

    print(f"{'base':>4} {'order':>7} {'witness':>8} {'2A-survivors':>13} "
          f"{'density window (tail)':>24}")
    for base in args.bases:
        row = explore(base, args.bound, args.hmax)
        order_s = f"{row['lower']}/{row['upper'] if row['upper'] is not None else '?'}"
        print(f"{row['base']:>4} {order_s:>7} {row['witness']:>8} "
              f"{row['survivors']:>6} of {row['terms']:<3} "
              f"{row['tail_min']:>11.4f}..{row['tail_max']:<10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
