#!/usr/bin/env python3
"""Print the popcount, first gap and SHA-256 of every fold of the squares
(h <= 5), the cubes (h <= 10), the fifth powers (h <= 37) and the sixth
powers (h <= 73) on ``[0, N]``.

One line per fold: ``set h popcount first_gap sha256``, where the digest is
taken over ``mask.to_bytes(N // 8 + 1, "little")`` and a full fold's first
gap is ``-``.  Any change to the sumset kernels must leave these lines
unchanged; ``fold_digests_3e7.txt`` pins them at N = 3e7:

    PYTHONPATH=src python scripts/fold_digests.py --bound 3e7 \\
        | diff scripts/fold_digests_3e7.txt -
"""

import argparse
import hashlib
from itertools import islice

from addbasis import parse_set_expr
from addbasis.cli import nat_arg
from addbasis.sumset import sumset_folds

CHAINS = (("squares", 5), ("cubes", 10), ("powers(5)", 37), ("powers(6)", 73))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=nat_arg, default=30_000_000)
    bound = parser.parse_args().bound
    for name, hmax in CHAINS:
        folds = islice(sumset_folds(parse_set_expr(name), bound), 1, hmax + 1)
        for h, bits in enumerate(folds, 1):
            digest = hashlib.sha256(bits.mask.to_bytes(bound // 8 + 1, "little")).hexdigest()
            gap = bits.first_gap()
            print(name, h, bits.popcount(), "-" if gap is None else gap, digest)


if __name__ == "__main__":
    main()
