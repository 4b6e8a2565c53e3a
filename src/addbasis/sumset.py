"""Bounded iterated sumsets over ``[0, N]``: interval-run arithmetic while the
runs are few, bit-parallel shift-OR after.

Truncation soundness: every element is nonnegative, so any representation of
``n <= N`` uses only addends ``<= N``.  Computing with prefixes ``A ∩ [0, N]``
is therefore exact for the infinite set, and gap certificates found below the
bound are valid unconditionally.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .bitset import PrefixBitset, full_mask, iter_bits, runs_mask
from .setexpr import SetExpr, check_bound, expr_runs, materialize, merge_runs

@dataclass(frozen=True)
class SumsetResult:
    """The h-fold sumset of a set, windowed to ``[0, bound]``."""

    h: int
    bound: int
    bits: PrefixBitset


def pair_sumset(p: PrefixBitset, q: PrefixBitset, bound: int) -> PrefixBitset:
    """Exact ``(P + Q) ∩ [0, bound]``.

    ORs one operand's bit vector shifted by each member of the other; the
    kernel iterates over the sparser side since cost is popcount x words
    (tie broken toward the left operand; the result is identical either way).
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if p.bound < bound or q.bound < bound:
        raise ValueError(
            f"bound mismatch: operands bounded at {p.bound} and {q.bound}, need {bound}"
        )
    window = full_mask(bound)
    pm = p.mask & window
    qm = q.mask & window
    if pm.bit_count() <= qm.bit_count():
        outer, inner = pm, qm
    else:
        outer, inner = qm, pm
    acc = 0
    for a in iter_bits(outer):
        acc |= inner << a
    return PrefixBitset(bound, acc & window)


def _shifted_runs(
    r: list[tuple[int, int]], c: int, d: int, bound: int
) -> Iterator[tuple[int, int]]:
    for a, b in r:
        if a + c > bound:
            return
        yield a + c, min(b + d, bound)


def run_sumset(
    r: list[tuple[int, int]], s: list[tuple[int, int]], bound: int
) -> list[tuple[int, int]]:
    """Exact ``(R + S) ∩ [0, bound]`` for normalized runs ``R`` and ``S``.

    The sum of two runs is the run of their endpoint sums, so ``R + S`` is the
    normalized union of the ``|R|·|S|`` pairwise run sums: exact, at a cost
    set by the run counts rather than by the bound.  Each run of S shifts R
    into an ascending stream, and the streams are merged lazily, so the pair
    sums are never all held at once.
    """
    return merge_runs(heapq.merge(*(_shifted_runs(r, c, d, bound) for c, d in s)))


# Cost of one run pair in run_sumset, in shift-OR mask words (one word is 64
# bits shifted and ORed): the median break-even of the two kernels over 27
# folds of random runs at N = 1e5, 1e6 and 1e7 (quartiles 577 and 902).
RUN_PAIR_WORDS = 800


def sumset_folds(expr: SetExpr, bound: int) -> Iterator[PrefixBitset]:
    """``hA ∩ [0, bound]`` for ``h = 0, 1, 2, ...``, endlessly.

    Fold h adds A to the (h-1)-fold sumset, starting from ``{0}``.  A fold
    runs on interval runs while ``max(|R|, |A runs|)·|A runs|`` run pairs, at
    ``RUN_PAIR_WORDS`` each, cost at most what shift-OR costs per fold,
    ``|A|`` shifts x words.  Otherwise the prefix becomes a mask, and this
    and every later fold run through ``pair_sumset``.  Leaving runs is final
    and fold 1 is A itself on either kernel, so the max makes fold 1 count
    as fold 2, the first that does work.  Both kernels are exact; the choice
    changes only the cost.
    """
    base = materialize(expr, bound)
    base_runs = expr_runs(expr, bound)
    shift_or_words = base.popcount() * (bound // 64 + 1)
    runs: list[tuple[int, int]] | None = [(0, 0)]
    bits = PrefixBitset(bound, 1)
    while True:
        yield bits
        if (
            runs is not None
            and max(len(runs), len(base_runs)) * len(base_runs) * RUN_PAIR_WORDS
            <= shift_or_words
        ):
            runs = run_sumset(runs, base_runs, bound)
            bits = PrefixBitset(bound, runs_mask(runs, bound))
        else:
            runs = None  # a mask's runs are not recovered
            bits = pair_sumset(bits, base, bound)


def iterate_sumset(expr: SetExpr, h: int, bound: int) -> SumsetResult:
    """Exact ``hA ∩ [0, bound]``: the h-th of ``sumset_folds``; ``h = 0`` yields ``{0}``."""
    if h < 0:
        raise ValueError(f"fold count must be >= 0, got {h}")
    bits = next(islice(sumset_folds(expr, bound), h, None))
    return SumsetResult(h, bound, bits)


def representation_count(expr: SetExpr, h: int, n: int) -> int:
    """Number of ORDERED h-tuples of elements summing to ``n``.

    Dynamic-programming convolution over the elements of ``A ∩ [0, n]``,
    enumerated from ``expr_runs`` and independent of both sumset kernels;
    positive iff ``n`` lies in the h-fold sumset.  The count is exact (Python
    ints do not overflow).  The DP holds O(n) counters, so ``n`` is held to
    the same ceiling as ``materialize``.
    """
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got {h}")
    check_bound(n)
    runs = expr_runs(expr, n)
    if h == 1:
        return 1 if runs and runs[-1][1] == n else 0
    elems = [a for lo, hi in runs for a in range(lo, hi + 1)]
    vec = [0] * (n + 1)
    for a in elems:
        vec[a] = 1
    for _ in range(h - 2):
        nxt = [0] * (n + 1)
        for a in elems:
            for m in range(a, n + 1):
                nxt[m] += vec[m - a]
        vec = nxt
    total = 0
    for a in elems:
        total += vec[n - a]
    return total
