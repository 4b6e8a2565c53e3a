"""Bounded iterated sumsets over ``[0, N]``: interval-run arithmetic while the
runs are few, bit-parallel shift-OR after.

Truncation soundness: every element is nonnegative, so any representation of
``n <= N`` uses only addends ``<= N``.  Computing with prefixes ``A ∩ [0, N]``
is therefore exact for the infinite set, and gap certificates found below the
bound are valid unconditionally.
"""

from __future__ import annotations

import heapq
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

from .bitset import PrefixBitset, full_mask, iter_bits, runs_mask
from .setexpr import SetExpr, check_bound, expr_runs, merge_runs

@dataclass(frozen=True)
class SumsetResult:
    """The h-fold sumset of a set, windowed to ``[0, bound]``."""

    h: int
    bound: int
    bits: PrefixBitset


# Mask size, in 64-bit words of [0, bound], from which pair_sumset ORs in
# place into a numpy array instead of Python ints.  Speed-up of the numpy loop
# over the Python-int loop per fold (A into 2A, best of 15, for squares,
# cubes and sqrt(N) random points, on 2 vCPUs): 0.63-1.14x at 329 words
# (N = 2.1e4), 0.71-1.28x at 512, 1.12-2.19x at 1024, 1.85-3.55x at 2048,
# 4.5-14.3x at 15,626 (N = 1e6) and, best of 3 on two accumulator ranges,
# 10.3-28.5x at 156,251 (N = 1e7).  Below the floor numpy is never imported,
# so small commands pay neither its import (about 150 ms) nor its memory
# (about 12 MB).
SHIFT_OR_NUMPY_WORDS = 1024

# Least span, in words, of each accumulator range that pair_sumset's numpy
# loop gives its own thread.  Two threads contend for the interpreter lock at
# every slice OR, so they pay only on slices long enough to outlast that.
# Speed-up of two ranges over one per fold (2A + A, best of 7, for squares,
# cubes and sqrt(N) random points, on 2 vCPUs, two runs): 0.31-0.56x at 2,048
# and 8,192 words, 0.52-1.03x at 32,768, 0.73-1.07x at 65,536, 1.00-1.26x
# at 98,304, 1.03-1.69x at 131,072 and 1.23-2.13x at 156,251 (N = 1e7).
# Three or more ranges have not been timed.
SHIFT_OR_RANGE_WORDS = 65536


def pair_sumset(p: PrefixBitset, q: PrefixBitset, bound: int) -> PrefixBitset:
    """Exact ``(P + Q) ∩ [0, bound]``; both operands must be bounded at ``bound``.

    ORs one operand's bit vector shifted by each member of the other; the
    kernel iterates over the sparser side since cost is popcount x words
    (tie broken toward the left operand; the result is identical either way).
    Masks of ``SHIFT_OR_NUMPY_WORDS`` words or more are ORed in place into a
    numpy array, one byte slice per member, split by accumulator region over
    the CPUs this process may use (``_shift_or_words``); smaller ones are ORed
    as Python ints.
    """
    if p.bound != bound or q.bound != bound:
        raise ValueError(
            f"bound mismatch: operands bounded at {p.bound} and {q.bound}, need {bound}"
        )
    if p.popcount() <= q.popcount():
        outer, inner = p.mask, q.mask
    else:
        outer, inner = q.mask, p.mask
    if bound // 64 + 1 < SHIFT_OR_NUMPY_WORDS:
        acc = 0
        for a in iter_bits(outer):
            acc |= inner << a
        return PrefixBitset(bound, acc & full_mask(bound))
    return PrefixBitset(bound, _shift_or_words(outer, inner, bound))


def _shift_or_words(outer: int, inner: int, bound: int) -> int:
    """The OR of ``inner << a`` over the members ``a`` of ``outer``, windowed
    to ``[0, bound]``, by in-place ORs of byte slices into one numpy array.

    A shift by ``a`` is a bit shift by ``a % 8`` and a byte offset of
    ``a // 8``, so the members, read from ``outer``'s nonzero bytes, are
    grouped by residue: each residue makes one bit-shifted copy of ``inner``
    (carrying in the previous word's high bits), at most 8 per call, and each
    member then ORs that copy into the accumulator at its byte offset.  Bytes
    shifted past the last word fall off the slice.  The accumulator is split
    into the word ranges of ``_split_words``, one per thread, the calling
    thread included: for each residue every thread shifts its range of the
    copy, and once all have, ORs every member into its range of the
    accumulator.  The threads allocate nothing and are joined before return.
    """
    import numpy as np

    words = bound // 64 + 1
    packed = np.frombuffer(outer.to_bytes(words * 8, "little"), dtype=np.uint8)
    at = np.flatnonzero(packed)
    bits = np.unpackbits(packed[at], bitorder="little").reshape(-1, 8).view(bool)
    del packed
    residues = [at[bits[:, r]] for r in range(8)]
    del at, bits
    spans = _split_words(np.concatenate(residues), words, _usable_cpus())
    residues = [starts.tolist() for starts in residues]
    src = np.frombuffer(inner.to_bytes(words * 8, "little"), dtype="<u8")
    acc = np.zeros(words, dtype="<u8")
    shifted = np.empty(words, dtype="<u8")
    carry = np.empty(words, dtype="<u8")
    acc8 = acc.view(np.uint8)

    barrier = threading.Barrier(len(spans))
    errors: list[BaseException] = []

    def work(lo: int, hi: int) -> None:
        # words [lo, hi): this worker's part of each shifted copy, then of
        # every member's OR; the first wait lets members read the copy below
        # lo, the second keeps the next shift from overwriting it
        try:
            for r, starts in enumerate(residues):
                if not starts:
                    continue
                if r:
                    np.left_shift(src[lo:hi], r, out=shifted[lo:hi])
                    w = max(lo, 1)
                    np.right_shift(src[w - 1 : hi - 1], 64 - r, out=carry[w:hi])
                    shifted[w:hi] |= carry[w:hi]
                    barrier.wait()
                copy = (shifted if r else src).view(np.uint8)
                for o in islice(starts, bisect_left(starts, hi * 8)):
                    b = max(o, lo * 8)
                    acc8[b : hi * 8] |= copy[b - o : hi * 8 - o]
                barrier.wait()
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)
            barrier.abort()

    # the calling thread takes the first range, so one range starts no thread
    threads = [threading.Thread(target=work, args=span) for span in spans[1:]]
    try:
        for thread in threads:
            thread.start()
        work(*spans[0])
    except BaseException:  # a thread did not start: stop the started ones
        barrier.abort()
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    del src, shifted, carry
    acc[-1] &= np.uint64((1 << (bound % 64 + 1)) - 1)
    return int.from_bytes(acc, "little")


# cgroup files that cap this process's CPU time, read as "quota period":
# cgroup v2 holds both in cpu.max, v1 one in each file
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on at once: its affinity set,
    capped by the CPU quota in the first of ``_CPU_QUOTA_FILES`` that can be
    read, when that sets one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    for paths in _CPU_QUOTA_FILES:
        try:
            text = " ".join(Path(path).read_text() for path in paths)
        except (OSError, ValueError):  # missing, or not readable as text
            continue
        quota = _quota_cpus(text)
        return cpus if quota is None else min(cpus, quota)
    return cpus


def _quota_cpus(text: str) -> int | None:
    """``ceil(quota / period)``, at least 1, from cgroup ``"quota period"``
    text; None when it sets no quota (``max`` in v2, ``-1`` in v1) or is not
    two integers."""
    try:
        quota, period = map(int, text.split())
    except ValueError:
        return None
    if quota < 0 or period <= 0:
        return None
    return max(1, -(-quota // period))


def _split_words(starts, words: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` word ranges that cover ``[0, words)``, one per
    worker of ``_shift_or_words`` for the member byte offsets ``starts``.

    There are at most ``cpus`` ranges, and each spans at least
    ``SHIFT_OR_RANGE_WORDS`` words unless there is one, so smaller masks stay
    on one thread.  A member ORs every byte above its offset, so the OR work
    at a word grows with the members below it; the cuts split the running
    total of that work evenly, then move apart to the least span.  On two
    CPUs the least span holds the cut up to about N = 1e7 for cubes, 1.2e7
    for squares and 1.5e7 for sqrt(N) random points; above that the balance
    pays: a 2A + A fold at N = 3e7 took 0.62-0.67 s for squares and
    0.40-0.46 s for random points, against 0.83-1.06 s and 0.71-0.90 s on
    two equal ranges (best and median of 5, two runs, 2 vCPUs).
    """
    import numpy as np

    floor = SHIFT_OR_RANGE_WORDS
    k = min(cpus, words // floor)
    if k <= 1:
        return [(0, words)]
    work = np.cumsum(np.bincount(starts >> 3, minlength=words))
    np.cumsum(work, out=work)
    cuts = [0]
    for i in range(1, k):
        cut = int(np.searchsorted(work, work[-1] * i // k))
        cuts.append(min(max(cut, cuts[-1] + floor), words - (k - i) * floor))
    cuts.append(words)
    return list(zip(cuts, cuts[1:]))


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

    Fold h adds A to the (h-1)-fold sumset, starting from ``{0}``, in two
    phases over one walk of A's runs.  Folds run on interval runs while
    ``max(|R|, |A runs|)·|A runs|`` run pairs, at ``RUN_PAIR_WORDS`` each,
    cost at most what shift-OR costs per fold, ``|A|`` shifts x words.  Past
    that, A's mask is built from the same runs, and this and every later fold
    run through ``pair_sumset``.  Leaving runs is final and fold 1 is A itself
    on either kernel, so the max makes fold 1 count as fold 2, the first that
    does work.  Both kernels are exact; the choice changes only the cost.
    """
    check_bound(bound)
    base_runs = expr_runs(expr, bound)
    shift_or_words = sum(hi - lo + 1 for lo, hi in base_runs) * (bound // 64 + 1)
    runs = [(0, 0)]
    bits = PrefixBitset(bound, 1)
    yield bits
    while max(len(runs), len(base_runs)) * len(base_runs) * RUN_PAIR_WORDS <= shift_or_words:
        runs = run_sumset(runs, base_runs, bound)
        bits = PrefixBitset(bound, runs_mask(runs, bound))
        yield bits
    base = PrefixBitset(bound, runs_mask(base_runs, bound))
    while True:
        bits = pair_sumset(bits, base, bound)
        yield bits


def iterate_sumset(expr: SetExpr, h: int, bound: int) -> SumsetResult:
    """Exact ``hA ∩ [0, bound]``: the h-th of ``sumset_folds``; ``h = 0`` yields ``{0}``."""
    if h < 0:
        raise ValueError(f"fold count must be >= 0, got {h}")
    bits = next(islice(sumset_folds(expr, bound), h, None))
    return SumsetResult(h, bound, bits)


def representation_count(expr: SetExpr, h: int, n: int) -> int:
    """Multisets of h runs of ``A ∩ [0, n]`` whose interval sums hold ``n``, counted.

    A sum of integer intervals is the interval between its endpoint sums, so
    the h-fold sums drawn from runs ``i_1 <= ... <= i_h`` fill ``[Σ lo, Σ hi]``
    and the count is positive iff ``n`` lies in the h-fold sumset.  The runs
    come from ``expr_runs``, independent of both sumset kernels.  Multisets
    are enumerated depth-first, pruned to those whose low ends can sum to at
    most ``n`` and high ends to at least ``n``, so the last run is a bisect
    range and every multiset the walk completes represents ``n``.  The cost is
    in run multisets, not in ``n``, and a gap certificate (a count of 0)
    completes none.  ``n`` is held to the ``materialize`` ceiling, the guard
    every bound-taking entry point shares.
    """
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got {h}")
    check_bound(n)
    runs = expr_runs(expr, n)
    if h == 1:
        return 1 if runs and runs[-1][1] == n else 0
    if not runs:
        return 0
    los = [lo for lo, _ in runs]
    his = [hi for _, hi in runs]
    top = his[-1]

    def candidates(start: int, left: int, lo_sum: int, hi_sum: int) -> Iterator[int]:
        # runs i >= start for the next of `left` open places: the low ends,
        # all at least lo_i from here on, must not pass n, and hi_i with the
        # top run in every later place must reach it
        first = bisect_left(his, n - hi_sum - (left - 1) * top)
        return iter(range(max(start, first), bisect_right(los, (n - lo_sum) // left)))

    # an explicit stack rather than recursion: h may exceed the recursion limit.
    # Each open place holds its candidate runs and the (Σ lo, Σ hi) before it.
    total = 0
    places = [(candidates(0, h, 0, 0), 0, 0)]
    while places:
        runs_left, lo_sum, hi_sum = places[-1]
        i = next(runs_left, None)
        if i is None:
            places.pop()
            continue
        lo_sum += los[i]
        hi_sum += his[i]
        if len(places) == h:
            total += 1
        else:
            places.append((candidates(i, h - len(places), lo_sum, hi_sum), lo_sum, hi_sum))
    return total
