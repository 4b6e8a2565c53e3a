"""Bounded iterated sumsets over ``[0, N]``: interval-run arithmetic while the
runs are few, bit-parallel shift-OR after.  On masks of
``SHIFT_OR_NUMPY_WORDS`` words or more, two loops do less than shift-OR:
A + A of a sparse set is scattered pair by pair (``_pair_scatter``), and
once a fold of a set that holds 0 has few gaps, every later fold tests only
those gaps (``_complement_fold``).  Shift-OR there ORs into the result's
own bytes through one residue buffer, so a fold of ``[0, N]`` holds its
inner operand, its result and that buffer: about 3.2 masks of N / 8 bytes.

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

from .bitset import PrefixBitset, full_mask, mask_size
from .setexpr import SemanticError, SetExpr, check_bound, expr_runs, merge_runs

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
# cubes and sqrt(N) random points, on 2 vCPUs, two runs): 0.38-0.66x at 2,048
# and 8,192 words, 0.50-0.79x at 32,768, 0.85-1.19x at 65,536, 1.02-1.38x
# at 98,304, 1.30-1.86x at 131,072 and 1.37-2.16x at 156,251 (N = 1e7).
# Three or more ranges have not been timed.
SHIFT_OR_RANGE_WORDS = 65536


def pair_sumset(
    p: PrefixBitset, q: PrefixBitset, bound: int, *, folds: int | None = None
) -> PrefixBitset:
    """Exact ``(P + Q) ∩ [0, bound]``; both operands must be bounded at ``bound``.

    ORs one operand's bit vector shifted by each member of the other; the
    kernel iterates over the sparser side since cost is popcount x words
    (tie broken toward the left operand; the result is identical either way).
    ``folds``, when given, states that ``P`` is the ``folds``-fold sumset of
    ``Q`` (``0Q`` is ``{0}``), as ``sumset_folds`` passes it; the fold count
    comes only from it.  Nothing checks the statement: a wrong one gives a
    wrong sumset, and a negative count is refused.
    Masks of ``SHIFT_OR_NUMPY_WORDS`` words or more are ORed in place into a
    numpy array (``_shift_or_words``): one byte slice per member, split by
    accumulator region into ranges that each fold on their own CPU, if this
    process may use that many, and share nothing they write.  There, when
    the outer operand is ``Q`` and the inner one a known fold of it, each
    member ORs only a window of the fold: the part that the sums in which it
    holds the largest parts can use, or the smallest, whichever is shorter
    in all.  A fold there that comes close to full is finished by testing
    only its remaining gaps, and is returned run-backed; any other keeps the
    array's bytes as its mask.  Smaller masks are ORed whole, as Python ints.
    A run-backed operand's members and bytes are read from its runs, so only
    the Python-int loop builds a mask from runs, of its inner operand.
    ``{0} + Q`` is ``Q`` itself, returned without a shift or a mask.
    On the numpy path ``folds=1`` states that ``P`` is ``Q``, so the fold is
    A + A, which costs its pair sums when it is scattered: if the pairs
    ``a_j <= a_i`` with ``a_i + a_j <= bound``, at ``PAIR_SCATTER_BYTES``
    each, cost less than the bytes of the shift-OR windows, the sums are set
    in the mask one by one (``_pair_scatter``) and no window is ORed.
    """
    if p.bound != bound or q.bound != bound:
        raise ValueError(
            f"bound mismatch: operands bounded at {p.bound} and {q.bound}, need {bound}"
        )
    if folds is not None and folds < 0:
        raise ValueError(f"folds must be at least 0, got {folds}")
    outer, inner = (p, q) if p.popcount() <= q.popcount() else (q, p)
    if outer.popcount() == 1 and 0 in outer:  # {0} + Q is Q, shifted by nothing
        return inner
    if bound // 64 + 1 < SHIFT_OR_NUMPY_WORDS:
        acc = 0
        inner_mask = inner.mask
        for a in outer.members():
            acc |= inner_mask << a
        return PrefixBitset(bound, acc & full_mask(bound))
    if folds is not None and outer is q:  # inner is kQ, split by each member c at kc
        k = min(folds, bound + 1)  # a k past the bound splits past it too
    else:  # a fold that is the sparser operand ORs all of Q
        k = None
    return _shift_or_words(outer, inner, bound, k)


def _shift_or_words(
    outer: PrefixBitset, inner: PrefixBitset, bound: int, k: int | None
) -> PrefixBitset:
    """``(outer + inner) ∩ [0, bound]``, the OR of ``inner`` shifted by each
    member of ``outer``, by in-place ORs of byte slices into one numpy array.

    ``outer``'s members are read from its cached ``_member_array()``, and
    each batch of them is a slice of that array, grouped by residue once into
    eight ascending lists.  A shift by ``a`` is a byte offset of ``a // 8``
    and a bit shift by ``a % 8``, and member ``a`` ORs one window of
    ``inner``'s bytes onto the target bytes from that offset up.  When
    ``inner`` is the ``k``-fold sumset of ``outer``, ``a`` splits it at
    ``s = k * a``.  Counting a member of that sumset as its k parts, a sum in
    which ``a`` holds the smallest parts uses ``inner``'s members from ``s``
    up, and one in which it holds the largest parts uses those up to ``s``.
    Every sum has
    both, so either window alone is exact, and a single-batch fold takes the
    one with fewer bytes in all, in closed form from the member array.  For
    the squares at 1e7 that is the largest-part window, which ORs about 0.41
    of the bytes of A + A and 0.42 of those of 2A + A.  With ``k`` None
    every member ORs all of ``inner``.  Both kinds of window start and end
    in the order of the members.  With ``k`` 1 the fold is A + A, and when
    its pairs at ``PAIR_SCATTER_BYTES`` each cost less than the cheaper
    windows' bytes it is scattered (``_pair_scatter``) and nothing is ORed.

    The accumulator is the result's own ``bytearray``, viewed as words, and
    is split into the word ranges of ``_split_words``, each ORed from start
    to finish by its own thread, the calling thread included.  For each
    residue a range's thread ORs ``inner``'s bytes over every member's
    window into a private buffer that covers its words and the one below
    them, then ORs that buffer, bit shifted by the residue with the word
    below carrying its high bits in, into its range of the accumulator,
    through a carry chunk of at most 8,192 words that takes each stretch of
    the buffer shifted right, then left.  Bytes shifted past the last word
    fall off.  The threads read only ``inner``'s bytes, write only their own
    range, buffer and chunk, allocate nothing and meet only when joined.
    A range whose thread cannot start, as when its stack does not fit in
    the address space, is folded by the calling thread.  So a fold holds
    ``inner``, the result and about one mask of buffers; the buffers are
    released before the result is counted or the gap test allocates.

    A fold that may come close to full ORs the members in ascending batches
    of 1, 1, 2, 4, 8, ... with smallest-part windows, and counts the zeros
    of the whole accumulator after each; its last batch, if it reaches one,
    takes the cheaper window, since a sum whose smallest parts no earlier
    batch held has its largest parts there.  Once at most one zero per
    ``GAP_TEST_WORDS`` words is left, testing the zeros against the
    remaining members costs less than ORing those, so the fold ends in
    ``_gap_test`` and returns run-backed.  After its smallest member a fold
    has at most ``inner``'s gaps, that member's value and its split point as
    zeros; it takes the checkpoints only if that count, halved at each
    doubling of the members, would reach the switch by the last member, and
    it stops taking them once a doubling fails to halve the zeros.  Any
    other fold is a single batch.  A fold that does not end there returns
    the accumulator's bytes, not copied, and their ``np.bitwise_count``
    total as its mask.
    """
    import numpy as np

    words = bound // 64 + 1
    size = words * 8
    members = outer._member_array()
    total = len(members)
    mul = k or 0  # with no k each split point is 0, and each window all of inner

    def window(a: int, largest: bool) -> tuple[int, int]:
        # the target bytes [start, end) that member a ORs: from its split
        # point up, or from its offset to just past its split point
        o = a >> 3
        at = o + (a * mul >> 3)
        return (o, at + 1) if largest else (at, size)

    # the same windows for every member at once, clipped to the accumulator
    offsets = members >> 3
    at = np.minimum(offsets + (members * mul >> 3), size)
    past = np.minimum(at + 1, size)
    costs = int((past - offsets).sum()), int((size - at).sum())
    largest = k is not None and costs[0] < costs[1]
    if k == 1 and _pair_count(members, bound) * PAIR_SCATTER_BYTES < min(costs):
        del offsets, at, past  # not held while the scatter allocates
        return _pair_scatter(members, bound)
    starts, ends = (offsets, past) if largest else (at, np.full(total, size))
    spans = _split_words(starts, ends, words, _usable_cpus())
    del offsets, at, past, starts, ends  # not held while the fold allocates
    smallest = int(members[0]) if total else 0
    # zeros after the smallest member, at most: inner's gaps, every sum below
    # it and inner's members below its split point
    free = bound + 1 - inner.popcount() + smallest + smallest * mul
    checked = free * GAP_TEST_WORDS <= total * words
    src = inner._padded_bytes()
    out = bytearray(size)  # the result's own bytes, ORed in place
    acc = np.frombuffer(out, "<u8")
    # each range's buffer and carry chunk, touched only by the thread that
    # folds the range; allocated here, as a worker's own would each take a
    # malloc arena
    jobs = [(lo, hi, np.empty(hi - lo + 1, "<u8"), np.empty(min(hi - lo, 8192), "<u8")) for lo, hi in spans]
    errors: list[BaseException] = []

    def work(lo: int, hi: int, buf, carry, residues: list[list[int]], largest: bool) -> None:
        # buf holds words [lo - 1, hi) of one residue's unshifted OR; carry
        # holds one chunk of them at a time, shifted
        base, top, n = lo * 8 - 8, hi * 8, hi - lo
        buf8, part, step = buf.view(np.uint8), acc[lo:hi], len(carry)
        try:
            for r, group in enumerate(residues):
                # this residue's members whose windows end above base and start below top
                first = bisect_right(group, base, key=lambda a: window(a, largest)[1])
                last = bisect_left(group, top, key=lambda a: window(a, largest)[0])
                if first >= last:
                    continue
                buf.fill(0)
                for a in islice(group, first, last):
                    b, e = window(a, largest)
                    b, e, o = max(b, base), min(e, top), a >> 3
                    buf8[b - base : e - base] |= src[b - o : e - o]
                if not r:
                    part |= buf[1:]
                    continue
                for c in range(0, n, step):  # each word shifted, with the high bits of the one below
                    d = min(c + step, n)
                    chunk = carry[: d - c]
                    np.right_shift(buf[c:d], 64 - r, out=chunk)
                    part[c:d] |= chunk
                    np.left_shift(buf[c + 1 : d + 1], r, out=chunk)
                    part[c:d] |= chunk
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    def fold(batch, largest: bool) -> None:
        # the batch's members by residue, each list ascending
        low = batch & 7
        residues = [batch[low == r].tolist() for r in range(8)]
        # the calling thread takes the first range, so one range starts no thread
        threads = []
        try:
            for job in jobs[1:]:
                thread = threading.Thread(target=work, args=(*job, residues, largest))
                try:
                    thread.start()
                except RuntimeError:  # no room for its stack, so the range is folded here
                    work(*job, residues, largest)
                else:
                    threads.append(thread)
            work(*jobs[0], residues, largest)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

    below_bound = np.uint64((1 << (bound % 64 + 1)) - 1)  # last word's bits up to bound
    done, zeros = 0, None
    while True:
        end = min(max(2 * done, 1), total) if checked else total
        fold(members[done:end], largest and end == total)
        done = end
        acc[-1] &= below_bound
        if done == total:
            del src, jobs  # not held while the result is counted
            return PrefixBitset.from_bytes(bound, out, int(np.bitwise_count(acc).sum()))
        last, zeros = zeros, bound + 1 - int(np.bitwise_count(acc).sum())
        if zeros * GAP_TEST_WORDS <= words:
            del jobs  # not held while the gap test allocates its blocks
            gaps = _gap_test(_zeros(acc, bound), members[done:], lambda d: (src[d >> 3] >> (d & 7)) & 1, words)
            return PrefixBitset.from_runs(bound, _gap_runs(gaps, bound))
        checked = last is None or 2 * zeros <= last


def _zeros(acc, bound: int):
    """The zeros of the uint64 words ``acc`` in ``[0, bound]``, ascending;
    one comparison finds the words that hold one, and only those are
    unpacked."""
    import numpy as np

    at = np.flatnonzero(acc != 2**64 - 1)
    holes = np.flatnonzero(np.unpackbits((~acc[at]).view(np.uint8), bitorder="little"))
    zeros = at[holes >> 6] * 64 + (holes & 63)
    return zeros[zeros <= bound]


def _gap_test(gaps, rest, member, words: int):
    """The candidate gaps ``gaps`` (an ascending array) that no member ``m``
    of ``rest`` (ascending) reaches: those ``g`` with no ``m <= g`` for which
    ``member(g - m)`` holds, where ``member`` maps an array of naturals to
    the bools (or 0/1) of their membership in the other operand.

    The one gap test of both kernels that finish a fold on its gaps: the
    shift-OR loop's candidates are its accumulator's zeros and its membership
    test reads ``inner``'s bits; a complement fold's candidates are the gaps
    of hA and a natural is in hA when it is not one of them.  Each block of
    members tests every gap still left, and is sized so that each of its
    index arrays is at most an eighth of a ``words``-word mask.  The test
    stops when no gap is left, or no member is at most the last one.
    """
    import numpy as np

    pairs = max(1, words // 8)
    i = 0
    while len(gaps) and i < len(rest) and rest[i] <= gaps[-1]:
        block = rest[i : i + max(1, pairs // len(gaps))]
        i += len(block)
        d = gaps - block[:, None]
        hit = member(np.maximum(d, 0))
        hit &= d >= 0
        gaps = gaps[~hit.any(axis=0)]
    return gaps


def _gap_runs(gaps, bound: int) -> list[tuple[int, int]]:
    """The runs of ``[0, bound]`` between the ascending gaps ``gaps``."""
    runs, lo = [], 0
    for g in gaps.tolist():
        if g > lo:
            runs.append((lo, g - 1))
        lo = g + 1
    if lo <= bound:
        runs.append((lo, bound))
    return runs


def _complement_fold(gaps, members, words: int):
    """The gaps of ``(h+1)A``, as an array, from the ascending gaps ``gaps``
    of ``hA``, for A's ascending member array ``members``, whose first
    member must be 0.

    With 0 in A, ``hA`` lies in ``(h+1)A``, so a gap ``g`` of ``(h+1)A`` is a
    gap of ``hA`` that no ``a`` in A reaches from ``hA``: every ``a <= g``
    has ``g - a`` among the gaps.  The cost is gaps x the members up to the
    last gap, one search each, and no mask is read or built.
    """
    import numpy as np

    gaps = np.asarray(gaps, np.int64)
    last = len(gaps) - 1

    def member(d):  # d lies in hA: it is not one of its gaps
        return gaps[np.minimum(np.searchsorted(gaps, d), last)] != d

    return _gap_test(gaps, members[1:], member, words)


def _pair_count(members, bound: int) -> int:
    """The pairs ``a_j <= a_i`` of the ascending member array whose sum is
    at most ``bound``: those that ``_pair_scatter`` forms."""
    import numpy as np

    reach = np.searchsorted(members, bound - members, "right")
    return int(np.minimum(reach, np.arange(1, len(members) + 1)).sum())


def _pair_scatter(members, bound: int) -> PrefixBitset:
    """``(A + A) ∩ [0, bound]`` for A's ascending member array ``members``,
    by scattering the pair sums into the mask, one target block at a time.

    Each sum ``a_i + a_j`` with ``j <= i`` is formed once.  A block of the
    target bits ``[lo, hi)`` takes the rows ``a_i`` from ``lo / 2`` to below
    ``hi``, and row ``a_i`` the members from ``lo - a_i`` to below
    ``hi - a_i``, at most ``a_i``, so no block forms a sum that lies outside
    it.  Those sums are set in a bool array of the block by fancy-index
    assignment, in chunks of rows with at most ``size // 32`` pairs unless
    one row has more, so that each index array is about a quarter of the
    mask or less; ``np.packbits`` then writes the block's mask bytes.  A
    block is at most twice the mask's bytes and 512 KB, which ran 5-10%
    faster than 256 KB and 1 MB for squares and random points at 1e7 and
    1e8.  The mask's bytes are allocated before any pair
    is formed, and are the result's own, not copied.  One thread: two doing
    fancy-index assignment ran no faster than one.
    """
    import numpy as np

    size = mask_size(bound)
    buf = bytearray(size)
    out = np.frombuffer(buf, np.uint8)
    span = min(1 << 19, 2 * size)  # target bits per block, a multiple of 8
    block = np.zeros(span, bool)
    chunk = max(1, min(size // 32, 1 << 15))
    count = 0
    for lo in range(0, bound + 1, span):
        hi = min(lo + span, bound + 1)
        first = int(np.searchsorted(members, (lo + 1) // 2))
        rows = members[first : int(np.searchsorted(members, hi))]
        starts = np.searchsorted(members, lo - rows)
        counts = np.searchsorted(members, hi - rows)
        np.minimum(counts, np.arange(first + 1, first + len(rows) + 1), out=counts)
        counts -= starts
        np.maximum(counts, 0, out=counts)
        through = np.cumsum(counts)  # pairs in the rows up to each one
        block[: hi - lo] = False
        r = 0
        while r < len(rows):
            base = int(through[r] - counts[r])
            e = max(r + 1, int(np.searchsorted(through, base + chunk, "right")))
            c = counts[r:e]
            # pair t of the chunk, in row i, is with member starts[i] + (t - the pairs before row i)
            j = np.repeat(starts[r:e] - (through[r:e] - c - base), c)
            j += np.arange(int(through[e - 1]) - base)
            sums = members[j]
            sums += np.repeat(rows[r:e] - lo, c)
            block[sums] = True
            r = e
        out[lo >> 3 : (hi + 7) >> 3] = np.packbits(block[: hi - lo], bitorder="little")
        count += int(np.count_nonzero(block[: hi - lo]))
    return PrefixBitset.from_bytes(bound, buf, count)


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


def _split_words(starts, ends, words: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` word ranges that cover ``[0, words)``, one per
    worker of ``_shift_or_words``, for the target byte windows
    ``[starts[i], ends[i])`` that the members OR, whose starts and ends must
    each be ascending.

    There are at most ``cpus`` ranges, and each spans at least
    ``SHIFT_OR_RANGE_WORDS`` words unless there is one, so smaller masks stay
    on one thread.  The OR work at a word is the number of windows that hold
    it, so the work below a word grows with the starts below it and shrinks
    with the ends; the cuts split the running total of that work evenly,
    then move apart to the least span.  On two CPUs the least span held the
    cut up to about N = 1e7 for cubes, 1.2e7 for squares and 1.5e7 for
    sqrt(N) random points when every window ran to the end; above that the
    balance pays: a 2A + A fold at N = 3e7 took 0.62-0.67 s for squares and
    0.40-0.46 s for random points, against 0.83-1.06 s and 0.71-0.90 s on
    two equal ranges (best and median of 5, two runs, 2 vCPUs).  The running
    total is read in closed form from the ascending start and end words, so
    a split costs a bisection per cut, not a pass over the words.
    """
    import numpy as np

    floor = SHIFT_OR_RANGE_WORDS
    k = min(cpus, words // floor)
    if k <= 1:
        return [(0, words)]
    first, last = starts >> 3, (ends + 7) >> 3  # each window's first word and the word past it
    below_first = np.concatenate(([0], np.cumsum(first)))
    below_last = np.concatenate(([0], np.cumsum(last)))

    def work(w: int) -> int:
        # words ORed in [0, w]: each first word q <= w adds w + 1 - q, and
        # each end word q <= w takes w + 1 - q back
        c = int(np.searchsorted(first, w, "right"))
        d = int(np.searchsorted(last, w, "right"))
        return c * (w + 1) - int(below_first[c]) - d * (w + 1) + int(below_last[d])

    total = work(words - 1)
    cuts = [0]
    for i in range(1, k):
        # the first word at which the work reaches its share, else the last
        cut = bisect_left(range(words - 1), total * i // k, key=work)
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
    set by the run counts rather than by the bound.  Each run of the operand
    with fewer runs shifts the other into an ascending stream, and the
    streams are merged lazily, so the pair sums are never all held at once.
    ``{0} + R`` is ``R`` clipped to the bound, copied without a merge.
    """
    if len(r) < len(s):
        r, s = s, r
    if s == [(0, 0)]:
        return list(_shifted_runs(r, 0, 0, bound))
    return merge_runs(heapq.merge(*(_shifted_runs(r, c, d, bound) for c, d in s)))


# Cost of one run pair in run_sumset, in shift-OR mask words (one word is 64
# bits shifted and ORed): the median break-even of the two kernels over 27
# folds of random runs at N = 1e5, 1e6 and 1e7 (quartiles 577 and 902).
RUN_PAIR_WORDS = 800

# Cost of testing one zero of a nearly full shift-OR fold against the members
# still to fold, in mask words: _shift_or_words switches to the gap test once
# zeros x GAP_TEST_WORDS <= words.  At 1e7 (156,251 words, best of 5, 2
# vCPUs) 64 switched squares fold 4 after 16 of 3,163 members and cubes
# folds 6-9 after 1-4 of 216, and declined cubes fold 5; at 16 cubes fold 5
# switched after 16 members and took 7.3 ms against 6.1-6.3.  At 1e8, 64
# switches cubes fold 5 after 8 of 464 members, and the cubes order took
# 0.58 s, against 0.74 s at 128, which declines it (best of 3).
GAP_TEST_WORDS = 64

# Cost of one pair sum that _pair_scatter sets, in bytes ORed by the numpy
# shift-OR loop: A + A on that loop is scattered instead once pairs x
# PAIR_SCATTER_BYTES < the bytes of its windows.  The median break-even
# (window bytes per pair x scatter time / shift-OR time) over 30 A + A folds,
# squares, cubes and sqrt(N)/2, sqrt(N) and 2 sqrt(N) random points at
# N = 1e6, 2e6, 3e6, 5e6, 1e7 and 3e7 (best of 9, of 3 at 3e7, 2 vCPUs), was
# 129 (quartiles 101 and 207).  The squares' windows cost 62, 108, 139 and
# 196 bytes a pair at 1e6, 3e6, 5e6 and 1e7, so they are scattered from
# about 4e6 up: 22 against 34 ms at 1e7.
PAIR_SCATTER_BYTES = 128


def sumset_folds(expr: SetExpr, bound: int) -> Iterator[PrefixBitset]:
    """``hA ∩ [0, bound]`` for ``h = 0, 1, 2, ...``, endlessly.

    Fold h adds A to the (h-1)-fold sumset, starting from ``{0}``, in two
    phases over one walk of A's runs.  Folds run on interval runs while
    ``max(|R|, |A runs|)·|A runs|`` run pairs, at ``RUN_PAIR_WORDS`` each,
    cost at most what shift-OR costs per fold, ``|A|`` shifts x words.  These
    folds are yielded as run-backed prefixes, so a chain that stays on runs
    builds no mask at all.  Past that every fold goes through ``pair_sumset``
    with one prefix of A's runs as an operand, so A's popcount and member
    array are each built once per chain, and only the Python-int loop builds
    a mask from runs, of its inner operand: A's on A + A, else the last run
    fold's.  Each call passes ``folds=h - 1``, counting the run folds too, so
    where A is the sparser operand the numpy loop ORs each of its members
    over one window of the fold.  A chain that leaves runs at fold 0 gets fold 1 as that
    prefix itself (``{0} + A`` is A, with no shift) and fold 2 as A + A.  A
    fold that the numpy loop finishes on its gaps is run-backed, so the next
    fold reads its bytes from its runs too.  Leaving runs is final and fold
    1 is A itself on either kernel (``run_sumset`` returns A's runs for
    ``{0} + A``), so the max makes fold 1 count as fold 2, the first that
    does work.  Both kernels are exact; the choice changes only the cost.

    Once 0 is in A and a shift-OR fold on a mask of ``SHIFT_OR_NUMPY_WORDS``
    words or more comes back with gaps x ``GAP_TEST_WORDS`` <= words (gaps
    counted as ``bound + 1 - popcount``), the chain keeps that fold's gap
    list, and every later fold is a complement fold (``_complement_fold``):
    the gaps that no member of A reaches from the fold before, with no mask
    read or built, returned run-backed.  A set without 0 never switches,
    and below the numpy floor neither does any chain, so small chains never
    import numpy.
    """
    check_bound(bound)
    base_runs = expr_runs(expr, bound)
    base = PrefixBitset.from_runs(bound, base_runs)
    words = bound // 64 + 1
    shift_or_words = base.popcount() * words
    runs = [(0, 0)]
    bits = PrefixBitset.from_runs(bound, runs)
    h = 0  # bits is hA
    yield bits
    while max(len(runs), len(base_runs)) * len(base_runs) * RUN_PAIR_WORDS <= shift_or_words:
        runs = run_sumset(runs, base_runs, bound)
        bits = PrefixBitset.from_runs(bound, runs)
        h += 1
        yield bits
    zero = 0 in base
    gaps = None  # hA's gaps, once a fold has few of them
    while True:
        if gaps is None:
            bits = pair_sumset(bits, base, bound, folds=h)
            if zero and words >= SHIFT_OR_NUMPY_WORDS and (bound + 1 - bits.popcount()) * GAP_TEST_WORDS <= words:
                gaps = list(bits.gaps())
        else:
            gaps = _complement_fold(gaps, base._member_array(), words)
            bits = PrefixBitset.from_runs(bound, _gap_runs(gaps, bound))
        h += 1
        yield bits


def iterate_sumset(expr: SetExpr, h: int, bound: int) -> SumsetResult:
    """Exact ``hA ∩ [0, bound]``: the h-th of ``sumset_folds``; ``h = 0`` yields ``{0}``."""
    if h < 0:
        raise SemanticError(f"fold count must be >= 0, got {h}")
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
