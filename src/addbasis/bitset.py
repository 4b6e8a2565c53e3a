"""Exact prefixes of subsets of the naturals, held as runs or as a mask.

A :class:`PrefixBitset` pins down a set intersected with ``[0, N]`` exactly.
While a sumset chain folds on interval runs its prefixes keep those runs and
answer every query from them, at a cost set by the run count; a mask, bit
``i`` set iff ``i`` belongs to the set, is built only when a shift-OR fold
needs one.  A mask has one format at every size: the little-endian bytes
of whole 64-bit words (``mask_size``), in which the numpy shift-OR loop ORs
in place (``sumset.pair_sumset``), so each fold hands its bytes to the next
fold and to every query unconverted.  Its members and its gaps are listed
by one regex scan per polarity (``iter_bits``), and its first gap is the
first that ``gaps`` lists.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import chain, takewhile
from typing import Iterator, Sequence

# Set-bit offsets per byte value; and per polarity a scan that always
# matches: it skips the bytes without a set bit (or a clear one) and takes
# up to 256 bytes that hold one, compiled by ``re`` at first use.
_BYTE_BITS = tuple(tuple(b for b in range(8) if (v >> b) & 1) for v in range(256))
_SET_SCAN, _CLEAR_SCAN = rb"\x00*([^\x00]{0,256})", rb"\xff*([^\xff]{0,256})"


def full_mask(bound: int) -> int:
    """All bits ``0..bound`` set."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return (1 << (bound + 1)) - 1


def mask_size(bound: int) -> int:
    """Bytes in the mask of ``[0, bound]``: whole 64-bit words."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return (bound // 64 + 1) * 8


def runs_bytes(runs: Sequence[tuple[int, int]], size: int) -> bytearray:
    """The little-endian bit bytes of the disjoint sorted runs ``(lo, hi)``,
    as a new bytearray of ``size`` bytes, which must hold the last run's
    ``hi``.

    O(size + runs): ORing one big integer per run would copy the whole mask
    per run; a run's middle bytes are copied from a temporary of their length.
    """
    buf = bytearray(size)
    for lo, hi in runs:
        a, b = lo >> 3, hi >> 3
        if a == b:
            buf[a] |= ((1 << (hi - lo + 1)) - 1) << (lo & 7)
        else:
            # disjoint runs share at most their edge bytes, so the middle
            # bytes can be overwritten
            buf[a] |= (0xFF << (lo & 7)) & 0xFF
            buf[a + 1 : b] = b"\xff" * (b - a - 1)
            buf[b] |= 0xFF >> (7 - (hi & 7))
    return buf


def iter_bits(buf: bytes, clear: bool = False) -> Iterator[int]:
    """Yield the indices of the set bits of the little-endian bytes ``buf``,
    or with ``clear`` of its clear bits, in ascending order."""
    flip = 0xFF if clear else 0
    # the regex engine skips the other bytes in C; a stretch per match keeps
    # the per-match overhead off dense masks, and its cap lets the first bits
    # out before a long stretch is read and bounds the bytes each match copies
    for stretch in re.finditer(_CLEAR_SCAN if clear else _SET_SCAN, buf):
        base = stretch.start(1) << 3
        for byte in stretch.group(1):
            for off in _BYTE_BITS[byte ^ flip]:
                yield base + off
            base += 8


class PrefixBitset:
    """Exact membership of a set restricted to ``[0, bound]``.

    Held either as normalized runs (``from_runs``) or as a mask, never both;
    the methods answer the same on both.  A mask is ``mask_size(bound)``
    bytes and their popcount (``from_bytes``, or ``PrefixBitset(bound,
    mask)`` from an integer), which every query reads in place.  On runs
    the queries bisect the run starts and read prefix sums of the run
    widths, so their cost is set by the run count, not by the bound.
    ``.mask``, an integer, is built at each read and never kept; of the
    sumset kernels only the Python-int loop of ``pair_sumset`` reads it.
    The members as one ascending array, which the numpy shift-OR loop reads
    when this set is its outer operand, are built on first use and cached.
    Immutable after construction; safe to share between readers.
    """

    __slots__ = ("bound", "_buf", "_runs", "_starts", "_below", "_count", "_array")

    def __init__(self, bound: int, mask: int):
        size = mask_size(bound)
        if mask < 0 or mask >> (bound + 1):
            raise ValueError("mask has bits above the stated bound")
        self.bound, self._buf, self._count = bound, mask.to_bytes(size, "little"), mask.bit_count()
        self._runs = self._array = None

    @classmethod
    def from_bytes(cls, bound: int, buf: bytes, count: int) -> "PrefixBitset":
        """The set whose mask is ``buf``, which must be ``mask_size(bound)``
        little-endian bytes with no bit above ``bound``; both are checked.
        ``count`` must be its number of set bits, and is not recounted.  The
        buffer is kept, not copied, so the caller must not change it."""
        size = mask_size(bound)
        if len(buf) != size:
            raise ValueError(f"a mask of [0, {bound}] has {size} bytes, got {len(buf)}")
        if int.from_bytes(buf[bound >> 3 :], "little") >> (bound & 7) + 1:  # at most 8 bytes
            raise ValueError("mask has bits above the stated bound")
        self = cls.__new__(cls)
        self.bound, self._buf, self._count = bound, buf, count
        self._runs = self._array = None
        return self

    @classmethod
    def from_runs(cls, bound: int, runs: list[tuple[int, int]]) -> "PrefixBitset":
        """The set of the runs ``(lo, hi)``, which must be sorted, disjoint,
        not touching and within ``[0, bound]``; checked in O(runs).  The list
        is kept, not copied, so the caller must not change it."""
        if bound < 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        self = cls.__new__(cls)
        self.bound = bound
        self._runs = runs
        self._buf = None
        self._array = None
        # run i starts at _starts[i]; _below[i] members lie in runs before it
        self._starts = starts = []
        self._below = below = [0]
        end = -2  # a first run may start at 0
        for lo, hi in runs:
            if lo <= end + 1 or hi < lo or hi > bound:
                raise ValueError(
                    f"runs must be sorted, apart and within [0, {bound}]; got ({lo}, {hi})"
                )
            starts.append(lo)
            below.append(below[-1] + hi - lo + 1)
            end = hi
        self._count = below[-1]
        return self

    @property
    def mask(self) -> int:
        """The bit vector as an integer, built at each read from the bytes or the runs."""
        buf = self._buf if self._runs is None else runs_bytes(self._runs, mask_size(self.bound))
        return int.from_bytes(buf, "little")

    def _padded_bytes(self):
        """The ``mask_size(bound)`` mask bytes as a numpy uint8 array: a view
        of the mask, or of its bytes built from the runs when run-backed.
        Imports numpy."""
        import numpy as np

        buf = self._buf if self._runs is None else runs_bytes(self._runs, mask_size(self.bound))
        return np.frombuffer(buf, np.uint8)

    def _member_array(self):
        """The members in ascending order, as one int64 numpy array; built on
        first call from the runs or from the mask bytes, then cached.  Imports
        numpy."""
        members = self._array
        if members is None:
            import numpy as np

            if self._runs is not None:
                # member j lies in the run k that holds it, at that run's lo
                # plus j less the members below run k; for point runs, at lo
                below = np.array(self._below, np.int64)
                members = np.repeat(np.array(self._starts, np.int64) - below[:-1], np.diff(below))
                members += np.arange(self._count)
            else:
                packed = np.frombuffer(self._buf, np.uint8)
                at = np.flatnonzero(packed)
                bits = np.flatnonzero(np.unpackbits(packed[at], bitorder="little"))
                members = at[bits >> 3] * 8 + (bits & 7)
            self._array = members
        return members

    def _rank(self, i: int) -> int:
        """Members below ``i``, from the runs."""
        j = bisect_left(self._starts, i)
        if j == 0:
            return 0
        lo, hi = self._runs[j - 1]
        return self._below[j - 1] + min(hi, i - 1) - lo + 1

    def __contains__(self, i: int) -> bool:
        if i < 0 or i > self.bound:
            return False
        if self._runs is not None:
            j = bisect_right(self._starts, i)
            return j > 0 and i <= self._runs[j - 1][1]
        return bool((self._buf[i >> 3] >> (i & 7)) & 1)

    def members(self) -> Iterator[int]:
        if self._runs is not None:
            return chain.from_iterable(range(lo, hi + 1) for lo, hi in self._runs)
        return iter_bits(self._buf)

    def to_list(self) -> list[int]:
        return list(self.members())

    def popcount(self) -> int:
        return self._count

    def count_range(self, lo: int, hi: int) -> int:
        """Number of members in ``[lo, hi]``; requires ``hi <= bound``."""
        if hi > self.bound:
            raise ValueError(f"hi={hi} exceeds bound {self.bound}")
        lo = max(lo, 0)
        if lo > hi:
            return 0
        if self._runs is not None:
            return self._rank(hi + 1) - self._rank(lo)
        buf, a, b = self._buf, lo >> 3, hi >> 3
        below = (buf[a] & ((1 << (lo & 7)) - 1)).bit_count()
        if a == 0 and hi == self.bound:
            # every member, less those below lo: no bytes to convert
            return self._count - below
        # the bytes that hold [lo, hi], less their bits below lo and above hi
        above = (buf[b] >> (hi & 7) + 1).bit_count()
        return int.from_bytes(memoryview(buf)[a : b + 1], "little").bit_count() - below - above

    def restrict(self, bound: int) -> "PrefixBitset":
        """The same set windowed to a smaller ``[0, bound]``."""
        if bound > self.bound:
            raise ValueError(f"cannot extend bound {self.bound} to {bound}")
        return PrefixBitset(bound, self.mask & full_mask(bound))

    def is_full(self) -> bool:
        return self._count == self.bound + 1

    def complement_mask(self) -> int:
        """Bits of ``[0, bound]`` that are NOT members."""
        return full_mask(self.bound) & ~self.mask

    def gaps(self) -> Iterator[int]:
        """Non-members in ``[0, bound]``, ascending; the counterpart of ``members``."""
        runs = self._runs
        if runs is not None:
            # each gap lies between one run's end and the next run's start
            edges = [-1, *chain.from_iterable(runs), self.bound + 1]
            return chain.from_iterable(
                range(end + 1, start) for end, start in zip(edges[0::2], edges[1::2])
            )
        return takewhile(self.bound.__ge__, iter_bits(self._buf, clear=True))

    def first_gap(self) -> int | None:
        """Smallest non-member in ``[0, bound]``, or None if full."""
        runs = self._runs
        if runs is None:
            return next(self.gaps(), None)
        gap = runs[0][1] + 1 if runs and runs[0][0] == 0 else 0
        return gap if gap <= self.bound else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixBitset) or self.bound != other.bound:
            return False
        if self._runs is not None and other._runs is not None:
            return self._runs == other._runs
        return self.mask == other.mask

    def __repr__(self) -> str:
        n = self.popcount()
        if n <= 16:
            body = "{" + ",".join(str(i) for i in self.members()) + "}"
        else:
            body = f"<{n} members>"
        return f"PrefixBitset(bound={self.bound}, {body})"
