"""Exact prefixes of subsets of the naturals, held as runs or as a mask.

A :class:`PrefixBitset` pins down a set intersected with ``[0, N]`` exactly.
While a sumset chain folds on interval runs its prefixes keep those runs and
answer every query from them, at a cost set by the run count; a mask, bit
``i`` set iff ``i`` belongs to the set, is built only when a shift-OR fold
needs one.  The mask is a single Python integer, so shifts, ORs and
popcounts run in C.  Every Python-int shift or OR allocates a new integer
the size of the mask, so the shift-OR sumset kernel ORs large masks in place
in a numpy word array instead (``sumset.pair_sumset``).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterator, Sequence

# Set-bit offsets per byte value, for streaming members out of a large mask.
# Peeling bits off the integer directly would copy the whole mask per bit.
_BYTE_BITS = tuple(tuple(b for b in range(8) if (v >> b) & 1) for v in range(256))
_NONZERO_STRETCH = re.compile(rb"[^\x00]+")


def full_mask(bound: int) -> int:
    """All bits ``0..bound`` set."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return (1 << (bound + 1)) - 1


def runs_bytes(runs: Sequence[tuple[int, int]], size: int, out=None):
    """The little-endian bit bytes of the disjoint sorted runs ``(lo, hi)``,
    ``size`` bytes long, which must hold the last run's ``hi``: a new
    bytearray, or ``out``, a zeroed numpy uint8 array of ``size`` bytes,
    written in place and returned.

    O(size + runs): ORing one big integer per run would copy the whole mask
    per run.  In ``out`` a run's middle bytes are filled in place; in a
    bytearray they are copied from a temporary of their length.
    """
    buf = bytearray(size) if out is None else memoryview(out)
    for lo, hi in runs:
        a, b = lo >> 3, hi >> 3
        if a == b:
            buf[a] |= ((1 << (hi - lo + 1)) - 1) << (lo & 7)
        else:
            # disjoint runs share at most their edge bytes, so the middle
            # bytes can be overwritten
            buf[a] |= (0xFF << (lo & 7)) & 0xFF
            if out is None:
                buf[a + 1 : b] = b"\xff" * (b - a - 1)
            else:
                out[a + 1 : b] = 0xFF
            buf[b] |= 0xFF >> (7 - (hi & 7))
    return buf if out is None else out


def runs_mask(runs: Sequence[tuple[int, int]], bound: int) -> int:
    """Mask of the disjoint sorted runs ``(lo, hi)``, all within ``[0, bound]``:
    their ``runs_bytes`` up to the last run, converted once."""
    return int.from_bytes(runs_bytes(runs, runs[-1][1] // 8 + 1 if runs else 0), "little")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit indices of ``mask`` in ascending order."""
    if mask < 0:
        raise ValueError("mask must be nonnegative")
    buf = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    # the regex engine skips zero bytes in C, so a sparse mask costs its
    # nonzero bytes rather than all of them; a stretch per match keeps the
    # per-match overhead off dense masks
    for stretch in _NONZERO_STRETCH.finditer(buf):
        base = stretch.start() << 3
        for byte in stretch.group():
            for off in _BYTE_BITS[byte]:
                yield base + off
            base += 8


class PrefixBitset:
    """Exact membership of a set restricted to ``[0, bound]``.

    Held either as normalized runs (``from_runs``) or as a mask
    (``PrefixBitset(bound, mask)``), never both; the methods answer the same
    on both.  On runs the queries (``in``, ``count_range``, ``first_gap``,
    ``gaps``, ``members``, ``is_full``, ``popcount``) bisect the run starts
    and read prefix sums of the run widths, so their cost is set by the run
    count, not by the bound.  ``.mask`` of a run-backed prefix is built from
    the runs at each read and never cached; of the sumset kernels only the
    Python-int loop of ``pair_sumset`` reads it, on its inner operand.  A
    mask's popcount is cached, and two more views are built on first use and
    cached: a bytes view of a mask, through which ``n in bits`` is O(1)
    instead of shifting the whole mask, and the members as one ascending
    array, which the numpy shift-OR loop reads when this set is its outer
    operand; on runs it is read from the runs.  Immutable after
    construction; safe to share between readers.
    """

    __slots__ = ("bound", "_mask", "_runs", "_starts", "_below", "_buf", "_count", "_array")

    def __init__(self, bound: int, mask: int):
        if bound < 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        if mask < 0 or mask >> (bound + 1):
            raise ValueError("mask has bits above the stated bound")
        self.bound = bound
        self._mask: int | None = mask
        self._runs: list[tuple[int, int]] | None = None
        self._buf: bytes | None = None
        self._count: int | None = None
        self._array = None

    @classmethod
    def from_runs(cls, bound: int, runs: list[tuple[int, int]]) -> "PrefixBitset":
        """The set of the runs ``(lo, hi)``, which must be sorted, disjoint,
        not touching and within ``[0, bound]``; checked in O(runs).  The list
        is kept, not copied, so the caller must not change it."""
        if bound < 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        self = cls.__new__(cls)
        self.bound = bound
        self._mask = None
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
        """The bit vector; on a run-backed prefix, built from the runs at each read."""
        if self._runs is not None:
            return runs_mask(self._runs, self.bound)
        return self._mask

    def _bytes(self) -> bytes:
        buf = self._buf
        if buf is None:
            buf = self.mask.to_bytes(self.bound // 8 + 1, "little")
            self._buf = buf
        return buf

    def _padded_bytes(self, size: int):
        """The little-endian bit bytes, ``size >= bound // 8 + 1`` bytes long,
        as a numpy uint8 array; from the runs without building the mask when
        run-backed.  Imports numpy."""
        import numpy as np

        if self._runs is not None:
            return runs_bytes(self._runs, size, np.zeros(size, np.uint8))
        return np.frombuffer(self.mask.to_bytes(size, "little"), np.uint8)

    def _member_array(self):
        """The members in ascending order, as one int64 numpy array; built on
        first call from the runs, or from the mask when there are none, then
        cached.  Imports numpy."""
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
                packed = np.frombuffer(self._mask.to_bytes(self.bound // 8 + 1, "little"), np.uint8)
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
        buf = self._bytes()
        return bool((buf[i >> 3] >> (i & 7)) & 1)

    def members(self) -> Iterator[int]:
        if self._runs is not None:
            return chain.from_iterable(range(lo, hi + 1) for lo, hi in self._runs)
        return iter_bits(self.mask)

    def to_list(self) -> list[int]:
        return list(self.members())

    def popcount(self) -> int:
        count = self._count
        if count is None:
            count = self._count = self.mask.bit_count()
        return count

    def count_range(self, lo: int, hi: int) -> int:
        """Number of members in ``[lo, hi]``; requires ``hi <= bound``."""
        if hi > self.bound:
            raise ValueError(f"hi={hi} exceeds bound {self.bound}")
        lo = max(lo, 0)
        if lo > hi:
            return 0
        if self._runs is not None:
            return self._rank(hi + 1) - self._rank(lo)
        return ((self.mask >> lo) & full_mask(hi - lo)).bit_count()

    def restrict(self, bound: int) -> "PrefixBitset":
        """The same set windowed to a smaller ``[0, bound]``."""
        if bound > self.bound:
            raise ValueError(f"cannot extend bound {self.bound} to {bound}")
        return PrefixBitset(bound, self.mask & full_mask(bound))

    def is_full(self) -> bool:
        if self._runs is not None:
            return self._runs == [(0, self.bound)]
        return self.mask == full_mask(self.bound)

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
        return iter_bits(self.complement_mask())

    def first_gap(self) -> int | None:
        """Smallest non-member in ``[0, bound]``, or None if full."""
        runs = self._runs
        if runs is not None:
            gap = runs[0][1] + 1 if runs and runs[0][0] == 0 else 0
        else:
            # m ^ (m + 1) sets exactly the bits up to the lowest zero of m
            m = self.mask
            gap = (m ^ (m + 1)).bit_length() - 1
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
