"""Dense bit-vector prefixes of subsets of the naturals.

A :class:`PrefixBitset` pins down a set intersected with ``[0, N]`` exactly:
bit ``i`` is set iff ``i`` belongs to the set, for every ``i <= N``.  The bit
vector is a single Python integer, so shifts, ORs and popcounts run in C.
Every Python-int shift or OR allocates a new integer the size of the mask,
so the shift-OR sumset kernel ORs large masks in place in a numpy word array
instead (``sumset.pair_sumset``).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

# Set-bit offsets per byte value, for streaming members out of a large mask.
# Peeling bits off the integer directly would copy the whole mask per bit.
_BYTE_BITS = tuple(tuple(b for b in range(8) if (v >> b) & 1) for v in range(256))
_NONZERO_STRETCH = re.compile(rb"[^\x00]+")


def full_mask(bound: int) -> int:
    """All bits ``0..bound`` set."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return (1 << (bound + 1)) - 1


def runs_mask(runs: Iterable[tuple[int, int]], bound: int) -> int:
    """Mask of the disjoint sorted runs ``(lo, hi)``, all within ``[0, bound]``.

    Fills a byte buffer and converts it once: O(bound/8 + runs), where ORing
    one big integer per run would copy the whole mask per run.
    """
    buf = bytearray(bound // 8 + 1)
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
    return int.from_bytes(buf, "little")


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

    Immutable after construction; safe to share between readers.  Point
    queries go through a lazily built bytes view so ``n in bits`` is O(1)
    instead of shifting the whole mask.
    """

    __slots__ = ("bound", "mask", "_buf")

    def __init__(self, bound: int, mask: int):
        if bound < 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        if mask < 0 or mask >> (bound + 1):
            raise ValueError("mask has bits above the stated bound")
        self.bound = bound
        self.mask = mask
        self._buf: bytes | None = None

    def _bytes(self) -> bytes:
        buf = self._buf
        if buf is None:
            buf = self.mask.to_bytes(self.bound // 8 + 1, "little")
            self._buf = buf
        return buf

    def __contains__(self, i: int) -> bool:
        if i < 0 or i > self.bound:
            return False
        buf = self._bytes()
        return bool((buf[i >> 3] >> (i & 7)) & 1)

    def members(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def to_list(self) -> list[int]:
        return list(iter_bits(self.mask))

    def popcount(self) -> int:
        return self.mask.bit_count()

    def count_range(self, lo: int, hi: int) -> int:
        """Number of members in ``[lo, hi]``; requires ``hi <= bound``."""
        if hi > self.bound:
            raise ValueError(f"hi={hi} exceeds bound {self.bound}")
        lo = max(lo, 0)
        if lo > hi:
            return 0
        return ((self.mask >> lo) & full_mask(hi - lo)).bit_count()

    def restrict(self, bound: int) -> "PrefixBitset":
        """The same set windowed to a smaller ``[0, bound]``."""
        if bound > self.bound:
            raise ValueError(f"cannot extend bound {self.bound} to {bound}")
        return PrefixBitset(bound, self.mask & full_mask(bound))

    def is_full(self) -> bool:
        return self.mask == full_mask(self.bound)

    def complement_mask(self) -> int:
        """Bits of ``[0, bound]`` that are NOT members."""
        return full_mask(self.bound) & ~self.mask

    def gaps(self) -> Iterator[int]:
        """Non-members in ``[0, bound]``, ascending; the counterpart of ``members``."""
        return iter_bits(self.complement_mask())

    def first_gap(self) -> int | None:
        """Smallest non-member in ``[0, bound]``, or None if full."""
        # m ^ (m + 1) sets exactly the bits up to the lowest zero of m
        m = self.mask
        gap = (m ^ (m + 1)).bit_length() - 1
        return gap if gap <= self.bound else None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrefixBitset)
            and self.bound == other.bound
            and self.mask == other.mask
        )

    def __repr__(self) -> str:
        n = self.popcount()
        if n <= 16:
            body = "{" + ",".join(str(i) for i in self.members()) + "}"
        else:
            body = f"<{n} members>"
        return f"PrefixBitset(bound={self.bound}, {body})"
