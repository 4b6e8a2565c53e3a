"""Bounded iterated sumsets over ``[0, N]`` via bit-parallel shift-OR.

Truncation soundness: every element is nonnegative, so any representation of
``n <= N`` uses only addends ``<= N``.  Computing with prefixes ``A ∩ [0, N]``
is therefore exact for the infinite set, and gap certificates found below the
bound are valid unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import PrefixBitset, full_mask, iter_bits
from .setexpr import SetExpr, materialize

# Representation counters saturate here; a returned value equal to the cap
# means "at least this many".
SATURATION_LIMIT = 2**64 - 1


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


def iterate_sumset(expr: SetExpr, h: int, bound: int) -> SumsetResult:
    """Exact ``hA ∩ [0, bound]`` by h-1 pair folds; ``h = 0`` yields ``{0}``."""
    if h < 0:
        raise ValueError(f"fold count must be >= 0, got {h}")
    base = materialize(expr, bound)
    if h == 0:
        return SumsetResult(0, bound, PrefixBitset(bound, 1))
    acc = base
    for _ in range(h - 1):
        acc = pair_sumset(acc, base, bound)
    return SumsetResult(h, bound, acc)


def pairsum_contains(p: PrefixBitset, q: PrefixBitset, n: int) -> bool:
    """Decide ``n in P + Q`` without materializing the sumset.

    ANDs P against Q reversed about n: the intersection is nonempty exactly
    when some split n = a + b hits both sets.  One big-integer AND instead of
    a full kernel run, so per-term probes stay cheap.
    """
    if n < 0:
        return False
    if p.bound < n or q.bound < n:
        raise ValueError(
            f"bound mismatch: operands bounded at {p.bound} and {q.bound}, need {n}"
        )
    qm = q.mask & full_mask(n)
    reversed_q = int(format(qm, f"0{n + 1}b")[::-1], 2)
    return (p.mask & reversed_q) != 0


def representation_count(expr: SetExpr, h: int, n: int) -> int:
    """Number of ORDERED h-tuples of elements summing to ``n``.

    Dynamic-programming convolution over the exact prefix, independent of the
    shift-OR kernel; positive iff ``n`` lies in the h-fold sumset.  The count
    saturates at ``SATURATION_LIMIT``.
    """
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got {h}")
    if n < 0:
        raise ValueError(f"target must be >= 0, got {n}")
    bits = materialize(expr, n)
    if h == 1:
        return 1 if n in bits else 0
    elems = bits.to_list()
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
    return min(total, SATURATION_LIMIT)
