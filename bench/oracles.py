"""Expected outputs computed without importing ``addbasis``.

Two independent sources of truth:

* interval-run arithmetic: a set is a sorted list of disjoint, non-adjacent
  inclusive runs ``(lo, hi)`` clipped to ``[0, bound]``; the sum of two sets
  is the normalized union of the pairwise run sums.  Exact for every finite
  union of intervals and points, which is what the benchmark's generators
  build.
* number theory for the sparse power workloads: Legendre's three-square
  theorem, Lagrange and Wieferich-Kempner coverage, and a segmented
  two-square sieve whose memory stays small so the oracle does not set the
  process's peak resident memory.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt

Runs = list[tuple[int, int]]


# ---------------------------------------------------------------------------
# interval-run arithmetic


def normalize(runs, bound: int) -> Runs:
    """Sorted, merged runs clipped to ``[0, bound]``; adjacent runs merge."""
    out: Runs = []
    for lo, hi in sorted(runs):
        if lo > bound:
            break
        hi = min(hi, bound)
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def points(values, bound: int) -> Runs:
    return normalize([(v, v) for v in values], bound)


def add(a: Runs, b: Runs, bound: int) -> Runs:
    return normalize(
        [(x + u, y + v) for x, y in a for u, v in b if x + u <= bound], bound
    )


def fold(a: Runs, h: int, bound: int) -> Runs:
    """``hA`` on ``[0, bound]``; ``0A = {0}``."""
    acc = [(0, 0)]
    for _ in range(h):
        acc = add(acc, a, bound)
    return acc


def family_runs(b: int, c: int, m: int, s: int, bound: int) -> Runs:
    """``[0, c]`` plus blocks ``[m*b^(n-1)+s, b^n]`` for ``n >= 2``."""
    runs = [(0, c)]
    n = 2
    while (lo := m * b ** (n - 1) + s) <= bound:
        runs.append((lo, b**n))
        n += 1
    return normalize(runs, bound)


def size(a: Runs) -> int:
    return sum(hi - lo + 1 for lo, hi in a)


def count(a: Runs, lo: int, hi: int) -> int:
    """Members in ``[lo, hi]``."""
    return sum(max(0, min(y, hi) - max(x, lo) + 1) for x, y in a)


def member(a: Runs, n: int) -> bool:
    i = bisect_right(a, (n, float("inf"))) - 1
    return i >= 0 and a[i][0] <= n <= a[i][1]


def first_gap(a: Runs, bound: int) -> int | None:
    nxt = 0
    for lo, hi in a:
        if lo > nxt:
            return nxt
        nxt = hi + 1
    return nxt if nxt <= bound else None


def members(a: Runs, limit: int | None):
    """First ``limit`` members and whether more exist."""
    out: list[int] = []
    for lo, hi in a:
        for n in range(lo, hi + 1):
            if limit is not None and len(out) == limit:
                return out, True
            out.append(n)
    return out, False


def gaps(a: Runs, bound: int, limit: int | None):
    """First ``limit`` non-members in ``[0, bound]`` and whether more exist."""
    comp = []
    nxt = 0
    for lo, hi in a:
        if lo > nxt:
            comp.append((nxt, lo - 1))
        nxt = hi + 1
    if nxt <= bound:
        comp.append((nxt, bound))
    return members(comp, limit)


# ---------------------------------------------------------------------------
# expected report fields, mirroring each command's documented semantics


def ratio(cnt: int, n: int) -> str:
    return str(Fraction(cnt, n))


def density_rows(a: Runs, terms) -> list[dict]:
    """Rows ``k, n, count, ratio`` of the counting function over ``[1, n]``."""
    return [
        {"k": k, "n": n, "count": count(a, 1, n), "ratio": ratio(count(a, 1, n), n)}
        for k, n in terms
    ]


def order_fields(a: Runs, bound: int, hmax: int) -> dict:
    """Scan ``h = 1..hmax`` up to the first covered fold.

    A gap in ``jA`` certifies order > j; ``0A = {0}`` has its gap at 1.
    """
    scan = []
    upper = None
    lower, witness = (1, 1) if bound >= 1 else (0, None)
    acc = [(0, 0)]
    for h in range(1, hmax + 1):
        acc = add(acc, a, bound)
        gap = first_gap(acc, bound)
        scan.append({"h": h, "covered": gap is None, "first_gap": gap})
        if gap is None:
            upper = h
            break
        lower, witness = h + 1, gap
    return {
        "upper": upper,
        "lower": lower,
        "witness": witness,
        "witness_fold": lower - 1 if witness is not None else None,
        "certified_lower": witness is not None,
        "zero_in_set": member(a, 0),
        "scan": scan,
    }


def dp_cells(a: Runs, fold_count: int, n: int) -> int:
    """Work of the h-fold ordered-tuple DP re-check: (h-2)*|A∩[0,n]|*n."""
    if fold_count < 3:
        return 0
    return (fold_count - 2) * count(a, 0, n) * n


def kernel_shifts(a: Runs, h: int, bound: int) -> int:
    """Shifts of the left fold ``acc + A`` for ``h`` folds (outer = sparser)."""
    acc = [(0, 0)]
    shifts = 0
    for _ in range(h):
        shifts += min(size(acc), size(a))
        acc = add(acc, a, bound)
    return shifts


# ---------------------------------------------------------------------------
# counterexample family: paperfamily(10, 10, 2, 2)

VERIFY_CLAIMS = (
    "order-three",
    "pair-gap-family",
    "density-oscillation",
    "window-nonconvergence",
    "stability-sweep",
)
PAIR_GAPS = [21, 201, 2001, 20001]


def verify_expectations(bound: int) -> dict:
    """Fields of ``verify-counterexample --bound bound`` fixed by the paper."""
    a = family_runs(10, 10, 2, 2, bound)
    k_low = max(k for k in range(1, 20) if 2 * 10**k + 1 <= bound)
    k_high = max(k for k in range(1, 20) if 10**k <= bound)
    return {
        "low_rows": density_rows(a, [(k, 2 * 10**k + 1) for k in range(1, k_low + 1)]),
        "high_rows": density_rows(a, [(k, 10**k) for k in range(1, k_high + 1)]),
        "witnesses": [2 * 10 ** (k_low - 1) + 1, 2 * 10**k_low + 1],
    }


# ---------------------------------------------------------------------------
# powers


def legendre_exception(n: int) -> bool:
    """True iff ``n = 4^a (8b + 7)``: not a sum of three squares."""
    if n == 0:
        return False
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


def three_square_count(n: int) -> int:
    """Members of 3·squares in ``[0, n]``, in closed form."""
    excluded = 0
    p = 1
    while 7 * p <= n:
        excluded += (n // p - 7) // 8 + 1
        p *= 4
    return n + 1 - excluded


def two_square_counts(limits, segment: int = 1 << 18) -> dict[int, int]:
    """Members of 2·squares in ``[1, n]`` for each ``n`` in ``limits``.

    Sieves ``a^2 + b^2`` segment by segment, so memory stays at ``segment``
    bytes however large the largest limit is.
    """
    top = max(limits)
    wanted = sorted(limits)
    squares = [b * b for b in range(isqrt(top) + 1)]
    result: dict[int, int] = {}
    running = 0
    lo = 1
    while lo <= top:
        hi = min(lo + segment - 1, top)
        mark = bytearray(hi - lo + 1)
        for a in range(isqrt(hi // 2) + 1):
            a2 = squares[a]
            need = lo - a2  # smallest b >= a with a^2 + b^2 >= lo
            b_lo = a if need <= 0 else max(a, isqrt(need - 1) + 1)
            b_hi = isqrt(hi - a2)
            for b in range(b_lo, b_hi + 1):
                mark[a2 + squares[b] - lo] = 1
        while wanted and wanted[0] <= hi:
            n = wanted.pop(0)
            result[n] = running + mark.count(1, 0, n - lo + 1)
        running += mark.count(1)
        lo = hi + 1
    return result


def small_fold_first_gaps(base: list[int], hmax: int, limit: int) -> list[int | None]:
    """First gap of ``hA ∩ [0, limit]`` for ``h = 1..hmax`` by brute force."""
    reach = {0}
    out = []
    for _ in range(hmax):
        reach = {x + b for x in reach for b in base if x + b <= limit}
        out.append(next((n for n in range(limit + 1) if n not in reach), None))
    return out
