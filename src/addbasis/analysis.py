"""Counting function, density sequences along subsequences, and trend probes.

The counting function of a set counts elements in ``[1, n]``; zero never
counts.  Density rows keep ratios as exact rationals so reports are
bit-stable across platforms; decimals are rendered only at serialization.
Window extrema over finite tails stand in for liminf/limsup and are always
labeled as empirical estimates, never as limits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .bitset import PrefixBitset
from .setexpr import SemanticError, SetExpr, U64_MAX
from .sumset import iterate_sumset, sumset_folds


@dataclass(frozen=True)
class SubseqSpec:
    """Index sequence ``n_k = a*base^k + c``, or ``a*k + c`` when base is None.

    Terms run over ``k = start .. start + count - 1`` and must be >= 1 and
    strictly increasing.
    """

    a: int = 1
    base: int | None = None
    c: int = 0
    start: int = 1
    count: int = 1

    def __post_init__(self):
        if self.a < 0:
            raise SemanticError(f"subsequence coefficient must be >= 0, got {self.a}")
        if self.base is not None and self.base < 2:
            raise SemanticError(f"subsequence base must be >= 2, got {self.base}")
        if self.start < 0:
            raise SemanticError(f"subsequence start must be >= 0, got {self.start}")
        if self.count < 1:
            raise SemanticError(f"subsequence count must be >= 1, got {self.count}")

    def term(self, k: int) -> int:
        """``n_k``; raises ``SemanticError`` above ``2^64 - 1``."""
        if self.base is None:
            n = self.a * k + self.c
        elif self.a == 0:
            n = self.c
        elif k * (self.base.bit_length() - 1) >= 65 + abs(self.c).bit_length():
            n = None  # a*base^k >= 2^(k*(bits-1)) > 2^64 + |c|: skip the power
        else:
            n = self.a * self.base**k + self.c
        if n is None or n > U64_MAX:
            raise SemanticError(f"subsequence term n_{k} exceeds the 64-bit natural range")
        return n

    def indexed_terms(self) -> tuple[tuple[int, int], ...]:
        """Pairs ``(k, n_k)``; validates positivity, growth and 64-bit range."""
        pairs = []
        prev = 0
        for k in range(self.start, self.start + self.count):
            n = self.term(k)
            if n < 1:
                raise SemanticError(f"subsequence term n_{k} = {n} must be >= 1")
            if pairs and n <= prev:
                raise SemanticError(
                    f"subsequence terms must be strictly increasing, n_{k} = {n}"
                )
            pairs.append((k, n))
            prev = n
        return tuple(pairs)

    def __str__(self) -> str:
        head = f"{self.a}*" if self.a != 1 else ""
        body = "k" if self.base is None else f"{self.base}^k"
        if self.c > 0:
            tail = f"+{self.c}"
        elif self.c < 0:
            tail = str(self.c)
        else:
            tail = ""
        return f"{head}{body}{tail}"


_SUBSEQ_RE = re.compile(r"^(?:(\d+)\*)?(?:(\d+)\^k|k)(?:([+-])(\d+))?$", re.ASCII)


def parse_subseq(text: str, start: int = 1, count: int = 1) -> SubseqSpec:
    """Parse the ASCII mini-grammar ``a*b^k+c`` | ``a*k+c`` | ``b^k``."""
    squeezed = re.sub(r"\s+", "", text, flags=re.ASCII)
    m = _SUBSEQ_RE.match(squeezed)
    if m is None:
        raise SemanticError(f"cannot parse subsequence {text!r}")
    a_s, base_s, sign, c_s = m.groups()
    try:
        a = int(a_s) if a_s is not None else 1
        base = int(base_s) if base_s is not None else None
        c = int(c_s) if c_s is not None else 0
    except ValueError:  # past int's limit on decimal digits
        raise SemanticError(f"subsequence literal too long in {text[:40]!r}...") from None
    if sign == "-":
        c = -c
    return SubseqSpec(a=a, base=base, c=c, start=start, count=count)


@dataclass(frozen=True)
class DensityRow:
    k: int
    n: int
    count: int
    ratio: Fraction


def _density_rows(
    fold: PrefixBitset, terms: tuple[tuple[int, int], ...]
) -> tuple[DensityRow, ...]:
    rows = []
    for k, n in terms:
        cnt = fold.count_range(1, n)
        rows.append(DensityRow(k, n, cnt, Fraction(cnt, n)))
    return tuple(rows)


def density_sequence(expr: SetExpr, t: int, subseq: SubseqSpec) -> tuple[DensityRow, ...]:
    """Rows ``(k, n_k, (tA)(n_k), ratio)`` of the t-fold sumset, one per
    subsequence term, with exact rational ratios."""
    terms = subseq.indexed_terms()
    return _density_rows(iterate_sumset(expr, t, terms[-1][1]).bits, terms)


def window_extrema(rows: Sequence[DensityRow]) -> tuple[Fraction, Fraction]:
    """Min and max ratio over a window of rows; the caller picks the window.

    A finite stand-in for liminf/limsup: an estimate over the sampled window,
    never a convergence claim.
    """
    if not rows:
        raise ValueError("the window needs at least one row")
    ratios = [r.ratio for r in rows]
    return min(ratios), max(ratios)


# the last (h-2)-fold ratio must fall below this for the zero-trend verdict
ZERO_RATIO = Fraction(1, 100)


@dataclass(frozen=True)
class HypothesisReport:
    """Trend samples for the two classic sufficient conditions for finite
    stability of a basis of claimed order h: the (h-2)-fold density heading
    to zero and the (h-1)-fold density staying below one.

    The verdicts are pure functions of the rows and describe the sampled
    window only; h2_ratio_trending_to_zero = False means "does not decay
    within this window", not "the limit is nonzero".
    """

    h: int
    h2_rows: tuple[DensityRow, ...]
    h1_rows: tuple[DensityRow, ...]
    h2_ratio_trending_to_zero: bool
    h2_tail_max: Fraction
    h1_ratio_max: Fraction
    h1_strictly_below_one: bool


def hypothesis_probe(expr: SetExpr, h: int, subseq: SubseqSpec) -> HypothesisReport:
    """Sample ``(h-2)A`` and ``(h-1)A`` densities along a subsequence.

    Both folds are consecutive items of one ``sumset_folds`` chain, so the
    (h-2)-fold is computed once.  The zero-trend verdict requires the last
    ratio to undercut both the first ratio and ``ZERO_RATIO``; slow decays
    report False at desk scale even when the true limit is zero.
    """
    if h < 3:
        raise SemanticError(f"the probe needs a claimed order h >= 3, got {h}")
    terms = subseq.indexed_terms()
    folds = islice(sumset_folds(expr, terms[-1][1]), h - 2, h)
    low, high = (_density_rows(fold, terms) for fold in folds)
    _, tail_max = window_extrema(low[-max(1, len(low) // 2) :])
    _, h1_max = window_extrema(high)
    trending = low[-1].ratio < low[0].ratio and low[-1].ratio < ZERO_RATIO
    return HypothesisReport(
        h=h,
        h2_rows=low,
        h1_rows=high,
        h2_ratio_trending_to_zero=trending,
        h2_tail_max=tail_max,
        h1_ratio_max=h1_max,
        h1_strictly_below_one=h1_max < 1,
    )
