"""End-to-end check of the counterexample family at a chosen bound.

Composes only public library operations: order bracketing, two-fold gap
listing, density rows along both index subsequences with an independent
recount of the block family from its parameters, window extrema over both
tails, and a seeded random stability sweep.  Each claim reports PASS/FAIL
with enough detail to re-derive the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .analysis import (
    DensityReport,
    SubseqSpec,
    density_sequence,
    window_extrema,
)
from .order import (
    SWEEP_ELEMENT_CEILING,
    SWEEP_MAX_SIZE,
    SWEEP_RUNS,
    order_bounds,
    random_stability_sweep,
)
from .report import frac_decimal, jsonable
from .setexpr import COUNTEREXAMPLE, BlockFamily, SemanticError
from .sumset import iterate_sumset, representation_count

MIN_VERIFY_BOUND = 21000
GAP_SCAN_BOUND = 21000
EXPECTED_GAPS = (21, 201, 2001, 20001)
LOW_ANCHOR = Fraction(4, 9)
HIGH_ANCHOR = Fraction(8, 9)
ANCHOR_TOLERANCE = Fraction(1, 10000)
WINDOW_GAP_THRESHOLD = Fraction(2, 5)
NONCONVERGENCE_FLAG = "limit empirically does not exist"


@dataclass(frozen=True)
class Claim:
    name: str
    passed: bool
    detail: dict[str, Any]


@dataclass(frozen=True)
class VerifyOutcome:
    claims: tuple[Claim, ...]
    passed: bool


def _recount(family: BlockFamily, n: int) -> int:
    """Members of ``family`` in ``[1, n]``, counted from its parameters.

    Walks the blocks itself, apart from ``family_blocks`` and ``expr_runs``,
    so it stays independent of the bitset pipeline.  Each block adds its part
    in ``[1, n]`` not already covered: with ``mult = 1, offset = 0`` a block
    starts where the previous one ends, and the head may reach into block 2.
    """
    count = covered = min(family.head_end, n)
    j = 2
    while (lo := family.mult * family.base ** (j - 1) + family.offset) <= n:
        hi = min(family.base**j, n)
        count += max(0, hi - max(lo, covered + 1) + 1)
        covered = max(covered, hi)
        j += 1
    return count


def _density_claim(expr, bound: int) -> tuple[Claim, DensityReport, DensityReport]:
    k_low = 1
    while 2 * 10 ** (k_low + 1) + 1 <= bound:
        k_low += 1
    k_high = 1
    while 10 ** (k_high + 1) <= bound:
        k_high += 1
    low = density_sequence(expr, 1, SubseqSpec(2, 10, 1, start=1, count=k_low))
    high = density_sequence(expr, 1, SubseqSpec(1, 10, 0, start=1, count=k_high))

    recount_ok = all(r.count == _recount(expr, r.n) for r in low.rows + high.rows)

    def approaches(report: DensityReport, anchor: Fraction) -> bool:
        dists = [abs(r.ratio - anchor) for r in report.rows]
        return all(b < a for a, b in zip(dists, dists[1:]))

    low_ok = approaches(low, LOW_ANCHOR)
    high_ok = approaches(high, HIGH_ANCHOR)
    low_final = abs(low.rows[-1].ratio - LOW_ANCHOR)
    high_final = abs(high.rows[-1].ratio - HIGH_ANCHOR)
    anchor_ok = True
    if k_low >= 5:
        anchor_ok = anchor_ok and low_final < ANCHOR_TOLERANCE
    if k_high >= 5:
        anchor_ok = anchor_ok and high_final < ANCHOR_TOLERANCE
    # no family elements lie in (10^k, 2*10^k+1], so the two counts agree
    plateau_ok = all(
        lr.count == hr.count
        for lr in low.rows
        for hr in high.rows
        if lr.k == hr.k
    )
    passed = recount_ok and low_ok and high_ok and anchor_ok and plateau_ok
    detail = {
        "low_subseq": "2*10^k+1",
        "high_subseq": "10^k",
        "low_rows": jsonable(low.rows),
        "high_rows": jsonable(high.rows),
        "low_anchor": str(LOW_ANCHOR),
        "high_anchor": str(HIGH_ANCHOR),
        "low_final_distance": frac_decimal(low_final),
        "high_final_distance": frac_decimal(high_final),
        "recount_agrees": recount_ok,
        "distances_strictly_decreasing": low_ok and high_ok,
        "plateau_counts_agree": plateau_ok,
        "anchor_tolerance_applied": k_low >= 5 or k_high >= 5,
    }
    return Claim("density-oscillation", passed, detail), low, high


def verify_counterexample(bound: int, seed: int = 0) -> VerifyOutcome:
    """Run all claims; requires ``bound >= MIN_VERIFY_BOUND``."""
    if bound < MIN_VERIFY_BOUND:
        raise SemanticError(
            f"bound {bound} below the minimum {MIN_VERIFY_BOUND} needed for "
            "two witness terms and density tails"
        )
    expr = COUNTEREXAMPLE
    claims: list[Claim] = []

    order = order_bounds(expr, bound, h_max=5)
    claims.append(
        Claim(
            "order-three",
            order.upper == 3 and order.lower == 3 and order.witness == 21,
            {
                "upper": order.upper,
                "lower": order.lower,
                "witness": order.witness,
                "witness_fold": order.witness_fold,
                "bound": bound,
                "label": f"upper bound prefix-verified up to N={bound}",
            },
        )
    )

    gaps = tuple(iterate_sumset(expr, 2, GAP_SCAN_BOUND).bits.gaps())
    certs_ok = all(representation_count(expr, 2, g) == 0 for g in gaps)
    claims.append(
        Claim(
            "pair-gap-family",
            gaps == EXPECTED_GAPS and certs_ok,
            {
                "bound": GAP_SCAN_BOUND,
                "expected": list(EXPECTED_GAPS),
                "got": list(gaps),
                "certificates_verified": certs_ok,
            },
        )
    )

    density_claim, low, high = _density_claim(expr, bound)
    claims.append(density_claim)

    lo_ratio, hi_ratio = window_extrema([r for r in low.rows + high.rows if r.k >= 3])
    window_gap = hi_ratio - lo_ratio
    window_ok = window_gap > WINDOW_GAP_THRESHOLD
    claims.append(
        Claim(
            "window-nonconvergence",
            window_ok,
            {
                "tail_min": str(lo_ratio),
                "tail_max": str(hi_ratio),
                "gap_decimal": frac_decimal(window_gap),
                "threshold": str(WINDOW_GAP_THRESHOLD),
                "verdict": NONCONVERGENCE_FLAG if window_ok else "window gap below threshold",
                "label": "empirical window estimate over merged tails, k >= 3",
            },
        )
    )

    k_top = low.rows[-1].k
    family = SubseqSpec(2, 10, 1, start=k_top - 1, count=2)
    sweep = random_stability_sweep(expr, 3, family, bound, seed=seed)
    claims.append(
        Claim(
            "stability-sweep",
            sweep.all_runs_survived,
            {
                "runs": SWEEP_RUNS,
                "seed": seed,
                "witnesses": list(sweep.terms),
                "element_ceiling": SWEEP_ELEMENT_CEILING,
                "max_size": SWEEP_MAX_SIZE,
                "all_runs_survived": sweep.all_runs_survived,
                "failing_runs": list(sweep.failing_runs),
            },
        )
    )

    return VerifyOutcome(
        claims=tuple(claims),
        passed=all(c.passed for c in claims),
    )
