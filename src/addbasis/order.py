"""Order bounds and finite-stability probes.

Lower bounds come with gap witnesses and are certificates for the infinite
set (truncation soundness).  Upper bounds are prefix facts only: "hA covers
[0, N]" says nothing beyond N, and every report labels them that way.
Witnesses and survivors are re-verified by ``representation_count``, which
calls neither sumset kernel: a sum of A's runs is the interval between their
endpoint sums, so n is in hA iff some h runs have ``Σ lo <= n <= Σ hi``.
Sumsets are monotone in the set, so a survivor of the probe of ``A ∪ [0, M]``
survives every finite F ⊆ [0, M]; the random stability sweep is decided by
that one probe whenever it keeps every term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .analysis import SubseqSpec
from .setexpr import Explicit, Interval, SemanticError, SetExpr, Union
from .sumset import (  # noqa: F401  pair_sumset: bench/test_oracles.py traces it here
    iterate_sumset,
    pair_sumset,
    representation_count,
    sumset_folds,
)


class VerificationError(RuntimeError):
    """A certificate failed its independent re-check."""


@dataclass(frozen=True)
class OrderScanRow:
    h: int
    covered: bool
    first_gap: int | None


@dataclass(frozen=True)
class OrderReport:
    """Order bracket for a set on ``[0, bound]``.

    ``upper`` is the smallest h whose h-fold sumset covers the prefix
    (prefix-verified only); ``lower`` is the largest h whose (h-1)-fold
    sumset has a gap, and the gap witness certifies ``order > h - 1``
    for the infinite set.  ``witness_fold`` is that h - 1, or None when
    there is no witness.
    """

    bound: int
    h_max: int
    upper: int | None
    lower: int
    witness: int | None
    witness_fold: int | None
    certified_lower: bool
    zero_in_set: bool
    scan: tuple[OrderScanRow, ...]


def order_bounds(expr: SetExpr, bound: int, h_max: int) -> OrderReport:
    """Scan ``h = 1..h_max`` for first full coverage and last gap.

    Once some hA covers the prefix (including 0, which forces 0 into the
    set), every higher fold covers it too, so the scan stops at the first
    covered h.
    """
    if h_max < 1:
        raise SemanticError(f"h_max must be >= 1, got {h_max}")
    folds = sumset_folds(expr, bound)
    gap = next(folds).first_gap()  # of the 0-fold {0}
    # a gap in jA certifies order > j, i.e. lower = j + 1
    lower, witness = (1, gap) if gap is not None else (0, None)
    scan: list[OrderScanRow] = []
    upper: int | None = None
    for h, acc in zip(range(1, h_max + 1), folds):
        first_gap = acc.first_gap()
        covered = first_gap is None
        scan.append(OrderScanRow(h, covered, first_gap))
        if covered:
            upper = h
            break
        lower, witness = h + 1, first_gap
    if witness is not None and lower >= 2:
        if representation_count(expr, lower - 1, witness) != 0:
            raise VerificationError(
                f"gap witness {witness} has a {lower - 1}-fold representation"
            )
    return OrderReport(
        bound=bound,
        h_max=h_max,
        upper=upper,
        lower=lower,
        witness=witness,
        witness_fold=lower - 1 if witness is not None else None,
        certified_lower=witness is not None,
        zero_in_set=scan[0].first_gap != 0,  # fold 1 is A ∩ [0, bound]
        scan=tuple(scan),
    )


@dataclass(frozen=True)
class TermVerdict:
    k: int
    n: int
    in_sumset: bool


@dataclass(frozen=True)
class StabilityReport:
    """Per-term membership of a witness family in ``(h-1)(A ∪ F)``.

    Survivors are exact certificates that the augmented set's order exceeds
    h-1, for the tested terms.  Sumsets are monotone in the set, so they
    also survive every F' ⊆ F: with F = [0, M], every finite F' ⊆ [0, M].
    """

    added: tuple[int, ...]
    h: int
    probe_fold: int
    family: str
    bound: int
    verdicts: tuple[TermVerdict, ...]
    survivors: tuple[int, ...]
    conclusion: str


def stability_probe(
    expr: SetExpr,
    extra: Iterable[int],
    h: int,
    family: SubseqSpec,
    bound: int,
) -> StabilityReport:
    """Test which family terms stay outside ``(h-1)(A ∪ F)``.

    ``A ∪ F`` is ``Union(A, Explicit(F))``, or A itself when F is empty.
    Reads each verdict as membership in its (h-1)-fold from
    ``sumset_folds``, then re-verifies every survivor with
    ``representation_count``.
    """
    if h < 2:
        raise SemanticError(f"stability probe needs h >= 2, got {h}")
    terms = family.indexed_terms()
    if terms[-1][1] > bound:
        raise SemanticError(
            f"family term {terms[-1][1]} exceeds the probe bound {bound}"
        )
    extra = tuple(sorted(set(extra)))
    aug_expr = Union(expr, Explicit(extra)) if extra else expr
    fold = iterate_sumset(aug_expr, h - 1, bound).bits
    verdicts = tuple(TermVerdict(k, n, n in fold) for k, n in terms)
    survivors = tuple(v.n for v in verdicts if not v.in_sumset)
    for n in survivors:
        if representation_count(aug_expr, h - 1, n) != 0:
            raise VerificationError(
                f"survivor {n} has an {h - 1}-fold representation in the augmented set"
            )
    if survivors:
        conclusion = (
            f"order {h - 1} ruled out for the augmented set: "
            f"{len(survivors)} witness(es) below {bound} have no {h - 1}-fold sum"
        )
    else:
        conclusion = (
            f"all tested terms lie in the {h - 1}-fold sumset; "
            f"order {h - 1} is not ruled out by this family up to {bound}"
        )
    return StabilityReport(
        added=extra,
        h=h,
        probe_fold=h - 1,
        family=str(family),
        bound=bound,
        verdicts=verdicts,
        survivors=survivors,
        conclusion=conclusion,
    )


SWEEP_RUNS = 100
SWEEP_ELEMENT_CEILING = 1000
SWEEP_MAX_SIZE = 5


def random_stability_sweep(
    expr: SetExpr,
    h: int,
    family: SubseqSpec,
    bound: int,
    seed: int = 0,
) -> tuple[int, ...]:
    """Probe stability against ``SWEEP_RUNS`` random finite augmentations.

    Returns the indices of the seeded runs whose F put a family term into
    ``(h-1)(A ∪ F)``, empty when every run keeps every term out.  F is a
    uniform sample of up to ``SWEEP_MAX_SIZE`` elements from
    ``[0, SWEEP_ELEMENT_CEILING]``, seeded for reproducibility.  Sumsets are
    monotone in the set, so a term that survives the probe of
    ``Union(A, Interval(0, SWEEP_ELEMENT_CEILING))`` survives every such F:
    when that one probe keeps every term, no run can fail and none is drawn.
    Otherwise each drawn F is probed.
    """
    terms = tuple(n for _, n in family.indexed_terms())
    universal = Union(expr, Interval(0, SWEEP_ELEMENT_CEILING))
    if stability_probe(universal, (), h, family, bound).survivors == terms:
        return ()
    pool = range(SWEEP_ELEMENT_CEILING + 1)
    rng = random.Random(seed)
    failing: list[int] = []
    for i in range(SWEEP_RUNS):
        size = rng.randint(0, SWEEP_MAX_SIZE)
        added = rng.sample(pool, size)
        if stability_probe(expr, added, h, family, bound).survivors != terms:
            failing.append(i)
    return tuple(failing)
