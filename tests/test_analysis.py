from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addbasis import (
    COUNTEREXAMPLE,
    SQUARES,
    ZERO_RATIO,
    DensityReport,
    DensityRow,
    Explicit,
    Interval,
    SemanticError,
    SubseqSpec,
    density_sequence,
    hypothesis_probe,
    iterate_sumset,
    pair_sumset,
    parse_subseq,
    window_extrema,
)
from addbasis import sumset as sumset_module
from reference import contains
from strategies import set_exprs

LIMINF_RATIOS = (
    Fraction(10, 21),
    Fraction(89, 201),
    Fraction(888, 2001),
    Fraction(8887, 20001),
    Fraction(88886, 200001),
)
LIMSUP_RATIOS = (
    Fraction(89, 100),
    Fraction(888, 1000),
    Fraction(8887, 10000),
    Fraction(88886, 100000),
)


class TestSubseq:
    def test_parse_geometric(self):
        spec = parse_subseq("2*10^k+1", start=1, count=5)
        assert (spec.a, spec.base, spec.c) == (2, 10, 1)
        assert [n for _, n in spec.indexed_terms()] == [21, 201, 2001, 20001, 200001]

    def test_parse_plain_power(self):
        spec = parse_subseq("10^k", start=2, count=3)
        assert [n for _, n in spec.indexed_terms()] == [100, 1000, 10000]

    def test_parse_arithmetic(self):
        spec = parse_subseq("k+2", start=1, count=3)
        assert [n for _, n in spec.indexed_terms()] == [3, 4, 5]

    def test_parse_with_spaces_and_minus(self):
        spec = parse_subseq(" 3 * 2^k - 1 ", start=1, count=4)
        assert [n for _, n in spec.indexed_terms()] == [5, 11, 23, 47]

    def test_parse_rejects_junk(self):
        with pytest.raises(SemanticError):
            parse_subseq("k^2")
        with pytest.raises(SemanticError):
            parse_subseq("2**k")
        # \d and \s read only ASCII, as the grammar states
        for text in ("١٠^k", "10^k\u00a0+1"):
            with pytest.raises(SemanticError, match="cannot parse subsequence"):
                parse_subseq(text)

    def test_round_trip_text(self):
        for text in ("2*10^k+1", "10^k", "k+2", "3*k", "2^k-1"):
            spec = parse_subseq(text, count=2)
            assert parse_subseq(str(spec), count=2) == spec

    def test_terms_must_be_positive(self):
        with pytest.raises(SemanticError):
            parse_subseq("k-5", count=2).indexed_terms()

    def test_terms_must_increase(self):
        with pytest.raises(SemanticError):
            SubseqSpec(a=0, base=None, c=7, count=3).indexed_terms()
        assert SubseqSpec(a=0, base=None, c=7, count=1).indexed_terms() == ((1, 7),)

    def test_term_overflow(self):
        with pytest.raises(SemanticError):
            SubseqSpec(a=1, base=10, c=0, start=25, count=1).indexed_terms()
        # 10^(10^9) has over 3e9 bits; the bit-length bound rejects it uncomputed
        for spec in (
            SubseqSpec(a=1, base=10, c=0, start=10**9, count=1),
            SubseqSpec(a=3, base=2, c=-(2**70), start=10**9, count=1),
        ):
            with pytest.raises(SemanticError):
                spec.indexed_terms()
        # the terms at the edge of the 64-bit range are still computed exactly
        assert SubseqSpec(a=1, base=2, c=-1, start=64, count=1).indexed_terms() == (
            (64, 2**64 - 1),
        )
        with pytest.raises(SemanticError):
            SubseqSpec(a=1, base=2, c=0, start=64, count=1).indexed_terms()
        assert SubseqSpec(a=0, base=10, c=7, start=10**9, count=1).indexed_terms() == (
            (10**9, 7),
        )

    def test_base_too_small(self):
        with pytest.raises(SemanticError):
            SubseqSpec(base=1)


def counted(expr, n):
    """Members of the set in [1, n], read as the density rows read them."""
    return iterate_sumset(expr, 1, n).bits.count_range(1, n)


class TestCounting:
    def test_counterexample_spots(self):
        assert counted(COUNTEREXAMPLE, 21) == 10
        assert counted(COUNTEREXAMPLE, 201) == 89
        assert counted(Explicit((0,)), 100) == 0  # zero never counts

    def test_zero_bound(self):
        assert counted(COUNTEREXAMPLE, 0) == 0

    @given(set_exprs, st.integers(0, 400))
    def test_matches_structural_scan(self, expr, n):
        assert counted(expr, n) == sum(1 for i in range(1, n + 1) if contains(expr, i))

    @given(set_exprs, st.integers(0, 300))
    def test_monotone_and_bounded(self, expr, n):
        assert counted(expr, n) <= n
        assert counted(expr, n) <= counted(expr, n + 1) <= n + 1

    def test_plateau_between_blocks(self):
        # nothing lives in (10^k, 2*10^k + 1], so the counts coincide
        for k in range(1, 6):
            assert counted(COUNTEREXAMPLE, 2 * 10**k + 1) == counted(COUNTEREXAMPLE, 10**k)


class TestDensity:
    def test_liminf_subsequence_rows(self):
        rep = density_sequence(COUNTEREXAMPLE, 1, SubseqSpec(2, 10, 1, start=1, count=5))
        assert tuple(r.ratio for r in rep.rows) == LIMINF_RATIOS
        assert [r.count for r in rep.rows] == [10, 89, 888, 8887, 88886]

    def test_limsup_subsequence_rows(self):
        rep = density_sequence(COUNTEREXAMPLE, 1, SubseqSpec(1, 10, 0, start=2, count=4))
        assert tuple(r.ratio for r in rep.rows) == LIMSUP_RATIOS

    def test_binary_set_rows(self):
        rep = density_sequence(Explicit((0, 1)), 1, SubseqSpec(1, 10, 0, start=1, count=3))
        assert [r.ratio for r in rep.rows] == [
            Fraction(1, 10),
            Fraction(1, 100),
            Fraction(1, 1000),
        ]

    def test_two_fold_density(self):
        # 2A of {0,1} is {0,1,2}
        rep = density_sequence(Explicit((0, 1)), 2, SubseqSpec(1, 10, 0, start=1, count=2))
        assert [r.count for r in rep.rows] == [2, 2]

    @settings(max_examples=25)
    @given(set_exprs)
    def test_row_invariants(self, expr):
        rep = density_sequence(expr, 1, SubseqSpec(1, 4, 0, start=1, count=4))
        counts = [r.count for r in rep.rows]
        assert counts == sorted(counts)
        for r in rep.rows:
            assert 0 <= r.ratio <= 1
        ratios = [r.ratio for r in rep.rows]
        assert window_extrema(rep.rows) == (min(ratios), max(ratios))


class TestWindowExtrema:
    def _tails(self):
        low = density_sequence(COUNTEREXAMPLE, 1, SubseqSpec(2, 10, 1, start=3, count=3))
        high = density_sequence(COUNTEREXAMPLE, 1, SubseqSpec(1, 10, 0, start=3, count=3))
        return low.rows + high.rows

    def test_both_tails_counterexample(self):
        window = [r for r in self._tails() if r.k >= 4]
        assert sorted(r.n for r in window) == [10000, 20001, 100000, 200001]
        mn, mx = window_extrema(window)
        assert mn == Fraction(8887, 20001)
        assert mx == Fraction(88886, 100000)
        assert mx - mn > Fraction(2, 5)
        # the window is a set of rows: their order does not matter
        assert window_extrema(window[::-1]) == (mn, mx)

    def test_constant_ratio_interval(self):
        rep = density_sequence(Interval(0, 1000), 1, SubseqSpec(1, 10, 0, start=1, count=3))
        mn, mx = window_extrema(rep.rows)
        assert mn == mx == 1

    def test_single_row(self):
        rep = density_sequence(Explicit((1,)), 1, SubseqSpec(1, 10, 0, start=1, count=1))
        mn, mx = window_extrema(rep.rows[-4:])
        assert mn == mx == Fraction(1, 10)

    def test_empty_window_rejected(self):
        rows = self._tails()
        for window in ((), rows[len(rows):], [r for r in rows if r.k > 5]):
            with pytest.raises(ValueError):
                window_extrema(window)


class TestHypothesisProbe:
    def test_binary_set_trends_to_zero(self):
        rep = hypothesis_probe(Explicit((0, 1)), 3, SubseqSpec(1, 10, 0, start=1, count=3))
        assert rep.h2_ratio_trending_to_zero
        assert rep.h1_ratio_max == Fraction(2, 10)
        assert rep.h1_strictly_below_one

    def test_squares_order_four(self):
        rep = hypothesis_probe(
            parse_expr("squares"), 4, SubseqSpec(1, 10, 0, start=2, count=5)
        )
        assert [r.count for r in rep.h2_rows] == [43, 330, 2749, 24028, 216341]
        assert rep.h1_ratio_max == Fraction(85, 100)
        assert rep.h1_strictly_below_one
        # two-square density decays too slowly for the desk-scale cutoff
        assert not rep.h2_ratio_trending_to_zero

    def test_counterexample_fails_zero_trend(self):
        rep = hypothesis_probe(COUNTEREXAMPLE, 3, SubseqSpec(2, 10, 1, start=1, count=5))
        assert not rep.h2_ratio_trending_to_zero
        assert rep.h2_tail_max == Fraction(88886, 200001)

    def test_verdicts_recomputable(self):
        rep = hypothesis_probe(COUNTEREXAMPLE, 3, SubseqSpec(2, 10, 1, start=1, count=5))
        ratios = [r.ratio for r in rep.h2_rows]
        expected = ratios[-1] < ratios[0] and ratios[-1] < ZERO_RATIO
        assert rep.h2_ratio_trending_to_zero == expected
        assert rep.h1_ratio_max == max(r.ratio for r in rep.h1_rows)
        assert rep.h1_strictly_below_one == (rep.h1_ratio_max < 1)

    def test_folds_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append((*args, pair_sumset(*args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(sumset_module, "pair_sumset", counted)
        subseq = SubseqSpec(1, 10, 0, start=1, count=3)
        rep = hypothesis_probe(SQUARES, 4, subseq)
        assert len(calls) == 3  # folds 1, 2 and 3 of one chain, on shift-OR
        # fold 1 is {0} + A, which returns A's prefix itself; fold 2 adds
        # that prefix to itself, and fold 3 adds it to fold 2
        (zero, a, _, one), (p2, q2, _, two), (p3, q3, _, _) = calls
        assert zero.to_list() == [0] and one is a
        assert p2 is q2 is a and p3 is two and q3 is a
        assert rep.h2_rows == density_sequence(SQUARES, 2, subseq).rows
        assert rep.h1_rows == density_sequence(SQUARES, 3, subseq).rows

    def test_requires_h_at_least_three(self):
        with pytest.raises(ValueError):
            hypothesis_probe(COUNTEREXAMPLE, 2, SubseqSpec(1, 10, 0, count=2))


def parse_expr(text):
    from addbasis import parse_set_expr

    return parse_set_expr(text)


def test_density_report_rejects_empty():
    with pytest.raises(ValueError):
        DensityReport(())


def test_density_row_shape():
    row = DensityRow(1, 21, 10, Fraction(10, 21))
    assert row.ratio == Fraction(10, 21)
