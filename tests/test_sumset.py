from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addbasis import (
    COUNTEREXAMPLE,
    SATURATION_LIMIT,
    Augment,
    BoundCeilingError,
    Explicit,
    Interval,
    PrefixBitset,
    full_mask,
    iterate_sumset,
    materialize,
    pair_sumset,
    representation_count,
    run_sumset,
)
from addbasis import sumset as sumset_module
from addbasis.sumset import RUN_PAIR_WORDS
from strategies import set_exprs


def brute_fold(elements, h, bound):
    """Enumerate all h-tuple sums <= bound, the slow way."""
    elems = sorted(e for e in elements if e <= bound)
    cur = {0}
    for _ in range(h):
        nxt = set()
        for s in cur:
            for a in elems:
                t = s + a
                if t > bound:
                    break
                nxt.add(t)
        cur = nxt
    return cur


class TestPairSumset:
    def test_tiny(self):
        p = materialize(Explicit((0, 1)), 3)
        assert pair_sumset(p, p, 3).to_list() == [0, 1, 2]

    def test_counterexample_head_misses_21(self):
        head = materialize(COUNTEREXAMPLE, 21)
        got = pair_sumset(head, head, 21)
        assert got.to_list() == list(range(21))  # 21 itself is absent

    def test_zero_is_identity(self):
        zero = PrefixBitset(50, 1)
        q = materialize(Interval(3, 17), 50)
        assert pair_sumset(zero, q, 50) == q

    def test_bound_mismatch(self):
        p = materialize(Explicit((0, 1)), 5)
        q = materialize(Explicit((0, 1)), 9)
        with pytest.raises(ValueError):
            pair_sumset(p, q, 9)

    @given(set_exprs, set_exprs, st.integers(0, 300))
    def test_commutes(self, a, b, bound):
        p = materialize(a, bound)
        q = materialize(b, bound)
        assert pair_sumset(p, q, bound) == pair_sumset(q, p, bound)


class TestIterateSumset:
    def test_zero_fold_is_singleton_zero(self):
        res = iterate_sumset(Explicit(()), 0, 10)
        assert res.bits.to_list() == [0]

    def test_one_fold_is_the_prefix(self):
        res = iterate_sumset(COUNTEREXAMPLE, 1, 120)
        assert res.bits == materialize(COUNTEREXAMPLE, 120)

    def test_counterexample_three_fold_full(self):
        res = iterate_sumset(COUNTEREXAMPLE, 3, 10**4)
        assert res.bits.is_full()

    def test_counterexample_two_fold_misses_20001(self):
        res = iterate_sumset(COUNTEREXAMPLE, 2, 20001)
        assert 20001 not in res.bits

    def test_squares_four_fold_full(self):
        assert iterate_sumset(parse("squares"), 4, 10**4).bits.is_full()

    def test_empty_set_folds_empty(self):
        assert iterate_sumset(Explicit(()), 0, 10).bits.to_list() == [0]
        assert iterate_sumset(Explicit(()), 2, 10).bits.popcount() == 0

    def test_negative_fold(self):
        with pytest.raises(ValueError):
            iterate_sumset(COUNTEREXAMPLE, -1, 10)

    @settings(max_examples=30)
    @given(set_exprs, st.integers(0, 3), st.integers(0, 250))
    def test_matches_brute_force(self, expr, h, bound):
        bits = materialize(expr, bound)
        assume(bits.popcount() <= 80)
        got = iterate_sumset(expr, h, bound)
        assert set(got.bits.members()) == brute_fold(bits.members(), h, bound)

    def test_fold_associativity(self):
        bound = 2000
        for expr in (COUNTEREXAMPLE, parse("squares"), parse("explicit{0,3,5}")):
            two = iterate_sumset(expr, 2, bound).bits
            four_a = pair_sumset(two, two, bound)
            three = iterate_sumset(expr, 3, bound).bits
            base = materialize(expr, bound)
            four_b = pair_sumset(base, three, bound)
            assert four_a == iterate_sumset(expr, 4, bound).bits == four_b

    @settings(max_examples=25)
    @given(set_exprs, st.integers(1, 4), st.integers(0, 250))
    def test_monotone_in_h_with_zero(self, expr, h, bound):
        withzero = Augment(expr, (0,))
        small = iterate_sumset(withzero, h, bound).bits
        large = iterate_sumset(withzero, h + 1, bound).bits
        assert small.mask & ~large.mask == 0


def parse(text):
    from addbasis import parse_set_expr

    return parse_set_expr(text)


def shift_or_folds(expr, bound):
    """0A, 1A, 2A, ... by pair_sumset alone, starting from {0}."""
    base = materialize(expr, bound)
    acc = PrefixBitset(bound, 1)
    while True:
        yield acc
        acc = pair_sumset(acc, base, bound)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the folds each kernel runs inside the library."""
    calls = {"runs": 0, "shift-or": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(sumset_module, "run_sumset", counted("runs", run_sumset))
    monkeypatch.setattr(sumset_module, "pair_sumset", counted("shift-or", pair_sumset))
    return calls


class TestRunSumset:
    def test_examples(self):
        assert run_sumset([(0, 10), (22, 100)], [(0, 10), (22, 100)], 300) == [
            (0, 20),
            (22, 200),
        ]
        assert run_sumset([(0, 0), (3, 3)], [(0, 0), (3, 3)], 5) == [(0, 0), (3, 3)]
        assert run_sumset([(5, 9)], [(2, 4)], 10) == [(7, 10)]
        assert run_sumset([(5, 9)], [(6, 7)], 10) == []
        assert run_sumset([], [(0, 3)], 10) == []


class TestKernelSelection:
    """iterate_sumset against a plain shift-OR fold and brute force, over both
    kernels: a fold runs on runs while max(|R|, |A runs|)·|A runs|·RUN_PAIR_WORDS
    is at most shift-OR's |A| x words."""

    @settings(max_examples=100)
    @given(set_exprs, st.one_of(st.integers(0, 400), st.integers(10_000, 40_000)))
    def test_matches_shift_or_and_brute_force(self, expr, bound):
        base = materialize(expr, bound)
        assume(base.popcount() <= 300)
        reference = shift_or_folds(expr, bound)
        for h in range(5):
            got = iterate_sumset(expr, h, bound).bits
            assert got == next(reference)
            if base.popcount() <= 25:
                assert set(got.members()) == brute_fold(base.members(), h, bound)

    def test_counterexample_folds_on_runs(self, kernel_calls):
        bits = iterate_sumset(COUNTEREXAMPLE, 2, 210_000).bits
        assert tuple(bits.gaps()) == (21, 201, 2001, 20001, 200001)
        assert iterate_sumset(COUNTEREXAMPLE, 3, 210_000).bits.is_full()
        assert kernel_calls == {"runs": 5, "shift-or": 0}

    def test_few_short_runs_fold_on_runs(self, kernel_calls):
        expr = parse("interval[0,10] | interval[22,100] | interval[5000,5100]")
        got = iterate_sumset(expr, 4, 100_000).bits
        assert kernel_calls == {"runs": 4, "shift-or": 0}
        assert got == next(islice(shift_or_folds(expr, 100_000), 4, None))

    def test_scattered_points_fold_on_shift_or(self, kernel_calls):
        points = (0, 1, 7, 30, 31, 90, 400, 401, 1000, 2500, 7000, 9999)
        bound = 20_000
        got = iterate_sumset(Explicit(points), 3, bound).bits
        assert kernel_calls == {"runs": 0, "shift-or": 3}
        assert set(got.members()) == brute_fold(points, 3, bound)

    def test_runs_switch_to_shift_or_when_they_multiply(self, kernel_calls):
        # |A| = 2 and words = 2·RUN_PAIR_WORDS, so shift-OR costs 4 run pairs a
        # fold: folds 1 and 2 (2 runs x 2) break even, fold 3 (3 runs x 2) does not
        bound = 128 * RUN_PAIR_WORDS - 1
        expr = Explicit((0, 3))
        got = iterate_sumset(expr, 4, bound).bits
        assert kernel_calls == {"runs": 2, "shift-or": 2}
        assert got.to_list() == [0, 3, 6, 9, 12]


class TestRepresentationCount:
    def test_tiny_pair(self):
        assert representation_count(Explicit((0, 1)), 2, 1) == 2

    def test_counterexample_gap(self):
        assert representation_count(COUNTEREXAMPLE, 2, 21) == 0

    def test_squares_pairs_of_25(self):
        # ordered pairs of squares summing to 25: (0,25),(25,0),(9,16),(16,9)
        assert representation_count(parse("squares"), 2, 25) == 4

    def test_single_fold(self):
        assert representation_count(parse("squares"), 1, 9) == 1
        assert representation_count(parse("squares"), 1, 7) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            representation_count(COUNTEREXAMPLE, 0, 5)
        with pytest.raises(ValueError):
            representation_count(COUNTEREXAMPLE, 2, -1)

    def test_ceiling_guard(self, monkeypatch):
        # the DP holds n + 1 counters, so n is held to the materialize ceiling
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "1000")
        assert representation_count(COUNTEREXAMPLE, 2, 1000) > 0
        with pytest.raises(BoundCeilingError):
            representation_count(COUNTEREXAMPLE, 2, 1001)

    def test_saturation_cap(self):
        # interval [0,60], h=40: counts blow far past 2^64 and must clamp
        big = representation_count(Interval(0, 60), 40, 30)
        assert big == SATURATION_LIMIT

    @settings(max_examples=20)
    @given(set_exprs, st.integers(1, 3), st.integers(0, 120))
    def test_positive_iff_member(self, expr, h, n):
        bits = materialize(expr, n)
        assume(bits.popcount() <= 60)
        member = n in iterate_sumset(expr, h, n).bits
        assert (representation_count(expr, h, n) > 0) == member


def sumset_gaps(expr, h, bound):
    return tuple(iterate_sumset(expr, h, bound).bits.gaps())


class TestComplementWitnesses:
    def test_counterexample_two_fold(self):
        assert sumset_gaps(COUNTEREXAMPLE, 2, 2100) == (21, 201, 2001)

    def test_three_squares_gaps(self):
        gaps = sumset_gaps(parse("squares"), 3, 100)
        assert gaps == (7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95)

    def test_binary_five_fold_covers(self):
        assert sumset_gaps(parse("explicit{0,1}"), 5, 5) == ()

    def test_gaps_certify_as_zero_count(self):
        for g in sumset_gaps(COUNTEREXAMPLE, 2, 2100):
            assert representation_count(COUNTEREXAMPLE, 2, g) == 0
