import json
import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addbasis import (
    COUNTEREXAMPLE,
    CUBES,
    SQUARES,
    Explicit,
    Powers,
    PrefixBitset,
    SubseqSpec,
    VerificationError,
    iterate_sumset,
    materialize,
    order_bounds,
    pair_sumset,
    random_stability_sweep,
    stability_probe,
)
from addbasis import order as order_module
from addbasis import sumset as sumset_module
from addbasis.cli import main
from addbasis.order import SWEEP_ELEMENT_CEILING, SWEEP_MAX_SIZE, SWEEP_RUNS
from strategies import set_exprs
from test_sumset import brute_fold


class TestOrderBounds:
    def test_counterexample(self):
        rep = order_bounds(COUNTEREXAMPLE, 10**4, 5)
        assert (rep.upper, rep.lower, rep.witness) == (3, 3, 21)
        assert rep.witness_fold == 2
        assert rep.certified_lower and rep.zero_in_set

    def test_squares(self):
        rep = order_bounds(SQUARES, 10**4, 6)
        assert (rep.upper, rep.lower, rep.witness) == (4, 4, 7)

    def test_cubes(self):
        rep = order_bounds(CUBES, 10**4, 10)
        assert (rep.upper, rep.lower, rep.witness) == (9, 9, 23)

    def test_hmax_exhausted(self):
        # 3-fold squares still has gaps, so the data certifies order > 3
        rep = order_bounds(SQUARES, 10**4, 3)
        assert rep.upper is None
        assert (rep.lower, rep.witness) == (4, 7)
        assert rep.certified_lower

    def test_scan_rows(self):
        rep = order_bounds(SQUARES, 100, 6)
        assert [(r.h, r.covered) for r in rep.scan] == [
            (1, False),
            (2, False),
            (3, False),
            (4, True),
        ]
        assert rep.scan[2].first_gap == 7

    def test_binary_set(self):
        rep = order_bounds(Explicit((0, 1)), 5, 5)
        assert (rep.upper, rep.lower, rep.witness) == (5, 5, 5)

    def test_no_witness_no_fold(self):
        # {0} covers [0, 0], so no fold has a gap and nothing is certified
        rep = order_bounds(SQUARES, 0, 1)
        assert (rep.upper, rep.lower, rep.witness) == (1, 0, None)
        assert rep.witness_fold is None
        assert not rep.certified_lower

    def test_no_zero_never_covers(self):
        rep = order_bounds(Explicit((1,)), 3, 4)
        assert rep.upper is None
        assert not rep.zero_in_set

    def test_lower_monotone_in_bound(self):
        small = order_bounds(COUNTEREXAMPLE, 2000, 5)
        large = order_bounds(COUNTEREXAMPLE, 10**4, 5)
        assert small.lower <= large.lower

    def test_hmax_precondition(self):
        with pytest.raises(ValueError):
            order_bounds(SQUARES, 100, 0)

    @settings(max_examples=40)
    @given(set_exprs, st.one_of(st.integers(0, 400), st.integers(10_000, 40_000)), st.integers(1, 5))
    def test_matches_shift_or_scan(self, expr, bound, h_max):
        base = materialize(expr, bound)
        assume(base.popcount() <= 300)
        acc = PrefixBitset(bound, 1)
        lower, witness = (1, 1) if bound else (0, None)
        scan = []
        for h in range(1, h_max + 1):
            acc = pair_sumset(acc, base, bound)
            scan.append((h, acc.is_full(), acc.first_gap()))
            if acc.is_full():
                break
            lower, witness = h + 1, acc.first_gap()
        rep = order_bounds(expr, bound, h_max)
        assert [(r.h, r.covered, r.first_gap) for r in rep.scan] == scan
        assert rep.upper == (scan[-1][0] if scan[-1][1] else None)
        assert (rep.lower, rep.witness) == (lower, witness)
        assert rep.witness_fold == (lower - 1 if witness is not None else None)
        assert rep.zero_in_set == (0 in base)

    def test_counterexample_beyond_shift_or_reach(self):
        # three folds on runs; on shift-OR they would take hours at this bound
        rep = order_bounds(COUNTEREXAMPLE, 2 * 10**7, 5)
        assert (rep.upper, rep.lower, rep.witness) == (3, 3, 21)


def waring_g(k):
    """Waring's g(k) = 2^k + floor((3/2)^k) - 2 and its witness
    2^k * floor((3/2)^k) - 1, the least number that needs g(k) k-th powers;
    proved for k = 4 by Balasubramanian, Deshouillers and Dress (1986) and
    for k = 5 by Chen (1964)."""
    q = 3**k // 2**k
    return 2**k + q - 2, 2**k * q - 1


# Dickson (1939): 23 and 239 are the only numbers that need nine cubes, and
# these 15 more are all that need eight
NINE_CUBES = [23, 239]
EIGHT_CUBES = [15, 22, 50, 114, 167, 175, 186, 212, 231, 238, 303, 364, 420, 428, 454]


@pytest.fixture(params=["default", 2, 3])
def chain_split(request, monkeypatch):
    """The shift-OR ranges of a fold: one per CPU above SHIFT_OR_RANGE_WORDS
    (one at 1e6), or a range on each of 2 or 3 CPUs from one word up."""
    if request.param != "default":
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", 1)
        monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: request.param)


class TestClassicalOracles:
    """Fold chains of 7 to 37 folds at 1e6 against Waring's and Dickson's
    theorems, which need no sumset to state."""

    @pytest.mark.parametrize("k, bracket", [(4, (19, 79)), (5, (37, 223))])
    def test_waring_bracket(self, chain_split, k, bracket):
        g, witness = waring_g(k)
        assert (g, witness) == bracket
        rep = order_bounds(Powers(k), 10**6, g + 1)
        assert (rep.upper, rep.lower, rep.witness, rep.witness_fold) == (g, g, witness, g - 1)
        assert rep.certified_lower

    @pytest.mark.parametrize("h, gaps", [(7, sorted(NINE_CUBES + EIGHT_CUBES)), (8, NINE_CUBES)])
    def test_dickson_cube_gaps(self, chain_split, h, gaps):
        assert list(iterate_sumset(CUBES, h, 10**6).bits.gaps()) == gaps


class TestStabilityProbe:
    def test_gap_filling_augmentation_keeps_witnesses(self):
        family = SubseqSpec(2, 10, 1, start=2, count=4)
        rep = stability_probe(
            COUNTEREXAMPLE, tuple(range(11, 22)), 3, family, 210000
        )
        assert 20001 in rep.survivors and 200001 in rep.survivors
        assert rep.survivors == (201, 2001, 20001, 200001)
        assert rep.probe_fold == 2
        assert "ruled out" in rep.conclusion

    def test_empty_augmentation(self):
        family = SubseqSpec(2, 10, 1, start=1, count=4)
        rep = stability_probe(COUNTEREXAMPLE, (), 3, family, 21000)
        assert rep.survivors == (21, 201, 2001, 20001)
        assert rep.added == ()

    def test_h_two_reduces_to_membership(self):
        family = SubseqSpec(a=1, base=None, c=2, start=1, count=3)  # 3, 4, 5
        rep = stability_probe(Explicit((0, 1)), (5,), 2, family, 10)
        assert rep.survivors == (3, 4)
        verdicts = {v.n: v.in_sumset for v in rep.verdicts}
        assert verdicts == {3: False, 4: False, 5: True}

    def test_absorbed_witness(self):
        # F = {21} puts the first witness inside 2(A ∪ F): 21 = 21 + 0
        family = SubseqSpec(2, 10, 1, start=1, count=2)
        rep = stability_probe(COUNTEREXAMPLE, (21,), 3, family, 2100)
        assert rep.survivors == (201,)

    def test_term_beyond_bound(self):
        family = SubseqSpec(2, 10, 1, start=1, count=4)
        with pytest.raises(ValueError):
            stability_probe(COUNTEREXAMPLE, (), 3, family, 2100)

    def test_h_precondition(self):
        with pytest.raises(ValueError):
            stability_probe(COUNTEREXAMPLE, (), 1, SubseqSpec(2, 10, 1, count=1), 100)

    @settings(max_examples=40)
    @given(
        set_exprs,
        st.lists(st.integers(0, 130), max_size=4),
        st.sampled_from((2, 3)),
        st.integers(1, 120),
    )
    def test_verdicts_match_brute_force(self, expr, extra, h, bound):
        elements = set(materialize(expr, bound).members()) | {x for x in extra if x <= bound}
        assume(len(elements) <= 40)
        family = SubseqSpec(a=1, base=None, c=0, start=1, count=bound)  # 1, 2, ..., bound
        rep = stability_probe(expr, extra, h, family, bound)
        fold = brute_fold(elements, h - 1, bound)
        assert [(v.n, v.in_sumset) for v in rep.verdicts] == [
            (n, n in fold) for n in range(1, bound + 1)
        ]

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(0, 1000), max_size=4),
        st.sets(st.integers(0, 1000), max_size=4),
    )
    def test_monotone_augmentation(self, f_small, f_extra):
        f_large = f_small | f_extra
        family = SubseqSpec(2, 10, 1, start=2, count=3)
        small = stability_probe(COUNTEREXAMPLE, tuple(f_small), 3, family, 21000)
        large = stability_probe(COUNTEREXAMPLE, tuple(f_large), 3, family, 21000)
        # growing F can only create representations, never destroy them
        assert set(large.survivors) <= set(small.survivors)


@pytest.fixture
def clear_in_fold(monkeypatch):
    """Corrupt the sumset folds: ``clear_in_fold(h, n)`` drops ``n`` from
    every h-fold the fold chain yields, as a kernel fault would, so only the
    certificate re-check can notice."""
    real = sumset_module.sumset_folds

    def install(h, n):
        def folds(expr, bound):
            for j, bits in enumerate(real(expr, bound)):
                yield PrefixBitset(bound, bits.mask & ~(1 << n)) if j == h else bits

        monkeypatch.setattr(sumset_module, "sumset_folds", folds)  # iterate_sumset
        monkeypatch.setattr(order_module, "sumset_folds", folds)  # order_bounds

    return install


class TestCorruptedFold:
    def test_order_witness_is_refused(self, clear_in_fold, capsys):
        clear_in_fold(3, 6)  # 6 = 1 + 1 + 4, the first gap of 3A would be 7
        with pytest.raises(VerificationError):
            order_bounds(SQUARES, 100, 5)
        assert main(["order", "--set", "squares", "--bound", "100", "--hmax", "5"]) == 3
        assert "verification failure" in capsys.readouterr().err

    def test_stability_survivor_is_refused(self, clear_in_fold):
        clear_in_fold(2, 25)  # 25 = 9 + 16
        family = SubseqSpec(a=1, base=None, c=0, start=25, count=1)
        with pytest.raises(VerificationError):
            stability_probe(SQUARES, (), 3, family, 100)

    def test_verify_gap_scan_is_refused(self, clear_in_fold, capsys):
        clear_in_fold(2, 500)  # 500 = 0 + 500 lies in 2A
        assert main(["verify-counterexample", "--bound", "21000"]) == 3
        report = json.loads(capsys.readouterr().out)
        claims = {c["name"]: c for c in report["result"]["claims"]}
        gap = claims["pair-gap-family"]
        assert gap["status"] == "FAIL"
        assert gap["detail"]["got"] == [21, 201, 500, 2001, 20001]
        assert gap["detail"]["certificates_verified"] is False
        assert report["result"]["overall"] == "FAIL"


def drawn_sets(seed):
    """The F of each sweep run for ``seed``: ``randint``, then ``sample``."""
    rng = random.Random(seed)
    for _ in range(SWEEP_RUNS):
        size = rng.randint(0, SWEEP_MAX_SIZE)
        yield rng.sample(range(SWEEP_ELEMENT_CEILING + 1), size)


class TestSweep:
    UNIVERSAL = tuple(range(SWEEP_ELEMENT_CEILING + 1))
    # 201 = 200 + 1 lies in 2(A ∪ [0, 1000]), so the universal probe loses it
    # and the sweep probes every drawn F
    FALLBACK = SubseqSpec(2, 10, 1, start=2, count=2)

    def test_short_sweep_survives(self):
        family = SubseqSpec(2, 10, 1, start=3, count=2)
        failing = random_stability_sweep(COUNTEREXAMPLE, 3, family, 21000, seed=7)
        assert failing == ()

    @pytest.mark.parametrize(
        "expr, family, bound",
        [
            (COUNTEREXAMPLE, FALLBACK, 21000),
            (COUNTEREXAMPLE, SubseqSpec(2, 10, 1, start=3, count=2), 21000),
            (CUBES, SubseqSpec(1000, None, 0, start=15, count=6), 21000),
            (Powers(4), SubseqSpec(1000, None, 0, start=15, count=6), 21000),
        ],
    )
    def test_runs_keep_universal_survivors(self, expr, family, bound):
        universal = stability_probe(expr, self.UNIVERSAL, 3, family, bound).survivors
        assert universal  # else the containment below is vacuous
        for seed in (0, 1, 2):
            for added in islice(drawn_sets(seed), 15):
                run = stability_probe(expr, added, 3, family, bound)
                assert set(universal) <= set(run.survivors), (seed, added)

    def test_fallback_matches_per_run_probes(self):
        universal = stability_probe(COUNTEREXAMPLE, self.UNIVERSAL, 3, self.FALLBACK, 21000)
        assert universal.survivors == (2001,)
        for seed in (0, 7):
            expected = tuple(
                i
                for i, added in enumerate(drawn_sets(seed))
                if stability_probe(COUNTEREXAMPLE, added, 3, self.FALLBACK, 21000).survivors
                != (201, 2001)
            )
            failing = random_stability_sweep(COUNTEREXAMPLE, 3, self.FALLBACK, 21000, seed=seed)
            assert failing == expected
            assert expected

    def test_universal_probe_decides_alone(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return stability_probe(*args)

        monkeypatch.setattr(order_module, "stability_probe", counted)
        family = SubseqSpec(2, 10, 1, start=3, count=2)
        assert random_stability_sweep(COUNTEREXAMPLE, 3, family, 21000, seed=0) == ()
        assert len(calls) == 1

    def test_deterministic_under_seed(self):
        a = random_stability_sweep(COUNTEREXAMPLE, 3, self.FALLBACK, 21000, seed=123)
        b = random_stability_sweep(COUNTEREXAMPLE, 3, self.FALLBACK, 21000, seed=123)
        c = random_stability_sweep(COUNTEREXAMPLE, 3, self.FALLBACK, 21000, seed=124)
        assert a == b
        assert a != c
