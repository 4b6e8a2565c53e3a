import os
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import combinations_with_replacement, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addbasis import (
    COUNTEREXAMPLE,
    Augment,
    BoundCeilingError,
    Explicit,
    Interval,
    Powers,
    PrefixBitset,
    expr_runs,
    full_mask,
    iterate_sumset,
    materialize,
    pair_sumset,
    representation_count,
    run_sumset,
)
from addbasis import setexpr as setexpr_module
from addbasis import sumset as sumset_module
from addbasis.order import order_bounds
from addbasis.sumset import (
    RUN_PAIR_WORDS,
    SHIFT_OR_NUMPY_WORDS,
    SHIFT_OR_RANGE_WORDS,
    sumset_folds,
)
from reference import contains
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
        # a larger operand is refused too, not windowed
        with pytest.raises(ValueError, match="bound mismatch"):
            pair_sumset(q, p, 5)

    @given(set_exprs, set_exprs, st.integers(0, 300))
    def test_commutes(self, a, b, bound):
        p = materialize(a, bound)
        q = materialize(b, bound)
        assert pair_sumset(p, q, bound) == pair_sumset(q, p, bound)


def random_mask(rng, bound, k):
    """A mask of ``k`` distinct random members of ``[0, bound]``."""
    return sum(1 << x for x in rng.sample(range(bound + 1), min(k, bound + 1)))


class TestShiftOrLoops:
    """The numpy word loop against the Python-int loop, forced by moving
    SHIFT_OR_NUMPY_WORDS, on seeded random operands around the floor, split
    into 1, 2, 3 and (where the words allow) 5 accumulator ranges."""

    FLOOR = SHIFT_OR_NUMPY_WORDS
    # words = bound // 64 + 1, so these two bounds straddle the floor with
    # bound % 64 equal to 63 and to 0
    BOUNDS = (0, 63, 64, 127, 200, 64 * FLOOR - 65, 64 * FLOOR - 64)
    # 5 CPUs is more ranges than the 1 to 4 words below bound 256 allow
    CPUS = (1, 2, 3, 5)

    @staticmethod
    def operand_pairs(rng, bound):
        yield random_mask(rng, bound, 40), random_mask(rng, bound, bound // 3 + 1)
        yield random_mask(rng, bound, bound // 50 + 1), random_mask(rng, bound, bound // 50 + 1)
        yield random_mask(rng, bound, 25), random_mask(rng, bound, (bound + 1) * 9 // 10)
        yield 0, random_mask(rng, bound, 100)
        yield 1 << rng.randint(0, bound), random_mask(rng, bound, 100)
        yield 1 << bound, full_mask(bound)
        yield 1, random_mask(rng, bound, 100)
        # the outer is the sparser operand, so both are dense here
        yield random_mask(rng, bound, bound // 2 + 1), random_mask(rng, bound, (bound + 1) * 3 // 4)

    def test_loops_agree(self, monkeypatch):
        rng = random.Random(11)
        for bound in self.BOUNDS:
            for pm, qm in self.operand_pairs(rng, bound):
                p = PrefixBitset(bound, pm)
                q = PrefixBitset(bound, qm)
                default = pair_sumset(p, q, bound)
                monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
                ints = pair_sumset(p, q, bound)
                monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
                monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", 1)
                for cpus in self.CPUS:
                    monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: cpus)
                    assert pair_sumset(p, q, bound) == ints, (bound, cpus)
                monkeypatch.undo()
                assert default == ints, bound

    def test_numpy_loop_leaves_no_threads(self, monkeypatch):
        monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", self.FLOOR)
        squares = materialize(Powers(2), 64 * 4 * self.FLOOR)
        twice = iterate_sumset(Powers(2), 2, squares.bound).bits
        split = sumset_module._split_words
        spans = []
        monkeypatch.setattr(
            sumset_module, "_split_words", lambda *a: spans.extend(split(*a)) or spans
        )
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads switch often, so a missed wait shows
        try:
            thrice = pair_sumset(twice, squares, squares.bound)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(spans) == 3
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        assert thrice == pair_sumset(twice, squares, squares.bound)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", self.FLOOR)
        squares = materialize(Powers(2), 64 * 4 * self.FLOOR)
        raised = []

        def fold():
            try:
                pair_sumset(squares, squares, squares.bound)
            except ArithmeticError as exc:
                raised.append(str(exc))

        caller = threading.Thread(target=fold)

        def islice_failing_off_the_caller(*args):
            if threading.current_thread() is not caller:
                raise ArithmeticError("worker failed")
            return islice(*args)

        monkeypatch.setattr(sumset_module, "islice", islice_failing_off_the_caller)
        before = threading.active_count()
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == ["worker failed"]
        assert threading.active_count() == before

    @given(st.integers(1, 8 * SHIFT_OR_RANGE_WORDS), st.integers(1, 16), st.data())
    def test_word_ranges_cover(self, words, cpus, data):
        picks = data.draw(st.lists(st.integers(0, words * 8 - 1), max_size=50))
        starts = np.array(sorted(picks), dtype=np.int64)
        spans = sumset_module._split_words(starts, words, cpus)
        k = len(spans)
        assert k == max(1, min(cpus, words // SHIFT_OR_RANGE_WORDS))
        assert spans[0][0] == 0 and spans[-1][1] == words
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        if k > 1:
            assert all(hi - lo >= SHIFT_OR_RANGE_WORDS for lo, hi in spans)

        def work_below(cut):
            # words ORed below `cut`: a member ORs every word from its own up
            return sum(max(0, cut - (o >> 3)) for o in picks)

        # each inner cut splits the OR work evenly, to within the one word
        # at the cut, unless the least span on either side holds it in place
        total = work_below(words)
        for i, (lo, cut) in enumerate(spans[:-1], 1):
            held = {lo + SHIFT_OR_RANGE_WORDS, words - (k - i) * SHIFT_OR_RANGE_WORDS}
            share = total * i // k
            assert cut in held or work_below(cut) < share <= work_below(cut + 1)

    def test_small_folds_never_import_numpy(self):
        # squares at 2.1e4 fold on shift-OR with 329-word masks, below the floor
        script = (
            "import sys\n"
            "from addbasis import sumset\n"
            "from addbasis.cli import main\n"
            "calls = []\n"
            "kernel = sumset.pair_sumset\n"
            "sumset.pair_sumset = lambda *a: calls.append(1) or kernel(*a)\n"
            "code = main(['sumset', '--set', 'squares', '--h', '3', '--bound', '21000'])\n"
            "assert code == 0 and len(calls) == 3, (code, calls)\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(sumset_module.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestUsableCpus:
    @pytest.mark.parametrize(
        "text, cpus",
        [
            ("max 100000\n", None),  # cgroup v2, no quota
            ("200000 100000\n", 2),
            ("150000 100000\n", 2),  # rounded up
            ("50000 100000\n", 1),
            ("1000 100000\n", 1),
            ("-1\n 100000\n", None),  # cgroup v1 files joined, no quota
            ("300000\n 100000\n", 3),
            ("", None),
            ("max\n", None),
            ("100000 0\n", None),
            ("1 2 3\n", None),
        ],
    )
    def test_quota_text(self, text, cpus):
        assert sumset_module._quota_cpus(text) == cpus

    def test_quota_caps_affinity(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        files = {
            "v2-3": "300000 100000\n",
            "v2-20": "2000000 100000\n",
            "v2-max": "max 100000\n",
            "v1-2": "200000\n",
            "v1-none": "-1\n",
            "period": "100000\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "dir").mkdir()
        # quota file list -> usable CPUs; "missing" is absent, "dir" unreadable
        for entries, cpus in [
            ((["v2-3"], ["v1-2", "period"]), 3),
            ((["v2-max"], ["v1-2", "period"]), 8),
            ((["missing"], ["v1-2", "period"]), 2),
            ((["missing"], ["v1-none", "period"]), 8),
            ((["missing"], ["v1-2", "missing"]), 8),
            ((["v2-20"],), 8),
            ((["dir"],), 8),
        ]:
            paths = tuple(tuple(str(tmp_path / name) for name in e) for e in entries)
            monkeypatch.setattr(sumset_module, "_CPU_QUOTA_FILES", paths)
            assert sumset_module._usable_cpus() == cpus, entries


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


@pytest.fixture
def walks(monkeypatch):
    """Counts walks of A's runs and masks built from runs, through both the
    setexpr and the sumset bindings."""
    calls = {"expr_runs": 0, "runs_mask": 0}
    for name in calls:
        fn = getattr(sumset_module, name)

        def wrapper(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        for module in (setexpr_module, sumset_module):
            monkeypatch.setattr(module, name, wrapper)
    return calls


class TestFoldChain:
    """One walk of A per chain; A's mask only once the chain leaves runs."""

    def test_run_chain_walks_a_once(self, walks, kernel_calls):
        folds = list(islice(sumset_folds(COUNTEREXAMPLE, 210_000), 4))
        assert walks["expr_runs"] == 1
        assert kernel_calls == {"runs": 3, "shift-or": 0}
        assert tuple(folds[2].gaps()) == (21, 201, 2001, 20001, 200001)
        assert folds[3].is_full()

    def test_shift_or_chain_builds_a_mask_once(self, walks, kernel_calls):
        points = (0, 1, 7, 30, 31, 90, 400, 401, 1000, 2500, 7000, 9999)
        folds = list(islice(sumset_folds(Explicit(points), 20_000), 4))
        assert walks == {"expr_runs": 1, "runs_mask": 1}
        assert kernel_calls == {"runs": 0, "shift-or": 3}
        assert folds[1].to_list() == list(points)

    def test_run_chain_keeps_the_memory_guard(self, monkeypatch):
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "1000")
        assert iterate_sumset(COUNTEREXAMPLE, 2, 1000).bits.first_gap() == 21
        with pytest.raises(BoundCeilingError):
            iterate_sumset(COUNTEREXAMPLE, 2, 1001)


def dp_representation_count(expr, h, n):
    """Ordered h-tuples of elements summing to n, by dynamic-programming
    convolution over every element of A ∩ [0, n]: O(h·|A|·n) time, O(n)
    memory.  The oracle for the count's verdict, count > 0, at small n."""
    elems = [a for a in range(n + 1) if contains(expr, a)]
    if h == 1:
        return 1 if n in elems else 0
    vec = [0] * (n + 1)
    for a in elems:
        vec[a] = 1
    for _ in range(h - 2):
        nxt = [0] * (n + 1)
        for a in elems:
            for m in range(a, n + 1):
                nxt[m] += vec[m - a]
        vec = nxt
    return sum(vec[n - a] for a in elems)


def brute_multiset_count(expr, h, n):
    """Multisets of h runs of A ∩ [0, n] whose interval sum [Σ lo, Σ hi]
    holds n, by listing every multiset: the oracle for the count's pruned
    walk."""
    return sum(
        1
        for picked in combinations_with_replacement(expr_runs(expr, n), h)
        if sum(lo for lo, _ in picked) <= n <= sum(hi for _, hi in picked)
    )


class TestRepresentationCount:
    def test_tiny_pair(self):
        # explicit{0,1} is the one run [0,1], taken twice
        assert representation_count(Explicit((0, 1)), 2, 1) == 1

    def test_counterexample_gap(self):
        assert representation_count(COUNTEREXAMPLE, 2, 21) == 0

    def test_squares_pairs_of_25(self):
        # run pairs of squares holding 25: {[0,1], 25} and {9, 16}
        assert representation_count(parse("squares"), 2, 25) == 2

    def test_single_fold(self):
        assert representation_count(parse("squares"), 1, 9) == 1
        assert representation_count(parse("squares"), 1, 7) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            representation_count(COUNTEREXAMPLE, 0, 5)
        with pytest.raises(ValueError):
            representation_count(COUNTEREXAMPLE, 2, -1)

    def test_ceiling_guard(self, monkeypatch):
        # the count holds no O(n) memory, but n shares the materialize ceiling
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "1000")
        assert representation_count(COUNTEREXAMPLE, 2, 1000) > 0
        with pytest.raises(BoundCeilingError):
            representation_count(COUNTEREXAMPLE, 2, 1001)

    def test_exact_past_64_bits(self):
        # interval [0,60], h=40, n=30: the C(69, 39) ordered tuples, far past
        # 2^64, are the one run [0,30] taken 40 times
        assert representation_count(Interval(0, 60), 40, 30) == 1
        assert brute_multiset_count(Interval(0, 60), 40, 30) == 1

    def test_equal_runs_grouped(self):
        # interval[0,1], h = 40, n = 40: the one run taken 40 times, whose
        # interval sum [0, 40] holds 40
        assert representation_count(Interval(0, 1), 40, 40) == 1

    def test_fold_past_recursion_limit(self):
        assert representation_count(Explicit((0, 1)), 1000, 1000) == 1
        assert representation_count(Explicit((0, 1)), 1000, 1001) == 0

    def test_counterexample_three_fold(self):
        count = representation_count(COUNTEREXAMPLE, 3, 20001)
        assert count == brute_multiset_count(COUNTEREXAMPLE, 3, 20001) == 4

    def test_witness_past_two_million_in_little_memory(self):
        # the re-check of witness 2,000,001 at fold 2 must not hold O(n)
        # memory: a DP over [0, n] traces about 57 MB for this call
        tracemalloc.start()
        try:
            report = order_bounds(Interval(0, 10**6), 2_000_001, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.witness, report.witness_fold) == (2_000_001, 2)
        assert peak < 4 * 2**20

    @given(set_exprs, st.integers(1, 4), st.integers(0, 300))
    def test_matches_brute_force_multisets(self, expr, h, n):
        assert representation_count(expr, h, n) == brute_multiset_count(expr, h, n)

    @settings(max_examples=200)
    @given(set_exprs, st.integers(1, 3), st.integers(0, 120))
    def test_positive_iff_dp_positive(self, expr, h, n):
        assert (representation_count(expr, h, n) > 0) == (dp_representation_count(expr, h, n) > 0)

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
