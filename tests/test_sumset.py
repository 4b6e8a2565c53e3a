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
    BoundCeilingError,
    Explicit,
    Interval,
    Powers,
    PrefixBitset,
    Union,
    expr_runs,
    full_mask,
    iterate_sumset,
    materialize,
    pair_sumset,
    representation_count,
    run_sumset,
)
from addbasis import bitset as bitset_module
from addbasis import setexpr as setexpr_module
from addbasis import sumset as sumset_module
from addbasis.order import order_bounds
from addbasis.sumset import (
    GAP_TEST_WORDS,
    PAIR_SCATTER_BYTES,
    RUN_PAIR_WORDS,
    SHIFT_OR_NUMPY_WORDS,
    SHIFT_OR_RANGE_WORDS,
    sumset_folds,
)
from addbasis.verify import verify_counterexample
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

    def test_negative_fold_count(self):
        q = materialize(Explicit((0, 1)), 9)
        with pytest.raises(ValueError, match="folds must be at least 0"):
            pair_sumset(q, q, 9, folds=-1)

    @given(set_exprs, set_exprs, st.integers(0, 300))
    def test_commutes(self, a, b, bound):
        p = materialize(a, bound)
        q = materialize(b, bound)
        assert pair_sumset(p, q, bound) == pair_sumset(q, p, bound)


def random_mask(rng, bound, k):
    """A mask of ``k`` distinct random members of ``[0, bound]``."""
    return sum(1 << x for x in rng.sample(range(bound + 1), min(k, bound + 1)))


def run_backed(bits):
    """The same prefix, held as runs."""
    return PrefixBitset.from_runs(bits.bound, expr_runs(Explicit(tuple(bits.members())), bits.bound))


class InlineThread:
    """A stand-in for ``threading.Thread`` whose ``start`` runs the worker to
    completion, so each shift-OR range folds before the next one starts and
    a range that waited on another's progress would hang."""

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


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
        sys.setswitchinterval(1e-5)  # threads switch often, so a race between ranges shows
        try:
            thrice = pair_sumset(twice, squares, squares.bound)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(spans) == 3
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        assert thrice == pair_sumset(twice, squares, squares.bound)

    def test_ranges_fold_independently(self, monkeypatch):
        rng = random.Random(12)
        bound = 64 * 40 - 1
        pairs = [
            (PrefixBitset(bound, pm), PrefixBitset(bound, qm))
            for pm, qm in self.operand_pairs(rng, bound)
        ]
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        ints = [pair_sumset(p, q, bound) for p, q in pairs]
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", 1)
        folds = {}

        def fold():
            for cpus in (2, 3, 5):
                monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: cpus)
                folds[cpus] = [pair_sumset(p, q, bound) for p, q in pairs]

        caller = threading.Thread(target=fold, daemon=True)
        monkeypatch.setattr(sumset_module.threading, "Thread", InlineThread)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a range waited on another"
        assert folds == {cpus: ints for cpus in (2, 3, 5)}

    def test_same_set_loop_matches_ints(self, monkeypatch):
        # pair_sumset(p, p, folds=1) on numpy ORs each pair from its smaller member
        # or from its larger one, whichever ORs fewer bytes in all; sets with
        # members at all 8 residues and above bound / 2, folded on 1, 2 and
        # 3 ranges of InlineThread
        rng = random.Random(13)
        bound = 64 * 40 - 1
        spread = sum(1 << (8 * i + r) for r in range(8) for i in (0, 3, 150, 200, 319))
        masks = [spread, 1 << bound, full_mask(bound)]
        masks += [random_mask(rng, bound, k) for k in (9, 40, 300, 1500)]
        sets = [PrefixBitset(bound, m) for m in masks]
        for bits in sets[:1] + sets[4:]:
            members = list(bits.members())
            assert {a % 8 for a in members} == set(range(8)) and members[-1] > bound // 2
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        ints = [pair_sumset(p, p, bound) for p in sets]
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", 1)
        split = sumset_module._split_words
        splits = []

        def split_seen(starts, ends, words, cpus):
            spans = split(starts, ends, words, cpus)
            splits.append(((starts.tolist(), ends.tolist()), spans))
            return spans

        monkeypatch.setattr(sumset_module, "_split_words", split_seen)
        folds = {}

        def fold():
            for cpus in (1, 2, 3):
                monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: cpus)
                folds[cpus] = [pair_sumset(p, p, bound, folds=1) for p in sets]

        caller = threading.Thread(target=fold, daemon=True)
        monkeypatch.setattr(sumset_module.threading, "Thread", InlineThread)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a range waited on another"
        assert folds == {cpus: ints for cpus in (1, 2, 3)}
        # a member at byte offset o ORs the target bytes from 2o to the end,
        # as the smaller member of its pairs, or from o to 2o, as the larger
        # one, and the ranges are split for that work
        size = (bound // 64 + 1) * 8
        want, larger_wins = [], []
        for p in sets:
            offsets = [a // 8 for a in p.members()]
            smaller = ([min(2 * o, size) for o in offsets], [size] * len(offsets))
            larger = (offsets, [min(2 * o + 1, size) for o in offsets])
            cost = [sum(e - s for s, e in zip(*windows)) for windows in (smaller, larger)]
            larger_wins.append(cost[1] < cost[0])
            want.append(larger if larger_wins[-1] else smaller)
        assert True in larger_wins and False in larger_wins
        assert [windows for windows, _ in splits] == want * 3
        assert [len(spans) for _, spans in splits] == [1] * len(sets) + [2] * len(sets) + [3] * len(sets)

    def test_numpy_loop_memory(self, monkeypatch):
        # the loop allocates the result's own bytes and one buffer per range,
        # about 2 masks, beside a carry chunk of at most 8,192 words per
        # range, the batch's members by residue and, at each popcount, an
        # eighth of a mask of bit counts and the sum's cast buffer (up to
        # 8,192 words); at a 1 MB mask it took at most 2.38 masks, on 3
        # ranges.  A carry the size of each range and a copy of the result,
        # as the loop once held, took 3.1-3.2.  2A + A takes no checkpoints;
        # a sparse outer on a dense inner with few gaps takes them and ends
        # in the gap test, after the buffers are released
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", self.FLOOR)
        squares = materialize(Powers(2), 64 * 128 * self.FLOOR)
        bound = squares.bound
        twice = iterate_sumset(Powers(2), 2, bound).bits
        rng = random.Random(14)
        sparse = PrefixBitset(bound, random_mask(rng, bound, 40) | 1)
        few_gaps = PrefixBitset(bound, full_mask(bound) & ~random_mask(rng, bound, 100))
        mask_bytes = (bound // 64 + 1) * 8
        for name, p, q in (("2A + A", twice, squares), ("gap test", sparse, few_gaps)):
            for cpus in (1, 3):
                monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: cpus)
                tracemalloc.start()
                try:
                    bits = pair_sumset(p, q, bound)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert (bits._runs is not None) == (name == "gap test"), (name, cpus)
                assert peak <= 2.75 * mask_bytes, (name, cpus, peak / mask_bytes)

    def test_chain_memory(self):
        # a chain holds A, its last fold (the inner operand, a mask or runs)
        # and the fold in progress: above what A takes, the squares to 4A
        # and the cubes to 9A (shift-OR, gap test and complement folds) stay
        # within one mask and the loop's 2.75 at a 1 MB mask (3.32-3.34 with
        # numpy 2.4)
        bound = 64 * 128 * self.FLOOR
        mask_bytes = (bound // 64 + 1) * 8
        for k, h in ((2, 4), (3, 9)):
            tracemalloc.start()
            try:
                folds = sumset_folds(Powers(k), bound)
                next(folds)  # {0}, once A is built
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for bits in islice(folds, h):
                    pass
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert bits.popcount() == bound + 1, k  # Lagrange's four squares, Wieferich-Kempner's nine cubes
            assert peak <= 3.75 * mask_bytes, (k, peak / mask_bytes)

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

    def test_range_folded_here_when_its_thread_cannot_start(self, monkeypatch):
        # in a full address space a worker's stack may not fit; its range is
        # then folded by the calling thread, as if it had started
        monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", self.FLOOR)
        squares = materialize(Powers(2), 64 * 4 * self.FLOOR)
        want = pair_sumset(squares, squares, squares.bound)
        start, calls = threading.Thread.start, []

        def start_every_other(thread):
            calls.append(thread)
            if len(calls) % 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_every_other)
        assert pair_sumset(squares, squares, squares.bound) == want
        assert len(calls) == 2

    @given(st.integers(1, 8 * SHIFT_OR_RANGE_WORDS), st.integers(1, 16), st.data())
    def test_word_ranges_cover(self, words, cpus, data):
        # byte windows [start, end) with ascending starts and ends, as the
        # members OR them
        picks = sorted(data.draw(st.lists(st.integers(0, words * 8 - 1), max_size=50)))
        n = len(picks)
        tops = sorted(data.draw(st.lists(st.integers(1, words * 8), min_size=n, max_size=n)))
        ends_at = [max(s + 1, e) for s, e in zip(picks, tops)]
        starts = np.array(picks, dtype=np.int64)
        ends = np.array(ends_at, dtype=np.int64)
        spans = sumset_module._split_words(starts, ends, words, cpus)
        k = len(spans)
        assert k == max(1, min(cpus, words // SHIFT_OR_RANGE_WORDS))
        assert spans[0][0] == 0 and spans[-1][1] == words
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        if k > 1:
            assert all(hi - lo >= SHIFT_OR_RANGE_WORDS for lo, hi in spans)

        def work_below(cut):
            # words ORed below `cut`: a window ORs every word it touches
            return sum(max(0, min(cut, -(-e // 8)) - (s >> 3)) for s, e in zip(picks, ends_at))

        # each inner cut splits the OR work evenly, to within the one word
        # at the cut, unless the least span on either side holds it in place
        total = work_below(words)
        for i, (lo, cut) in enumerate(spans[:-1], 1):
            held = {lo + SHIFT_OR_RANGE_WORDS, words - (k - i) * SHIFT_OR_RANGE_WORDS}
            share = total * i // k
            assert cut in held or work_below(cut) < share <= work_below(cut + 1)

    def test_small_folds_never_import_numpy(self):
        # squares at 2.1e4 fold on shift-OR with 329-word masks, below the
        # floor; so do the cubes up to 9A, although 8A's 2 gaps would
        # switch a chain from the floor on to complement folds
        script = (
            "import sys\n"
            "from addbasis import parse_set_expr, sumset\n"
            "from addbasis.cli import main\n"
            "calls = []\n"
            "kernel = sumset.pair_sumset\n"
            "sumset.pair_sumset = lambda *a, **k: calls.append(1) or kernel(*a, **k)\n"
            "code = main(['sumset', '--set', 'squares', '--h', '3', '--bound', '21000'])\n"
            "assert code == 0 and len(calls) == 3, (code, calls)\n"
            "code = main(['order', '--set', 'cubes', '--bound', '21000', '--hmax', '10'])\n"
            "assert code == 0 and len(calls) == 3 + 9, (code, calls)\n"
            "eight = sumset.iterate_sumset(parse_set_expr('cubes'), 8, 21000).bits\n"
            "assert list(eight.gaps()) == [23, 239] and 2 * sumset.GAP_TEST_WORDS <= 21000 // 64 + 1\n"
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


class TestGapPath:
    """Numpy folds finished by testing their last gaps, against the Python-int
    loop: forced onto the numpy loop on 1, 2 and 3 ranges of InlineThread,
    at gap prices that switch after the first member (0), after a few
    batches (1) or, at these 40 words, only on a full accumulator (the
    default)."""

    BOUND = 64 * 40 - 1

    @classmethod
    def cases(cls, rng):
        bound = cls.BOUND
        full = full_mask(bound)
        sparse = PrefixBitset(bound, random_mask(rng, bound, 30) | 1)
        few_gaps = PrefixBitset(bound, full & ~random_mask(rng, bound, 12))
        yield "dense inner with few gaps", sparse, few_gaps
        yield "the same inner, run-backed", sparse, run_backed(few_gaps)
        high = PrefixBitset(bound, sum(1 << a for a in rng.sample(range(40, bound), 30)))
        yield "smallest outer member > 0", high, few_gaps
        yield "empty outer", PrefixBitset(bound, 0), few_gaps
        yield "empty inner", sparse, PrefixBitset(bound, 0)
        # 1 + (h - 1) fills each hole h
        holes = sum(1 << h for h in (10, 100, 1000, 2000))
        yield "full result", PrefixBitset(bound, 0b11 | 1 << 500), PrefixBitset(bound, full & ~holes)
        # no a in S reaches bound, since bound - a is missing, nor 0
        s = rng.sample(range(1, 200), 20)
        edges = full & ~sum(1 << (bound - a) for a in s)
        yield "gaps at 0 and at bound", PrefixBitset(bound, sum(1 << a for a in s)), PrefixBitset(bound, edges)
        a = run_backed(PrefixBitset(bound, random_mask(rng, bound, 250)))
        yield "A + A", a, a

    def test_gap_path_matches_ints(self, monkeypatch):
        rng = random.Random(21)
        cases = list(self.cases(rng))
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        ints = [pair_sumset(p, q, self.BOUND) for _, p, q in cases]
        assert ints[5].is_full() and 0 not in ints[6] and self.BOUND not in ints[6]
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", 1)
        folds = {}

        def fold():
            for price in (0, 1, GAP_TEST_WORDS):
                monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", price)
                for cpus in (1, 2, 3):
                    monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: cpus)
                    folds[price, cpus] = [pair_sumset(p, q, self.BOUND) for _, p, q in cases]

        caller = threading.Thread(target=fold, daemon=True)
        monkeypatch.setattr(sumset_module.threading, "Thread", InlineThread)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a range waited on another"
        for (price, cpus), got in folds.items():
            for (name, _, _), bits, want in zip(cases, got, ints):
                assert bits == want, (name, price, cpus)
                answers = (bits.first_gap(), bits.is_full(), bits.popcount(), list(bits.gaps()))
                assert answers == (want.first_gap(), want.is_full(), want.popcount(), list(want.gaps()))
                # at price 0 every fold with two or more outer members
                # switches after its first, and returns run-backed
                if price == 0:
                    assert (bits._runs is not None) == ("empty" not in name), name

    @staticmethod
    def naive_gap_runs(acc, inner, rest, bound):
        """The gap test the slow way: the runs of ``[0, bound]`` less the
        zeros of ``acc`` (an int) that no ``m`` in ``rest`` reaches with a
        member of ``inner`` (an int)."""
        covered = [
            acc >> n & 1 or any(n >= m and inner >> (n - m) & 1 for m in rest)
            for n in range(bound + 1)
        ]
        runs, start = [], None
        for n, hit in enumerate(covered):
            if hit and start is None:
                start = n
            elif not hit and start is not None:
                runs.append((start, n - 1))
                start = None
        if start is not None:
            runs.append((start, bound))
        return runs

    @staticmethod
    def gap_runs_cases(rng):
        """(name, bound, acc, inner, rest): ``acc`` and ``inner`` as ints,
        ``rest`` ascending; ``acc`` has no bit above ``bound``, as the loop
        hands it over."""
        bound = 64 * 20 - 1
        full = full_mask(bound)
        inner = full & ~random_mask(rng, bound, 40)
        rest = sorted(rng.sample(range(1, bound + 1), 15))
        edges = 1 | 1 << 5 | 1 << (bound - 1) | 1 << bound
        yield "zeros in the first and last words", bound, full & ~edges, inner, rest
        yield "a first word of zeros", bound, full & ~((1 << 64) - 1), inner, rest
        short = 64 * 20 - 30  # the last word's top 29 bits lie above the bound
        below = full_mask(short)
        yield "zeros above the bound", short, below & ~(1 << 3 | 1 << short), inner & below, rest
        yield "zeros above the bound only", short, below, inner & below, rest
        scattered = full & ~random_mask(rng, bound, 25)
        yield "empty rest", bound, scattered, inner, []
        gaps = [n for n in range(bound + 1) if not scattered >> n & 1]
        yield "rest above the last gap", bound, scattered, inner, sorted({gaps[-1] + 1, bound})
        many = sorted(rng.sample(range(bound + 1), 60))
        yield "one zero, many members", bound, full & ~(1 << 1000), random_mask(rng, bound, 30), many
        # 160 words give blocks of 20 // len(gaps) members: one for every
        # block while more than 10 zeros are left
        wide = 64 * 160 - 1
        acc = full_mask(wide) & ~random_mask(rng, wide, 60)
        few = sorted(rng.sample(range(wide + 1), 12))
        yield "one member per block", wide, acc, random_mask(rng, wide, 30), few
        yield "empty inner", bound, scattered, 0, rest
        for _ in range(40):
            b = rng.randint(0, 700)
            rest = sorted(rng.sample(range(b + 1), rng.randint(0, min(b + 1, 20))))
            acc = full_mask(b) & ~random_mask(rng, b, rng.randint(0, 40))
            yield "random", b, acc, random_mask(rng, b, rng.randint(0, b + 1)), rest

    def test_gap_runs_alone(self):
        # the accumulator's zeros, the gap test against the members of an
        # inner operand held as an int, and the runs between what is left
        rng = random.Random(24)
        for name, bound, acc, inner, rest in self.gap_runs_cases(rng):
            words = bound // 64 + 1
            acc_words = np.frombuffer(acc.to_bytes(words * 8, "little"), "<u8")

            def member(d):
                return np.array([inner >> n & 1 for n in d.ravel().tolist()], bool).reshape(d.shape)

            zeros = sumset_module._zeros(acc_words, bound)
            gaps = sumset_module._gap_test(zeros, np.array(rest, np.int64), member, words)
            got = sumset_module._gap_runs(gaps, bound)
            want = self.naive_gap_runs(acc, inner, rest, bound)
            assert got == want, (name, bound)
            if name == "one member per block":
                # the zeros only shrink, so every block had at least as many
                gaps_left = bound + 1 - sum(hi - lo + 1 for lo, hi in got)
                assert words // 8 // gaps_left <= 1, gaps_left

    @staticmethod
    def count_popcounts(monkeypatch):
        """Lists each popcount of the numpy loop's accumulator, one per batch:
        a checkpoint's zero count, or, after the last batch, the result's."""
        counted = []
        count = np.bitwise_count

        def count_listed(*args, **kwargs):
            counted.append(1)
            return count(*args, **kwargs)

        monkeypatch.setattr(np, "bitwise_count", count_listed)
        return counted

    @staticmethod
    def checkpoints(counted, bits):
        """The checkpoints among ``counted``: every popcount but the result's,
        which a fold that ends in the gap test does not take."""
        return len(counted) - (bits._runs is None)

    def test_checkpoints_only_where_a_switch_is_free(self, monkeypatch):
        # 50 outer members from 7 up, and an inner with 93 gaps: at most 100
        # zeros after member 7, so at 1,024 words a fold checks iff
        # 100 x GAP_TEST_WORDS <= 50 x 1,024, that is at a price up to 512
        rng = random.Random(22)
        bound = 64 * 1024 - 1
        outer = PrefixBitset(bound, sum(1 << a for a in [7, *rng.sample(range(8, bound), 49)]))
        inner = PrefixBitset(bound, full_mask(bound) & ~random_mask(rng, bound, 93))
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        want = pair_sumset(outer, inner, bound)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        counted = self.count_popcounts(monkeypatch)
        monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", 513)
        got = pair_sumset(outer, inner, bound)
        assert (self.checkpoints(counted, got), got._runs, got) == (0, None, want)
        counted.clear()
        monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", 512)
        got = pair_sumset(outer, inner, bound)
        assert got == want
        assert self.checkpoints(counted, got) >= 1

    def test_checkpoints_stop_when_zeros_do_not_halve(self, monkeypatch):
        # 300 outer members and a sparse inner: the zeros barely fall, so
        # the fold checks after 1 and 2 members, then ORs the rest at once
        rng = random.Random(23)
        bound = 64 * 1024 - 1
        outer = PrefixBitset(bound, random_mask(rng, bound, 299) | 1)
        inner = PrefixBitset(bound, random_mask(rng, bound, 400))
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        want = pair_sumset(outer, inner, bound)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", 4)
        counted = self.count_popcounts(monkeypatch)
        got = pair_sumset(outer, inner, bound)
        assert (self.checkpoints(counted, got), got._runs, got) == (2, None, want)


class BatchThread(InlineThread):
    """An ``InlineThread`` that records each batch a range thread folds: its
    member count and whether it ORs largest-part windows."""

    batches: list[tuple[int, bool]] = []

    def start(self):
        *_, residues, largest = self.args
        self.batches.append((sum(map(len, residues)), largest))
        super().start()


class TestWindowedChains:
    """Chains whose numpy folds OR each member over one window of the other
    operand, against the same chains on the Python-int loop, which ORs it
    whole: forced onto the numpy loop on 1, 2 and 3 ranges of InlineThread,
    at gap prices 0, 1 and GAP_TEST_WORDS."""

    BOUND = 64 * 40 - 1
    HMAX = 7

    @classmethod
    def exprs(cls):
        bound = cls.BOUND
        rng = random.Random(31)
        top = rng.sample(range(2 * bound // 3 + 1, bound + 1), 12)
        tenth = rng.sample(range(bound - bound // 10, bound), 20)
        return {
            # dense near 0: the largest-part windows are the shorter
            "squares": Powers(2),
            "cubes": Powers(3),
            "fourth powers": Powers(4),
            # A + A from 0 alone fills the top third, where every other
            # member's smallest-part window is empty; 2A is A again, and a
            # popcount tie makes the left operand, the fold, the outer one
            "top third and 0": Explicit(tuple(sorted([0, *top]))),
            # kA is k and the top tenth shifted by k - 1, one member fewer
            # than A, so the fold is the outer operand and ORs all of A
            "1, the top tenth and N": Explicit(tuple(sorted([1, *tenth, bound]))),
            # folds 1 and 2 run on runs, so the first shift-OR fold is 2A + A
            "runs until fold 2": Union(Interval(0, 199), Explicit((1000, 2300))),
        }

    def chains(self, exprs):
        return {
            name: list(islice(sumset_folds(expr, self.BOUND), self.HMAX + 1))
            for name, expr in exprs.items()
        }

    def test_windowed_chains_match_ints(self, monkeypatch):
        exprs = self.exprs()
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        ints = self.chains(exprs)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_RANGE_WORDS", 1)
        kernel = sumset_module.pair_sumset
        per_fold = []  # the batches of each numpy fold, in order

        def traced(p, q, bound, **k):
            BatchThread.batches = []
            try:
                return kernel(p, q, bound, **k)
            finally:
                per_fold.append(BatchThread.batches)

        monkeypatch.setattr(sumset_module, "pair_sumset", traced)
        folds, batches = {}, {}

        def fold():
            for price in (0, 1, GAP_TEST_WORDS):
                monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", price)
                for cpus in (1, 2, 3):
                    monkeypatch.setattr(sumset_module, "_usable_cpus", lambda: cpus)
                    start = len(per_fold)
                    folds[price, cpus] = self.chains(exprs)
                    batches[price, cpus] = per_fold[start:]

        caller = threading.Thread(target=fold, daemon=True)
        monkeypatch.setattr(sumset_module.threading, "Thread", BatchThread)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive(), "a range waited on another"
        for key, got in folds.items():
            for name, chain in got.items():
                for h, (bits, want) in enumerate(zip(chain, ints[name])):
                    assert bits == want, (name, h, key)
                    assert list(bits.gaps()) == list(want.gaps()), (name, h, key)
        # at price 1 some fold ORs smallest-part windows in checkpoint
        # batches, then finishes on largest-part ones in one last batch; on
        # 2 ranges the second one's thread records each batch once
        assert any(b[0] == (1, False) and b[-1][1] for b in batches[1, 2] if len(b) > 2)

    def test_window_choice(self, monkeypatch):
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        kernel, split = sumset_module._shift_or_words, sumset_module._split_words
        calls = []

        def split_seen(starts, ends, words, cpus):
            calls[-1].append(ends.tolist())
            return split(starts, ends, words, cpus)

        monkeypatch.setattr(
            sumset_module, "_shift_or_words", lambda *a: calls.append([a[-1]]) or kernel(*a)
        )
        monkeypatch.setattr(sumset_module, "_split_words", split_seen)
        seen = {}
        for name, expr in self.exprs().items():
            calls.clear()
            list(islice(sumset_folds(expr, self.BOUND), self.HMAX + 1))
            seen[name] = [tuple(c) for c in calls]
        size = (self.BOUND // 64 + 1) * 8
        # member a splits the inner operand kA at k * a; on A + A, k = 1, and
        # a fold that is the outer operand gets no k and ORs all of A
        (sq2, sq2_ends), (sq3, _), (sq4, _) = seen["squares"][:3]
        assert (sq2, sq3, sq4) == (1, 2, 3)
        assert any(end < size for end in sq2_ends)  # largest-part windows
        (top2, top2_ends), (top3, top3_ends) = seen["top third and 0"][:2]
        assert (top2, top3) == (1, None)
        assert set(top2_ends) == set(top3_ends) == {size}  # smallest-part windows
        assert [k for k, _ in seen["1, the top tenth and N"]][:3] == [1, None, None]
        assert seen["runs until fold 2"][0][0] == 2


class TestPairScatter:
    """A + A scattered pair by pair (``_pair_scatter``) against the Python-int
    loop and brute force, forced onto the numpy loop and by the price onto
    the scatter or off it.  At these bounds a block spans a quarter of the
    mask and a chunk a few pairs, so sums fall on every block edge and
    chunks cut between rows, or hold one row with more pairs."""

    @staticmethod
    def cases(rng):
        for bound in (0, 7, 63, 64, 1000, 64 * 40 - 1):
            span = 2 * (bound // 64 + 1) * 8  # bits per block
            # sums 0 + x and x + x on each side of every block edge
            edges = {x for lo in range(span, bound + 1, span) for x in (lo - 1, lo, lo + 1, lo // 2, lo // 2 + 1)}
            yield bound, "block edges", sorted({0, *(x for x in edges if x <= bound)})
            k = min(bound + 1, rng.randint(1, 60))
            yield bound, "random", sorted(rng.sample(range(bound + 1), k))
            yield bound, "random without 0", sorted(rng.sample(range(1, bound + 2), k))
            for power in (2, 3, 4):
                yield bound, f"powers({power})", materialize(Powers(power), bound).to_list()
            yield bound, "a dense head", sorted({*range(min(bound, 300) + 1), *rng.sample(range(bound + 1), k)})
            yield bound, "empty", []
            yield bound, "{0}", [0]
            yield bound, "{bound}", [bound]

    def test_scatter_matches_ints_and_brute_force(self, monkeypatch):
        rng = random.Random(41)
        scatter, scattered = sumset_module._pair_scatter, []
        monkeypatch.setattr(sumset_module, "_pair_scatter", lambda *a: scattered.append(1) or scatter(*a))
        for bound, name, members in self.cases(rng):
            members = [m for m in members if m <= bound]
            a = PrefixBitset(bound, sum(1 << m for m in members))
            pairs = sum(1 for i, x in enumerate(members) for y in members[: i + 1] if x + y <= bound)
            if members:
                assert sumset_module._pair_count(a._member_array(), bound) == pairs, (bound, name)
            monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
            ints = pair_sumset(a, a, bound)
            assert ints.to_list() == sorted(brute_fold(members, 2, bound)), (bound, name)
            monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
            # with a pair sum in the bound, A + A is scattered at price 0
            # and never at the largest price; {0} + {0} is returned as it is
            for price in (0, 2**63):
                monkeypatch.setattr(sumset_module, "PAIR_SCATTER_BYTES", price)
                scattered.clear()
                for p in (a, run_backed(a)):
                    got = pair_sumset(p, p, bound, folds=1)
                    assert got == ints, (bound, name, price)
                    assert (got.popcount(), list(got.gaps())) == (ints.popcount(), list(ints.gaps()))
                if pairs and members != [0]:
                    assert len(scattered) == 2 * (price == 0), (bound, name, price)

    def test_scatter_memory(self, monkeypatch):
        # the scatter allocates the result's bytes, a bool block of at most
        # 512 KB and the index arrays of one chunk of at most 32,768 pairs
        # (unless one row has more), about 256 KB each, beside a block's
        # rows.  At a 1 MB mask the squares, the cubes and sqrt(N) random
        # points scatter at the fitted price within 2.5 masks (2.31 at most;
        # the squares took 2.09 at 1e7).  [0, 1100] with the cubes, forced
        # at a 32 KB mask, has rows longer than a chunk and 1,155 members,
        # each row array a quarter of a mask, so it takes up to 5.5
        rng = random.Random(42)
        scatter, scattered = sumset_module._pair_scatter, []
        monkeypatch.setattr(sumset_module, "_pair_scatter", lambda *a: scattered.append(1) or scatter(*a))
        large, small = 64 * 128 * SHIFT_OR_NUMPY_WORDS, 64 * 4 * SHIFT_OR_NUMPY_WORDS
        cases = (
            ("squares", materialize(Powers(2), large), PAIR_SCATTER_BYTES, 2.5),
            ("cubes", materialize(Powers(3), large), PAIR_SCATTER_BYTES, 2.5),
            ("random", materialize(Explicit((0, *rng.sample(range(1, large + 1), 2896))), large), PAIR_SCATTER_BYTES, 2.5),
            ("long rows", materialize(Union(Interval(0, 1100), Powers(3)), small), 0, 5.5),
        )
        for name, a, price, masks in cases:
            bound = a.bound
            mask_bytes = (bound // 64 + 1) * 8
            monkeypatch.setattr(sumset_module, "PAIR_SCATTER_BYTES", price)
            scattered.clear()
            tracemalloc.start()
            try:
                bits = pair_sumset(a, a, bound, folds=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert scattered == [1], name
            assert peak <= masks * mask_bytes, (name, peak / mask_bytes)
            # against the shift-OR windows, and at the small mask the Python-int loop
            monkeypatch.setattr(sumset_module, "PAIR_SCATTER_BYTES", 2**63)
            assert bits == pair_sumset(a, a, bound, folds=1), name
            if bound == small:
                monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
                assert bits == pair_sumset(a, a, bound), name
                monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", SHIFT_OR_NUMPY_WORDS)

    def test_squares_scatter_past_the_break_even(self, monkeypatch):
        # the squares' windows cost 62 bytes a pair at 1e6 and 139 at 5e6,
        # so A + A stays on shift-OR at 1e6 and is scattered at 5e6; the
        # counts are the two-square sieve's, plus one for 0
        scatter, scattered = sumset_module._pair_scatter, []
        monkeypatch.setattr(sumset_module, "_pair_scatter", lambda *a: scattered.append(a[1]) or scatter(*a))
        for bound, count in ((10**6, 216_342), (5 * 10**6, 1_017_156)):
            assert iterate_sumset(Powers(2), 2, bound).bits.popcount() == count
        assert scattered == [5 * 10**6]


class TestComplementFolds:
    """Chains that, once 0 is in A and a numpy fold has few gaps, fold on
    those gaps alone (``_complement_fold``), against the same chains on the
    Python-int loop.  At a gap price of 0 the chain switches after its
    first shift-OR fold, however many gaps that leaves."""

    BOUND = 64 * 40 - 1
    HMAX = 40

    @classmethod
    def exprs(cls, rng, bound, zero=True):
        yield "cubes", Powers(3)
        yield "powers(4)", Powers(4)
        yield "powers(5)", Powers(5)
        for i in range(4):
            small = rng.sample(range(1, 40), rng.randint(1, 4))
            large = rng.sample(range(40, bound + 1), rng.randint(0, 20))
            yield f"random {i}", Explicit(tuple(sorted({0, *small, *large})))

    @staticmethod
    def chains(exprs, bound, hmax):
        return {name: list(islice(sumset_folds(expr, bound), hmax + 1)) for name, expr in exprs}

    @staticmethod
    def complement_calls(monkeypatch):
        calls = []
        fold = sumset_module._complement_fold
        monkeypatch.setattr(sumset_module, "_complement_fold", lambda *a: calls.append(1) or fold(*a))
        return calls

    def assert_chains_equal(self, got, want):
        for name, chain in got.items():
            for h, (bits, ref) in enumerate(zip(chain, want[name])):
                assert bits == ref, (name, h)
                assert (bits.popcount(), list(bits.gaps())) == (ref.popcount(), list(ref.gaps())), (name, h)

    def test_complement_folds_match_ints(self, monkeypatch):
        exprs = list(self.exprs(random.Random(51), self.BOUND))
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        ints = self.chains(exprs, self.BOUND, self.HMAX)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        calls = self.complement_calls(monkeypatch)
        for price in (0, 1, GAP_TEST_WORDS):
            monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", price)
            calls.clear()
            self.assert_chains_equal(self.chains(exprs, self.BOUND, self.HMAX), ints)
            assert calls, price

    def test_switch_only_from_the_numpy_floor(self, monkeypatch):
        # words 1023 and 1024: below the floor the chain stays on the
        # Python-int loop; from it on, cubes 8A's 2 gaps (23 and 239) and the
        # gaps left near the end of the other chains switch at the fitted price
        calls = self.complement_calls(monkeypatch)
        for bound, switches in ((64 * SHIFT_OR_NUMPY_WORDS - 65, False), (64 * SHIFT_OR_NUMPY_WORDS - 64, True)):
            exprs = list(self.exprs(random.Random(52), bound))
            calls.clear()
            folds = self.chains(exprs, bound, self.HMAX)
            assert bool(calls) == switches, bound
            monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
            self.assert_chains_equal(folds, self.chains(exprs, bound, self.HMAX))
            monkeypatch.undo()
            calls = self.complement_calls(monkeypatch)
        assert [list(bits.gaps()) for bits in folds["cubes"][8:10]] == [[23, 239], []]

    @settings(max_examples=40, deadline=None)
    @given(set_exprs, st.integers(0, 400), st.sampled_from([0, 1, GAP_TEST_WORDS]))
    def test_gaps_never_grow(self, expr, bound, price):
        withzero = Union(expr, Explicit((0,)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
            patch.setattr(sumset_module, "GAP_TEST_WORDS", price)
            chain = list(islice(sumset_folds(withzero, bound), 8))
        gaps = [set(bits.gaps()) for bits in chain]
        assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] == set(range(bound + 1)) - brute_fold(materialize(withzero, bound).to_list(), 7, bound)

    def test_set_without_zero_never_switches(self, monkeypatch):
        rng = random.Random(53)
        bound = self.BOUND
        exprs = [
            ("squares from 1", Explicit(tuple(n * n for n in range(1, 51)))),
            ("1, 2 and 5", Explicit((1, 2, 5))),
            *((f"random {i}", Explicit(tuple(rng.sample(range(1, 60), 5)))) for i in range(3)),
        ]
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        ints = self.chains(exprs, bound, 12)
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", 0)
        calls = self.complement_calls(monkeypatch)
        self.assert_chains_equal(self.chains(exprs, bound, 12), ints)
        assert calls == []


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
        withzero = Union(expr, Explicit((0,)))
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
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

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

    def test_streams_over_the_operand_with_fewer_runs(self, monkeypatch):
        shifted = sumset_module._shifted_runs
        streams = []
        monkeypatch.setattr(
            sumset_module,
            "_shifted_runs",
            lambda r, c, d, bound: streams.append(len(r)) or shifted(r, c, d, bound),
        )
        many = [(10 * i, 10 * i + 2) for i in range(50)]
        few = [(0, 1), (300, 300)]
        want = run_sumset(many, few, 1000)
        assert streams == [50, 50]
        streams.clear()
        assert run_sumset(few, many, 1000) == want
        assert streams == [50, 50]
        # {0} + R is R clipped to the bound, on either side, in a new list
        # from one pass over R
        streams.clear()
        assert run_sumset([(0, 0)], many, 1000) == many
        assert run_sumset(many, [(0, 0)], 1000) is not many
        assert run_sumset([(0, 0)], many, 300) == many[:30] + [(300, 300)]
        assert run_sumset([(0, 0)], [(0, 100)], 10) == [(0, 10)]
        assert streams == [50, 50, 50, 1]


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


# every module that binds runs_bytes: masks are built from runs by
# materialize and by a run-backed prefix at each read of its .mask, which
# only the Python-int loop makes, on its inner operand; the numpy loop's
# operand bytes are built by _padded_bytes, which calls it too
MASK_BINDINGS = (bitset_module, setexpr_module)


@pytest.fixture
def walks(monkeypatch):
    """Counts walks of A's runs through both the setexpr and the sumset
    bindings, and lists the runs of every mask built from runs, apart from
    the numpy operand bytes that ``_padded_bytes`` builds."""
    calls = {"expr_runs": 0, "masked": []}
    padding = []  # non-empty while _padded_bytes runs

    def expr_runs_counted(*args, fn=expr_runs):
        calls["expr_runs"] += 1
        return fn(*args)

    def runs_bytes_listed(runs, size, fn=bitset_module.runs_bytes):
        if not padding:
            calls["masked"].append(list(runs))
        return fn(runs, size)

    def padded_bytes_marked(bits, fn=PrefixBitset._padded_bytes):
        padding.append(bits)
        try:
            return fn(bits)
        finally:
            padding.pop()

    for module in (setexpr_module, sumset_module):
        monkeypatch.setattr(module, "expr_runs", expr_runs_counted)
    for module in MASK_BINDINGS:
        monkeypatch.setattr(module, "runs_bytes", runs_bytes_listed)
    monkeypatch.setattr(PrefixBitset, "_padded_bytes", padded_bytes_marked)
    return calls


class TestFoldChain:
    """One walk of A per chain; no mask while the chain stays on runs, and
    once it leaves them only the Python-int loop's inner operand's: A's on
    A + A, else the last run fold's."""

    def test_run_chain_walks_a_once(self, walks, kernel_calls):
        folds = list(islice(sumset_folds(COUNTEREXAMPLE, 210_000), 4))
        assert walks["expr_runs"] == 1
        assert kernel_calls == {"runs": 3, "shift-or": 0}
        assert tuple(folds[2].gaps()) == (21, 201, 2001, 20001, 200001)
        assert folds[3].is_full()
        # the consumers' queries all answer from the runs
        answers = [
            (f.first_gap(), f.count_range(1, 210_000), 2001 in f, f.popcount(), next(f.members()))
            for f in folds
        ]
        assert answers == [
            (1, 0, False, 1, 0),
            (11, 98_885, False, 98_886, 0),
            (21, 209_995, False, 209_996, 0),
            (None, 210_000, True, 210_001, 0),
        ]
        assert walks["masked"] == []

    def test_shift_or_chain_builds_a_mask_once(self, walks, kernel_calls, monkeypatch):
        kernel = sumset_module.pair_sumset
        seen = []
        monkeypatch.setattr(
            sumset_module,
            "pair_sumset",
            lambda p, q, bound, **k: seen.append((p, q)) or kernel(p, q, bound, **k),
        )
        points = (0, 1, 7, 30, 31, 90, 400, 401, 1000, 2500, 7000, 9999)
        folds = list(islice(sumset_folds(Explicit(points), 20_000), 4))
        assert walks["expr_runs"] == 1
        assert kernel_calls == {"runs": 0, "shift-or": 3}
        assert folds[1].to_list() == list(points)
        # fold 1 is A's own prefix, returned by pair_sumset({0}, A) without a
        # shift; fold 2 adds it to itself, and fold 3 to fold 2
        a = folds[1]
        assert [(p is folds[h], q is a) for h, (p, q) in enumerate(seen)] == [(True, True)] * 3
        # so the only mask built is A's, read by fold 2 as its inner operand;
        # fold 3 lists A's members from its runs
        a_runs = expr_runs(Explicit(points), 20_000)
        assert walks["masked"] == [a_runs]
        assert folds == list(islice(shift_or_folds(Explicit(points), 20_000), 4))

    def test_numpy_chain_prepares_a_once(self, walks, monkeypatch):
        # on the numpy loop A is every fold's outer operand, and its member
        # array is built from its runs on fold 2 and read again by every
        # later fold; fold 2 reads A's bytes from its runs too, so A's mask
        # is never built
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        view = PrefixBitset._member_array
        reads = []

        def read(bits):
            members = view(bits)
            reads.append((bits, members))
            return members

        monkeypatch.setattr(PrefixBitset, "_member_array", read)
        points = (0, 1, 7, 30, 31, 90, 400, 401, 1000, 2500, 7000, 9999)
        folds = list(islice(sumset_folds(Explicit(points), 20_000), 5))
        assert len(reads) == 3
        assert all(bits is folds[1] and members is reads[0][1] for bits, members in reads)
        assert walks["masked"] == [] and folds[1]._buf is None
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 2**63)
        assert folds == list(islice(shift_or_folds(Explicit(points), 20_000), 5))

    def test_chain_leaving_runs_builds_one_mask(self, walks, kernel_calls):
        # four runs of width 20 at 20,000: folds 1 and 2 on runs, then 2A's
        # ten runs make fold 3 cheaper on shift-OR
        blocks = [Interval(lo, lo + 19) for lo in (0, 1000, 3000, 7000)]
        expr = Union(*blocks)
        folds = list(islice(sumset_folds(expr, 20_000), 5))
        assert kernel_calls == {"runs": 2, "shift-or": 2}
        assert walks["expr_runs"] == 1
        a_runs = expr_runs(expr, 20_000)
        want = [[(0, 0)]]
        for _ in range(4):
            want.append(run_sumset(want[-1], a_runs, 20_000))
        # only fold 2's mask, the first shift-OR fold's inner operand; that
        # fold and the next list A's members from its runs
        assert walks["masked"] == [want[2]]
        assert folds == [PrefixBitset.from_runs(20_000, runs) for runs in want]

    def test_counterexample_verify_builds_no_mask(self, monkeypatch):
        def refuse(runs, size):
            raise AssertionError(f"mask built from {len(runs)} runs in {size} bytes")

        for module in MASK_BINDINGS:
            monkeypatch.setattr(module, "runs_bytes", refuse)
        assert verify_counterexample(210_000).passed

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
