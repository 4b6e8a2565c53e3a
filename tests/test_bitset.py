import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis import PrefixBitset, full_mask, iter_bits
from addbasis.bitset import runs_mask


def test_full_mask_small():
    assert full_mask(0) == 0b1
    assert full_mask(3) == 0b1111
    with pytest.raises(ValueError):
        full_mask(-1)


@given(st.integers(0, 2**200 - 1))
def test_iter_bits_matches_naive(mask):
    naive = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    assert list(iter_bits(mask)) == naive


def test_iter_bits_sparse_mask():
    # runs of zero bytes between isolated, adjacent and byte-edge bits
    bits = [0, 7, 8, 9, 63, 64, 4095, 100_000, 100_001, 999_999, 1_000_000, 3_000_007]
    assert list(iter_bits(sum(1 << i for i in bits))) == bits


@given(st.lists(st.integers(0, 40), max_size=12), st.integers(0, 100))
def test_runs_mask_matches_naive(cuts, slack):
    # disjoint runs from sorted distinct cuts, edges falling anywhere in a byte
    ends = sorted(set(cuts))
    runs = list(zip(ends[0::2], ends[1::2]))
    bound = (ends[-1] if ends else 0) + slack
    naive = sum(1 << i for lo, hi in runs for i in range(lo, hi + 1))
    assert runs_mask(runs, bound) == naive


@given(st.sets(st.integers(0, 500)))
def test_membership_and_members(elements):
    bound = 500
    mask = 0
    for e in elements:
        mask |= 1 << e
    bits = PrefixBitset(bound, mask)
    assert set(bits.members()) == elements
    assert bits.popcount() == len(elements)
    for e in elements:
        assert e in bits
    assert -1 not in bits
    assert bound + 1 not in bits


def test_mask_above_bound_rejected():
    with pytest.raises(ValueError):
        PrefixBitset(3, 1 << 4)
    PrefixBitset(3, 1 << 3)  # boundary bit is fine


@given(st.sets(st.integers(0, 300)), st.integers(0, 300), st.integers(0, 300))
def test_count_range_matches_naive(elements, a, b):
    lo, hi = min(a, b), max(a, b)
    mask = 0
    for e in elements:
        mask |= 1 << e
    bits = PrefixBitset(300, mask)
    assert bits.count_range(lo, hi) == sum(1 for e in elements if lo <= e <= hi)


def test_count_range_beyond_bound():
    bits = PrefixBitset(10, 0b1)
    with pytest.raises(ValueError):
        bits.count_range(0, 11)
    assert bits.count_range(5, 3) == 0


def test_restrict_first_gap_complement():
    bits = PrefixBitset(7, 0b10010111)
    assert bits.restrict(3) == PrefixBitset(3, 0b0111)
    with pytest.raises(ValueError):
        bits.restrict(8)
    assert bits.first_gap() == 3
    assert PrefixBitset(2, 0b111).first_gap() is None
    assert PrefixBitset(2, 0b111).is_full()
    comp = bits.complement_mask()
    assert set(iter_bits(comp)) == {3, 5, 6}


def test_first_gap_matches_complement():
    rng = random.Random(5)
    for bound in range(301):
        full = full_mask(bound)
        masks = [full, 0, rng.getrandbits(bound + 1)]
        masks += [full ^ (1 << g) for g in {0, bound // 2, bound}]
        for mask in masks:
            comp = full & ~mask
            want = (comp & -comp).bit_length() - 1 if comp else None
            assert PrefixBitset(bound, mask).first_gap() == want, (bound, mask)


def test_gaps():
    bits = PrefixBitset(7, 0b10010111)
    assert list(bits.gaps()) == [3, 5, 6]
    assert next(bits.gaps()) == bits.first_gap()
    assert list(PrefixBitset(2, 0b111).gaps()) == []
    assert list(PrefixBitset(4, 0).gaps()) == [0, 1, 2, 3, 4]


def test_equality_and_hash():
    a = PrefixBitset(9, 0b1010)
    b = PrefixBitset(9, 0b1010)
    c = PrefixBitset(10, 0b1010)
    assert a == b
    assert a != c
