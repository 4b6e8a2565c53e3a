import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from addbasis import Explicit, PrefixBitset, expr_runs, full_mask, iter_bits, materialize
from addbasis.bitset import mask_size, runs_bytes


def test_full_mask_small():
    assert full_mask(0) == 0b1
    assert full_mask(3) == 0b1111
    with pytest.raises(ValueError):
        full_mask(-1)


@given(st.integers(0, 2**200 - 1), st.integers(0, 3))
def test_iter_bits_matches_naive(mask, pad):
    buf = mask.to_bytes((mask.bit_length() + 7) // 8 + pad, "little")
    naive = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    assert list(iter_bits(buf)) == naive
    assert list(iter_bits(buf, clear=True)) == [i for i in range(8 * len(buf)) if i not in naive]


def test_iter_bits_sparse_mask():
    # runs of zero bytes between isolated, adjacent and byte-edge bits
    bits = [0, 7, 8, 9, 63, 64, 4095, 100_000, 100_001, 999_999, 1_000_000, 3_000_007]
    mask = sum(1 << i for i in bits)
    assert list(iter_bits(mask.to_bytes(375_001, "little"))) == bits
    full = full_mask(8 * 375_001 - 1)
    assert list(iter_bits((full & ~mask).to_bytes(375_001, "little"), clear=True)) == bits


def naive_bits(buf, clear=False, bound=None):
    """The indices of the set (or clear) bits of ``buf`` up to ``bound``, one bit at a time."""
    top = 8 * len(buf) - 1 if bound is None else bound
    return [i for i in range(top + 1) if (buf[i >> 3] >> (i & 7)) & 1 != clear]


def scanner_cases():
    """Byte strings around the scan's edges: stretches of bytes that hold a
    hit on either side of its 256-byte cap, long skips of empty and of full
    bytes, masks that are all one byte, and a lone bit in the last byte."""
    rng = random.Random(30)
    cases = {}
    for n in (255, 256, 257, 513):
        mixed = bytes(rng.randrange(1, 255) for _ in range(n))  # neither empty nor full
        cases[f"mixed-{n}-in-zeros"] = bytes(3) + mixed + bytes(5)
        cases[f"mixed-{n}-in-full"] = b"\xff" * 3 + mixed + b"\xff" * 5
        cases[f"full-{n}-in-zeros"] = bytes(2) + b"\xff" * n + bytes(2)
        cases[f"zeros-{n}-in-full"] = b"\xff" * 2 + bytes(n) + b"\xff" * 2
    cases["zeros-past-1kb"] = bytes(1500) + b"\x10" + bytes(2000) + b"\x01" + bytes(9)
    cases["full-past-1kb"] = b"\xff" * 1500 + b"\xef" + b"\xff" * 2000 + b"\xfe" + b"\xff" * 9
    cases["long-stretches-apart"] = bytes(1100) + cases["mixed-513-in-zeros"] + bytes(1100) + b"\xff" * 700
    cases["all-full"] = b"\xff" * 2048
    cases["all-empty"] = bytes(2048)
    cases["bit-in-last-byte"] = bytes(1030) + b"\x80"
    cases["gap-in-last-byte"] = b"\xff" * 1030 + b"\x7f"
    return cases


SCANNER_CASES = scanner_cases()


@pytest.mark.parametrize("buf", SCANNER_CASES.values(), ids=SCANNER_CASES.keys())
def test_iter_bits_past_the_stretch_cap(buf):
    assert list(iter_bits(buf)) == naive_bits(buf)
    assert list(iter_bits(buf, clear=True)) == naive_bits(buf, clear=True)


@pytest.mark.parametrize("buf", SCANNER_CASES.values(), ids=SCANNER_CASES.keys())
def test_gaps_and_first_gap_past_the_stretch_cap(buf):
    # bounds at a byte's last bit and at its first, so the last byte's
    # upper bits lie past the bound and are no gaps
    for bound in (8 * len(buf) - 1, 8 * len(buf) - 8):
        gaps = naive_bits(buf, clear=True, bound=bound)
        masked = PrefixBitset(bound, int.from_bytes(buf, "little") & full_mask(bound))
        members = Explicit(tuple(naive_bits(buf, bound=bound)))
        runs = PrefixBitset.from_runs(bound, expr_runs(members, bound))
        for bits in (masked, runs):
            assert list(bits.gaps()) == gaps
            assert bits.first_gap() == next(bits.gaps(), None) == (gaps[0] if gaps else None)


@pytest.mark.parametrize("bound", [0, 1, 7, 8, 15, 56, 63, 64, 2047, 2048])
def test_first_gap_is_the_first_of_gaps(bound):
    # empty, full, a gap only at the bound and a gap only at 0
    for members in ([], range(bound + 1), range(bound), range(1, bound + 1)):
        masked = PrefixBitset(bound, sum(1 << m for m in members))
        runs = PrefixBitset.from_runs(bound, expr_runs(Explicit(tuple(members)), bound))
        for bits in (masked, runs):
            want = next((i for i in range(bound + 1) if i not in members), None)
            assert bits.first_gap() == next(bits.gaps(), None) == want, (bound, members)


@given(st.lists(st.integers(0, 40), max_size=12), st.integers(0, 100))
def test_runs_bytes_matches_naive(cuts, slack):
    # disjoint runs from sorted distinct cuts, edges falling anywhere in a byte
    ends = sorted(set(cuts))
    runs = list(zip(ends[0::2], ends[1::2]))
    bound = (ends[-1] if ends else 0) + slack
    naive = sum(1 << i for lo, hi in runs for i in range(lo, hi + 1))
    assert int.from_bytes(runs_bytes(runs, bound // 8 + 1), "little") == naive


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


def test_views_are_built_once():
    bits = PrefixBitset(2000, sum(1 << i for i in (3, 9, 10, 17, 1999)))
    assert bits.popcount() == 5
    members = bits._member_array()
    # the popcount is stored and the member array cached, so a second read
    # of either does not go back to the mask bytes
    bits._buf = bytes(len(bits._buf))
    assert bits.popcount() == 5
    assert bits._member_array() is members


@pytest.mark.parametrize(
    "bound, members",
    [
        (0, []),
        (0, [0]),
        (100, []),
        (100, [0, 100]),  # at 0 and at the bound
        (100, [0, 1, 2, 7, 8, 63, 64, 96, 97, 99, 100]),  # 96-100 share the last byte
        (1023, [5, *range(1016, 1024)]),  # a full last byte
        (5000, [*range(0, 40), 4999, 5000]),  # a run across bytes
    ],
)
def test_member_array_is_ascending_on_runs_and_masks(bound, members):
    masked = PrefixBitset(bound, sum(1 << i for i in members))
    runs = PrefixBitset.from_runs(bound, expr_runs(Explicit(tuple(members)), bound))
    for bits in (runs, masked):
        array = bits._member_array()
        assert array.dtype == "int64" and array.tolist() == members


def test_mask_of_runs_is_not_kept():
    bits = PrefixBitset.from_runs(100, [(0, 3), (50, 100)])
    want = sum(1 << i for i in (*range(0, 4), *range(50, 101)))
    assert bits.mask == want and bits.mask == want
    # each read builds the mask afresh, so a prefix holds runs or a mask, never both
    assert bits._buf is None


def test_mask_above_bound_rejected():
    with pytest.raises(ValueError):
        PrefixBitset(3, 1 << 4)
    PrefixBitset(3, 1 << 3)  # boundary bit is fine
    # the bytes constructor makes the same check, on a buffer of whole words
    with pytest.raises(ValueError):
        PrefixBitset.from_bytes(3, (1 << 4).to_bytes(8, "little"), 1)
    with pytest.raises(ValueError):
        PrefixBitset.from_bytes(64, (1 << 127).to_bytes(16, "little"), 1)  # in the padding
    assert PrefixBitset.from_bytes(64, (1 << 64).to_bytes(16, "little"), 1).to_list() == [64]
    for size in (0, 1, 7, 9, 16):  # a mask of [0, 3] is one word
        with pytest.raises(ValueError):
            PrefixBitset.from_bytes(3, bytes(size), 0)
    with pytest.raises(ValueError):
        PrefixBitset.from_bytes(-1, bytes(8), 0)


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
    assert set(iter_bits(comp.to_bytes(1, "little"))) == {3, 5, 6}


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


def outcome(fn, *args):
    """What a call returns, or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@st.composite
def prefix_cases(draw):
    bound = draw(st.integers(0, 200))
    members = draw(st.sets(st.integers(0, bound)))
    queries = st.integers(-2, bound + 2)
    return bound, members, draw(queries), draw(queries), draw(queries)


@given(prefix_cases())
@example((10, set(), 0, 10, 3))  # no runs
@example((10, {0, 1, 2, 7}, 0, 11, 0))  # a run at 0; hi above the bound
@example((10, {3, 8, 9, 10}, 5, 2, 11))  # a run ending at the bound; lo > hi
@example((0, {0}, 0, 0, 0))  # bound 0
@example((0, set(), -1, 0, -1))  # empty at bound 0; negative queries
# every bit set, at bounds that end a byte, start one, end a word (so the
# mask bytes hold no byte that is not full) and start one
@example((7, set(range(8)), 7, 7, 7))
@example((8, set(range(9)), 7, 8, 8))
@example((63, set(range(64)), 8, 63, 63))
@example((64, set(range(65)), 63, 64, 64))
@example((127, set(range(128)), 64, 127, 63))
@example((191, set(range(192)), 0, 191, 128))
@example((127, set(range(127)), 63, 127, 126))  # a gap only at the bound
@example((64, set(range(64)), 0, 64, 63))  # a gap only at the bound, a word's first bit
@example((200, {7, 8, 63, 64, 127, 128, 200}, 8, 127, 64))  # members on the edges
# ranges from byte 0 to the bound, which count from the stored popcount: on
# masks with no byte past the bound's (63) and with padding bytes after it
@example((63, {0, 2, 5, 62, 63}, 3, 63, 40))
@example((64, {1, 6, 7, 64}, 7, 64, 8))
@example((200, {0, 1, 100, 199, 200}, 1, 200, 150))
@example((10001, {0, 2, 3, 4096, 9999, 10001}, 3, 10001, 10000))
def test_run_backed_matches_mask(case):
    bound, members, lo, hi, cut = case
    expr = Explicit(tuple(members))
    masked = materialize(expr, bound)
    runs = PrefixBitset.from_runs(bound, expr_runs(expr, bound))
    ints = PrefixBitset(bound, sum(1 << m for m in members))
    # every query of each representation against the members themselves
    want = sorted(members)
    gaps = [i for i in range(bound + 1) if i not in members]
    edges = [e for e in (0, 7, 8, 63, 64, 127, 128, bound, lo, hi) if 0 <= e <= bound]
    for bits in (runs, masked, ints):
        assert [i for i in range(-2, bound + 3) if i in bits] == want
        assert list(bits.members()) == want and list(bits.gaps()) == gaps
        assert bits.first_gap() == (gaps[0] if gaps else None)
        assert (bits.popcount(), bits.is_full()) == (len(members), not gaps)
        for a in edges:
            for b in edges:
                assert bits.count_range(a, b) == sum(a <= m <= b for m in members), (a, b)
        assert bits == runs and runs == bits and bits == ints and ints == bits
        other = PrefixBitset(bound, bits.mask ^ 1)  # 0 toggled
        assert bits != other and other != bits
    for name, args in (
        ("count_range", (lo, hi)),
        ("count_range", (0, hi)),
        ("count_range", (hi, lo)),
        ("first_gap", ()),
        ("is_full", ()),
        ("popcount", ()),
        ("to_list", ()),
        ("complement_mask", ()),
    ):
        assert outcome(getattr(runs, name), *args) == outcome(getattr(masked, name), *args), name
    assert list(runs.gaps()) == list(masked.gaps())
    assert list(runs.members()) == list(masked.members()) == sorted(members)
    kept, kept_mask = outcome(runs.restrict, cut), outcome(masked.restrict, cut)
    assert kept == kept_mask
    if isinstance(kept, PrefixBitset):
        assert kept.to_list() == kept_mask.to_list() == sorted(m for m in members if m <= cut)
    assert runs == masked and masked == runs
    assert runs != PrefixBitset.from_runs(bound + 1, expr_runs(expr, bound))
    assert runs.mask == masked.mask
    assert runs._member_array().tolist() == masked._member_array().tolist() == sorted(members)
    size = mask_size(bound)
    padded = (runs._padded_bytes().tobytes(), masked._padded_bytes().tobytes())
    assert padded == (masked.mask.to_bytes(size, "little"),) * 2
    # a mask's padded bytes are a view of the mask bytes, not a copy
    assert ints._padded_bytes().base is ints._buf


@pytest.mark.parametrize(
    "runs",
    [
        [(3, 5), (0, 1)],  # unsorted
        [(0, 1), (2, 4)],  # touching
        [(0, 3), (2, 4)],  # overlapping
        [(4, 3)],  # empty run
        [(-1, 2)],  # below 0
        [(0, 1), (5, 11)],  # above the bound
    ],
)
def test_from_runs_refuses_bad_runs(runs):
    with pytest.raises(ValueError):
        PrefixBitset.from_runs(10, runs)


def test_from_runs_accepts_edges():
    assert PrefixBitset.from_runs(10, [(0, 0), (2, 10)]).to_list() == [0, *range(2, 11)]
    assert PrefixBitset.from_runs(0, []).first_gap() == 0
    with pytest.raises(ValueError):
        PrefixBitset.from_runs(-1, [])
