from itertools import accumulate

import pytest

from addbasis import COUNTEREXAMPLE, BlockFamily, contains
from addbasis.verify import _recount


def scan_counts(family, top):
    """Members in [1, n] for every n <= top, by the structural membership scan."""
    return list(accumulate(contains(family, i) for i in range(1, top + 1)))


FAMILIES = [
    COUNTEREXAMPLE,
    BlockFamily(3, 1, 1, 0),  # each block starts where the previous one ends
    BlockFamily(3, 5, 1, 0),  # the head reaches into block 2
    BlockFamily(3, 2, 2, 3),  # block 2 is the single point 9
    BlockFamily(4, 12, 1, 0),
    BlockFamily(5, 3, 4, 5),
    BlockFamily(7, 20, 2, 1),
    BlockFamily(8, 1, 1, 9),
    BlockFamily(12, 24, 11, 12),
    BlockFamily(12, 1, 3, 0),
]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_recount_matches_scan(family):
    counts = scan_counts(family, 3000)
    assert [_recount(family, n) for n in range(1, 3001)] == counts


def test_recount_matches_scan_at_powers_of_ten():
    counts = scan_counts(COUNTEREXAMPLE, 10**6)
    for k in range(1, 7):
        assert _recount(COUNTEREXAMPLE, 10**k) == counts[10**k - 1]


def test_recount_counterexample_closed_form():
    # 10 + Σ_{j=2..k} (10^j - 2·10^(j-1) - 1) at n = 10^k
    for k in range(2, 19):
        assert _recount(COUNTEREXAMPLE, 10**k) == 10 + 8 * (10**k - 10) // 9 - (k - 1)
