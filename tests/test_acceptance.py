"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from fractions import Fraction

from addbasis import (
    COUNTEREXAMPLE,
    BlockFamily,
    Explicit,
    Interval,
    Powers,
    SubseqSpec,
    Union,
    density_sequence,
    iterate_sumset,
    materialize,
    pair_sumset,
    parse_set_expr,
    random_stability_sweep,
    window_extrema,
)
from addbasis.cli import main
from reference import contains, to_text


def run_report(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_counterexample_order(capsys):
    started = time.perf_counter()
    rep = run_report(
        capsys, "order", "--set", "counterexample", "--bound", "100000", "--hmax", "5"
    )
    elapsed = time.perf_counter() - started
    result = rep["result"]
    assert result["upper"] == 3
    assert result["lower"] == 3
    assert result["witness"] == 21 and result["witness_fold"] == 2
    assert elapsed < 5.0
    gaps = run_report(
        capsys, "sumset", "--set", "counterexample", "--h", "2", "--bound", "2.1e4"
    )["result"]["gaps"]
    assert gaps == [21, 201, 2001, 20001]
    print(
        f"\nACCEPTANCE 1 PASS: order 3/3 with witness 21 in {elapsed:.2f}s; "
        "2-fold gaps {21, 201, 2001, 20001} at 2.1e4"
    )


def test_criterion_2_liminf_subsequence(capsys):
    rep = run_report(
        capsys,
        "density",
        "--set", "counterexample",
        "--t", "1",
        "--subseq", "2*10^k+1",
        "--terms", "5",
    )
    rows = rep["result"]["rows"]
    expected = [
        Fraction(10, 21),
        Fraction(89, 201),
        Fraction(888, 2001),
        Fraction(8887, 20001),
        Fraction(88886, 200001),
    ]
    assert [Fraction(r["ratio"]) for r in rows] == expected
    final = Fraction(rows[-1]["ratio"])
    assert abs(final - Fraction(4, 9)) < Fraction(1, 10**4)
    print(
        f"\nACCEPTANCE 2 PASS: liminf rows exact; k=5 ratio {float(final):.6f} "
        "within 1e-4 of 4/9"
    )


def test_criterion_3_limsup_subsequence(capsys):
    rep = run_report(
        capsys,
        "density",
        "--set", "counterexample",
        "--t", "1",
        "--subseq", "10^k",
        "--start", "2",
        "--terms", "4",
    )
    rows = rep["result"]["rows"]
    expected = [
        Fraction(89, 100),
        Fraction(888, 1000),
        Fraction(8887, 10000),
        Fraction(88886, 100000),
    ]
    assert [Fraction(r["ratio"]) for r in rows] == expected
    final = Fraction(rows[-1]["ratio"])
    assert abs(final - Fraction(8, 9)) < Fraction(1, 10**4)
    print(
        f"\nACCEPTANCE 3 PASS: limsup rows exact; k=5 ratio {float(final):.6f} "
        "within 1e-4 of 8/9"
    )


def test_criterion_4_nonconvergence(capsys):
    low = density_sequence(COUNTEREXAMPLE, 1, SubseqSpec(2, 10, 1, start=3, count=3))
    high = density_sequence(COUNTEREXAMPLE, 1, SubseqSpec(1, 10, 0, start=3, count=3))
    mn, mx = window_extrema(low + high)
    assert mx - mn > Fraction(2, 5)
    verify = run_report(capsys, "verify-counterexample", "--bound", "210000")
    window_claim = next(
        c for c in verify["result"]["claims"] if c["name"] == "window-nonconvergence"
    )
    assert window_claim["status"] == "PASS"
    assert window_claim["detail"]["verdict"] == "limit empirically does not exist"
    assert verify["result"]["overall"] == "PASS"
    print(
        f"\nACCEPTANCE 4 PASS: both-tail extrema {float(mn):.4f}..{float(mx):.4f}, "
        f"gap {float(mx - mn):.4f} > 0.4; flagged as empirically divergent"
    )


def test_criterion_5_stability_sweep():
    started = time.perf_counter()
    failing = random_stability_sweep(
        COUNTEREXAMPLE,
        3,
        SubseqSpec(2, 10, 1, start=4, count=2),
        210000,
        seed=0,
    )
    elapsed = time.perf_counter() - started
    assert failing == ()
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5 PASS: witnesses 20001 and 200001 survive all 100 random "
        f"augmentations in {elapsed:.2f}s"
    )


def test_criterion_6_squares_and_cubes(capsys):
    sq = run_report(
        capsys, "order", "--set", "squares", "--bound", "10000", "--hmax", "6"
    )["result"]
    assert (sq["upper"], sq["lower"], sq["witness"]) == (4, 4, 7)
    cb = run_report(
        capsys, "order", "--set", "cubes", "--bound", "10000", "--hmax", "10"
    )["result"]
    assert (cb["upper"], cb["lower"], cb["witness"]) == (9, 9, 23)
    print(
        "\nACCEPTANCE 6 PASS: squares order 4/4 with witness 7; "
        "cubes order 9/9 with witness 23"
    )


def test_criterion_7_hypothesis_probe(capsys):
    sq = run_report(
        capsys,
        "probe",
        "--set", "squares",
        "--h", "4",
        "--subseq", "10^k",
        "--start", "2",
        "--terms", "5",
    )["result"]
    assert sq["h1_strictly_below_one"] is True
    assert Fraction(sq["h1_ratio_max"]) < 1
    ce = run_report(
        capsys,
        "probe",
        "--set", "counterexample",
        "--h", "3",
        "--subseq", "2*10^k+1",
        "--terms", "5",
    )["result"]
    assert ce["h2_ratio_trending_to_zero"] is False
    print(
        f"\nACCEPTANCE 7 PASS: squares h=4 keeps (h-1)A max ratio "
        f"{sq['h1_ratio_max_decimal']} < 1; counterexample h=3 zero-trend False"
    )


# criterion 8: deterministic seeded property suites with a shared time budget


def _random_expr(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        size = rng.randint(0, 15)
        return Explicit(tuple(rng.randint(0, 1500) for _ in range(size)))
    if kind == 1:
        lo = rng.randint(0, 1500)
        return Interval(lo, lo + rng.randint(0, 50))
    if kind == 2:
        return Powers(rng.randint(2, 4))
    if kind == 3:
        base = rng.randint(6, 12)
        return BlockFamily(base, rng.randint(1, 8), rng.randint(2, 4), rng.randint(0, 5))
    if kind == 4:
        return Union(_random_expr(rng), _random_expr(rng))
    size = rng.randint(1, 5)
    return Union(_random_expr(rng), Explicit(tuple(rng.randint(0, 1500) for _ in range(size))))


def _brute_fold(elements, h, bound):
    elems = sorted(elements)
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


def test_criterion_8_property_suites():
    started = time.perf_counter()
    rng = random.Random(2024)

    # truncation soundness: kernel == brute-force enumeration, 50 random sets;
    # alternating bound ranges let dense families through the popcount cap
    checked = 0
    while checked < 50:
        expr = _random_expr(rng)
        bound = rng.randint(100, 2000) if checked % 2 == 0 else rng.randint(100, 500)
        h = rng.randint(1, 4)
        base = materialize(expr, bound)
        if base.popcount() > 250:
            continue
        got = set(iterate_sumset(expr, h, bound).bits.members())
        assert got == _brute_fold(base.members(), h, bound), (to_text(expr), h, bound)
        checked += 1

    # fold associativity: 4A as 2(2A), as A+3A, and linearly, bit for bit
    for expr in (COUNTEREXAMPLE, Powers(2), Explicit((0, 3, 5)), BlockFamily(7, 3, 2, 1)):
        bound = 3000
        base = materialize(expr, bound)
        two = iterate_sumset(expr, 2, bound).bits
        three = iterate_sumset(expr, 3, bound).bits
        four = iterate_sumset(expr, 4, bound).bits
        assert pair_sumset(two, two, bound) == four
        assert pair_sumset(base, three, bound) == four

    # the counts the density rows read agree with a structural membership scan
    for _ in range(40):
        expr = _random_expr(rng)
        n = rng.randint(0, 1200)
        counted = iterate_sumset(expr, 1, n).bits.count_range(1, n)
        assert counted == sum(1 for i in range(1, n + 1) if contains(expr, i))

    # parser round-trips on random expression trees
    for _ in range(200):
        expr = _random_expr(rng)
        assert parse_set_expr(to_text(expr)) == expr

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: property suites green in {elapsed:.2f}s (< 60s)")
