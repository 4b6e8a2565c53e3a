"""The benchmark's oracles agree with the library at small N.

    python -m pytest -q bench/test_oracles.py

The oracles in ``oracles.py`` never import ``addbasis``; these tests are the
one place the two are compared directly, so a wrong oracle cannot pass as a
library regression (or hide one).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
import oracles as O  # noqa: E402
import spans  # noqa: E402
from addbasis import (  # noqa: E402
    CUBES,
    SQUARES,
    cli,
    iterate_sumset,
    materialize,
    order_bounds,
    parse_set_expr,
)
from addbasis import order as order_module  # noqa: E402
from addbasis import sumset as sumset_module  # noqa: E402


def runs_of(bits) -> list[tuple[int, int]]:
    return O.normalize([(n, n) for n in bits.members()], bits.bound)


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("seed", range(40))
def test_run_arithmetic_matches_kernel(seed):
    rng = random.Random(seed)
    bound = rng.randint(300, 3000)
    text, runs = jobs.random_set(rng, bound)
    expr = parse_set_expr(text)
    assert runs == runs_of(materialize(expr, bound))
    for h in range(4):
        assert O.fold(runs, h, bound) == runs_of(iterate_sumset(expr, h, bound).bits), (text, h)


@pytest.mark.parametrize("seed", range(20))
def test_order_fields_match_order_bounds(seed):
    rng = random.Random(seed)
    bound = rng.randint(300, 3000)
    text, runs = jobs.random_set(rng, bound)
    rep = order_bounds(parse_set_expr(text), bound, 5)
    want = O.order_fields(runs, bound, 5)
    assert want["upper"] == rep.upper and want["lower"] == rep.lower
    assert want["witness"] == rep.witness and want["zero_in_set"] == rep.zero_in_set
    assert [(r["h"], r["covered"], r["first_gap"]) for r in want["scan"]] == [
        (r.h, r.covered, r.first_gap) for r in rep.scan
    ]


def test_number_theory_matches_kernel():
    bound = 5000
    three = iterate_sumset(SQUARES, 3, bound).bits
    assert O.three_square_count(bound) == three.popcount()
    assert all(O.legendre_exception(n) == (n not in three) for n in range(bound + 1))
    two = iterate_sumset(SQUARES, 2, bound).bits
    limits = [10, 99, 1000, 4321, bound]
    counts = O.two_square_counts(limits, segment=777)  # several segments
    assert counts == {n: two.count_range(1, n) for n in limits}
    squares = [b * b for b in range(11)]
    cubes = [b**3 for b in range(6)]
    for base, expr, hmax in ((squares, SQUARES, 3), (cubes, CUBES, 8)):
        gaps = O.small_fold_first_gaps(base, hmax, 100)
        assert gaps == [iterate_sumset(expr, h, 100).bits.first_gap() for h in range(1, hmax + 1)]


def test_verify_expectations_match_library():
    rc, out = run_cli(["verify-counterexample", "--bound", "21000"])
    claims = {c["name"]: c for c in json.loads(out)["result"]["claims"]}
    want = O.verify_expectations(21000)
    density = claims["density-oscillation"]["detail"]
    assert rc == 0 and tuple(claims) == O.VERIFY_CLAIMS
    assert jobs._rows(density["low_rows"]) == want["low_rows"]
    assert jobs._rows(density["high_rows"]) == want["high_rows"]
    assert claims["stability-sweep"]["detail"]["witnesses"] == want["witnesses"]


def test_cli_mix_jobs_pass_and_checks_bite():
    workload = jobs.cli_mix(7)
    kinds = {job.kind for job in workload.jobs}
    assert kinds == {kind for kind, _ in jobs.MIX}
    for job in workload.jobs:
        rc, out = run_cli(job.argv)
        job.check(rc, out)  # raises Mismatch on disagreement
        if rc == 0:
            report = json.loads(out)
            for key in ("popcount", "lower", "min_ratio", "verdicts", "h1_ratio_max", "overall"):
                if key in report["result"]:
                    report["result"][key] = "tampered"
            with pytest.raises(jobs.Mismatch):
                job.check(rc, json.dumps(report))


def test_tracer_rebinds_every_import_and_restores():
    tracer = spans.Tracer()
    original = sumset_module.pair_sumset
    tracer.install()
    try:
        assert order_module.pair_sumset is sumset_module.pair_sumset is not original
        rc, _ = run_cli(["order", "--set", "interval[0,40] | interval[130,400]", "--bound", "400", "--hmax", "5"])
    finally:
        tracer.uninstall()
    assert rc == 0 and order_module.pair_sumset is original
    layers = tracer.by_name()
    assert layers["sumset.pair_sumset"]["calls"] == 4  # folds 1..4; 4A covers
    assert layers["sumset.representation_count"]["calls"] == 1
    # witness 121 re-checked at fold 3: (3-2) * |A ∩ [0,121]| * 121
    assert tracer.work["sumset.representation_count.dp_cells"] == 41 * 121
    assert abs(tracer.root_s() - layers["cli.main"]["total_s"]) < 1e-9
    # self times partition the root span, less the time spent on counters
    total_self = sum(v["self_s"] for v in layers.values())
    assert abs(total_self + tracer.counter_s - tracer.root_s()) < 1e-6
