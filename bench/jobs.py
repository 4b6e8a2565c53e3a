"""Workloads: seeded job lists for the ``addbasis`` CLI, each with its oracle.

A job is one ``addbasis`` command line plus a check of its exit code and
stdout.  Every expected value comes from ``oracles``, which does not import
``addbasis``.  The same seed always yields the same job list.

Why these workloads (see also README.md in this directory):

* ``flagship-verify`` -- the paper's headline command at 2.1e5 on the
  counterexample, a structured set of few runs.  The dense kernel folds, the
  survivor re-checks (``representation_count`` and ``to_list`` on the whole
  prefix) and the structural density recount (``contains``) all do real work,
  so a run-backend or certificate change must show here.
* ``sparse-powers`` -- squares and cubes at N = 1e7.  The kernel runs with a
  sparse outer operand, the re-checks are trivial and the sets have no
  interval runs, so a run-backend or certificate change bypasses it: the
  prediction there is no change.
* ``cli-mix`` -- 120 small jobs over all six commands at N <= 2.1e4, on
  seeded interval unions, block families, explicit points and augmentations,
  with 5% invalid inputs that must exit 2.  Per-job overhead (parsing,
  ``materialize`` at small N, schema self-validation) dominates the median;
  one job in six is a fold-3 ``order`` re-check, so p90 sits inside that
  population and moves with the DP.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O


class Mismatch(Exception):
    """A job's exit code or output disagrees with its oracle."""


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], None]


@dataclass(frozen=True)
class Workload:
    warmup: Job
    jobs: tuple[Job, ...]


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _result(rc: int, out: str, command: str) -> dict:
    if rc != 0:
        raise Mismatch(f"exit code {rc}, want 0")
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None
    if report.get("command") != command:
        raise Mismatch(f"command {report.get('command')!r}, want {command!r}")
    return report["result"]


def _expect(got: dict, want: dict) -> None:
    for key, value in want.items():
        if got.get(key) != value:
            raise Mismatch(f"{key}: got {_short(got.get(key))}, want {_short(value)}")


def _rows(rows: list[dict]) -> list[dict]:
    return [{k: r[k] for k in ("k", "n", "count", "ratio")} for r in rows]


def _density_fields(rows: list[dict]) -> dict:
    ratios = [Fraction(r["ratio"]) for r in rows]
    return {"rows": rows, "min_ratio": str(min(ratios)), "max_ratio": str(max(ratios))}


def _probe_fields(h2_rows: list[dict], h1_rows: list[dict]) -> dict:
    """Documented verdicts: the (h-2) trend needs its last ratio below both
    its first and 1/100; the tail is the last half of the rows."""
    low = [Fraction(r["ratio"]) for r in h2_rows]
    high = [Fraction(r["ratio"]) for r in h1_rows]
    return {
        "h2_rows": h2_rows,
        "h1_rows": h1_rows,
        "h2_ratio_trending_to_zero": low[-1] < low[0] and low[-1] < Fraction(1, 100),
        "h2_tail_max": str(max(low[-max(1, len(low) // 2) :])),
        "h1_ratio_max": str(max(high)),
        "h1_strictly_below_one": max(high) < 1,
    }


def _invalid(argv: list[str]) -> Job:
    def check(rc: int, out: str) -> None:
        if rc != 2:
            raise Mismatch(f"invalid input exited {rc}, want 2")
        if out:
            raise Mismatch("invalid input wrote a report to stdout")

    return Job("invalid", tuple(argv), check)


# ---------------------------------------------------------------------------
# verify-counterexample


def verify_job(bound: int, seed: int) -> Job:
    want = O.verify_expectations(bound)

    def check(rc: int, out: str) -> None:
        result = _result(rc, out, "verify-counterexample")
        claims = {c["name"]: c for c in result["claims"]}
        if tuple(claims) != O.VERIFY_CLAIMS:
            raise Mismatch(f"claims {list(claims)}")
        failing = [name for name, c in claims.items() if c["status"] != "PASS"]
        if failing or result["overall"] != "PASS":
            raise Mismatch(f"claims not PASS: {failing}")
        _expect(claims["order-three"]["detail"], {"upper": 3, "lower": 3, "witness": 21})
        _expect(claims["pair-gap-family"]["detail"], {"got": O.PAIR_GAPS})
        density = claims["density-oscillation"]["detail"]
        _expect(
            {"low_rows": _rows(density["low_rows"]), "high_rows": _rows(density["high_rows"])},
            {"low_rows": want["low_rows"], "high_rows": want["high_rows"]},
        )
        _expect(claims["stability-sweep"]["detail"], {"witnesses": want["witnesses"], "seed": seed})

    argv = ["verify-counterexample", "--bound", str(bound), "--seed", str(seed)]
    return Job("verify", tuple(argv), check)


def flagship_verify(seed: int) -> Workload:
    """Four headline runs at 2.1e5, each with its own sweep seed."""
    rng = random.Random(seed)
    jobs = tuple(verify_job(210000, rng.randrange(10**6)) for _ in range(4))
    return Workload(verify_job(21000, seed), jobs)


# ---------------------------------------------------------------------------
# sparse powers at N = 1e7

POWERS_BOUND = 10**7
POWERS_TERMS = [(k, 10**k) for k in range(1, 8)]


def _order_powers(name: str, base: list[int], covered_at: int, bound: int) -> Job:
    """``covered_at`` is Lagrange's 4 (squares) or Wieferich-Kempner's 9 (cubes);
    the earlier first gaps are small, so brute force on a short prefix finds them."""
    gaps = O.small_fold_first_gaps([b for b in base if b <= 100], covered_at - 1, 100)
    scan = [{"h": h, "covered": False, "first_gap": g} for h, g in enumerate(gaps, 1)]
    scan.append({"h": covered_at, "covered": True, "first_gap": None})
    want = {
        "upper": covered_at,
        "lower": covered_at,
        "witness": gaps[-1],
        "witness_fold": covered_at - 1,
        "certified_lower": True,
        "zero_in_set": True,
        "scan": scan,
    }

    def check(rc: int, out: str) -> None:
        _expect(_result(rc, out, "order"), want)

    argv = ["order", "--set", name, "--bound", str(bound), "--hmax", str(covered_at + 1)]
    return Job(f"order-{name}", tuple(argv), check)


def sparse_powers(seed: int) -> Workload:
    rng = random.Random(seed)
    bound = POWERS_BOUND
    squares = [b * b for b in range(11)]
    cubes = [b**3 for b in range(6)]
    two = O.two_square_counts([n for _, n in POWERS_TERMS])
    two_rows = [
        {"k": k, "n": n, "count": two[n], "ratio": O.ratio(two[n], n)} for k, n in POWERS_TERMS
    ]
    three = [O.three_square_count(n) - 1 for _, n in POWERS_TERMS]  # [1, n] excludes 0
    three_rows = [
        {"k": k, "n": n, "count": c, "ratio": O.ratio(c, n)}
        for (k, n), c in zip(POWERS_TERMS, three)
    ]

    limit = rng.randint(50, 100)
    exceptions = [n for n in range(8 * limit) if O.legendre_exception(n)][:limit]
    regular = [n for n in range(2 * limit) if not O.legendre_exception(n)][:limit]
    sumset_want = {
        "popcount": O.three_square_count(bound),
        "full_coverage": False,
        "members": regular,
        "members_truncated": True,
        "gaps": exceptions,
        "gaps_truncated": True,
    }

    def check_sumset(rc: int, out: str) -> None:
        _expect(_result(rc, out, "sumset"), sumset_want)

    probe_want = _probe_fields(two_rows, three_rows)

    def check_probe(rc: int, out: str) -> None:
        result = _result(rc, out, "probe")
        result["h2_rows"], result["h1_rows"] = _rows(result["h2_rows"]), _rows(result["h1_rows"])
        _expect(result, probe_want)

    density_want = _density_fields(two_rows)

    def check_density(rc: int, out: str) -> None:
        result = _result(rc, out, "density")
        result["rows"] = _rows(result["rows"])
        _expect(result, density_want)

    subseq = ["--subseq", "10^k", "--start", "1", "--terms", str(len(POWERS_TERMS))]
    jobs = [
        _order_powers("squares", squares, 4, bound),
        _order_powers("cubes", cubes, 9, bound),
        Job(
            "sumset-squares",
            ("sumset", "--set", "squares", "--h", "3", "--bound", "1e7", "--limit", str(limit)),
            check_sumset,
        ),
        Job("probe-squares", ("probe", "--set", "squares", "--h", "4", *subseq), check_probe),
        Job("density-squares", ("density", "--set", "squares", "--t", "2", *subseq), check_density),
    ]
    rng.shuffle(jobs)
    warmup = _order_powers("cubes", cubes, 9, bound)
    return Workload(warmup, tuple(jobs))


# ---------------------------------------------------------------------------
# cli-mix: small jobs on seeded structured sets

MIX_BOUND = 21000
# (text, a, base, c, start, terms): n_k = a*base^k + c, or a*k + c without base
SUBSEQS = (
    ("10^k", 1, 10, 0, 1, 4),
    ("2*10^k+1", 2, 10, 1, 1, 4),
    ("3^k", 1, 3, 0, 2, 7),
    ("2^k", 1, 2, 0, 3, 11),
    ("7*2^k+3", 7, 2, 3, 1, 11),
    ("500*k+7", 500, None, 7, 1, 40),
)
# Work caps that keep "small" jobs small: shift-OR word operations over all
# folds, and cells of any DP re-check.
SMALL_KERNEL_WORDS = 400_000
SMALL_DP_CELLS = 100_000
# Jobs per round by kind; 20 of 120 are fold-3 DP order jobs (16.7%), kept
# well away from 10% so p90 does not sit on the step between populations.
MIX = (
    ("sumset", 25),
    ("order", 20),
    ("order-dp3", 20),
    ("density", 20),
    ("stability", 14),
    ("probe", 12),
    ("verify", 3),
    ("invalid", 6),
)


def _terms(spec) -> list[tuple[int, int]]:
    _, a, base, c, start, count = spec
    ks = range(start, start + count)
    return [(k, a * base**k + c if base is not None else a * k + c) for k in ks]


def _subseq_args(spec) -> list[str]:
    return ["--subseq", spec[0], "--start", str(spec[4]), "--terms", str(spec[5])]


def _intervals(rng: random.Random, bound: int, zero: bool) -> tuple[str, list]:
    k = rng.randint(1, 4)
    cuts = sorted(rng.sample(range(1, bound), 2 * k))
    runs = list(zip(cuts[0::2], cuts[1::2]))
    if zero:
        runs[0] = (0, runs[0][1])
    text = " | ".join(f"interval[{lo},{hi}]" for lo, hi in runs)
    return text, runs


def _family(rng: random.Random, bound: int) -> tuple[str, list]:
    if rng.random() < 0.25:
        return "counterexample", O.family_runs(10, 10, 2, 2, bound)
    b = rng.randint(3, 12)
    m = rng.randint(1, b - 1)
    s = rng.randint(0, b * b - m * b)
    c = rng.randint(1, 2 * b)
    return f"paperfamily({b},{c},{m},{s})", O.family_runs(b, c, m, s, bound)


def _points(rng: random.Random, top: int) -> list[int]:
    return sorted(rng.sample(range(2, top), rng.randint(2, 8)))


def random_set(rng: random.Random, bound: int) -> tuple[str, list]:
    """A set expression and its runs on ``[0, bound]``."""
    shape = rng.choice(("intervals", "family", "points", "augmented", "union"))
    if shape == "intervals":
        text, runs = _intervals(rng, bound, zero=rng.random() < 0.85)
    elif shape == "family":
        text, runs = _family(rng, bound)
    elif shape == "points":
        pts = [0, 1] + _points(rng, 300)
        text, runs = "explicit{" + ",".join(map(str, pts)) + "}", O.points(pts, bound)
    elif shape == "augmented":
        text, runs = _family(rng, bound) if rng.random() < 0.5 else _intervals(rng, bound, True)
        pts = _points(rng, bound)
        if " | " in text:
            text = f"({text})"
        text += " + {" + ",".join(map(str, pts)) + "}"
        runs = runs + [(p, p) for p in pts]
    else:
        t1, r1 = _family(rng, bound)
        t2, r2 = _intervals(rng, bound, zero=False)
        text, runs = f"{t1} | {t2}", r1 + r2
    return text, O.normalize(runs, bound)


def _fold_words(a, h: int, bound: int) -> int:
    return O.kernel_shifts(a, h, bound) * ((bound + 1 + 63) // 64)


def _mix_sumset(rng: random.Random) -> Job:
    while True:
        bound = rng.randint(2000, MIX_BOUND)
        text, a = random_set(rng, bound)
        h = rng.randint(1, 3)
        if _fold_words(a, h - 1, bound) <= SMALL_KERNEL_WORDS:
            break
    limit = rng.choice((10, 50, 100))
    hA = O.fold(a, h, bound)
    mem, mem_more = O.members(hA, limit)
    gap, gap_more = O.gaps(hA, bound, limit)
    want = {
        "popcount": O.size(hA),
        "full_coverage": O.first_gap(hA, bound) is None,
        "members": mem,
        "members_truncated": mem_more,
        "gaps": gap,
        "gaps_truncated": gap_more,
    }

    def check(rc: int, out: str) -> None:
        _expect(_result(rc, out, "sumset"), want)

    argv = ["sumset", "--set", text, "--h", str(h), "--bound", str(bound), "--limit", str(limit)]
    return Job("sumset", tuple(argv), check)


def _order_job(kind: str, text: str, a, bound: int, hmax: int) -> Job:
    want = O.order_fields(a, bound, hmax)

    def check(rc: int, out: str) -> None:
        _expect(_result(rc, out, "order"), want)

    argv = ["order", "--set", text, "--bound", str(bound), "--hmax", str(hmax)]
    return Job(kind, tuple(argv), check)


def _mix_order(rng: random.Random) -> Job:
    while True:
        bound = rng.randint(2000, MIX_BOUND)
        text, a = random_set(rng, bound)
        hmax = rng.randint(2, 6)
        fields = O.order_fields(a, bound, hmax)
        folds = len(fields["scan"])
        dp = O.dp_cells(a, fields["lower"] - 1, fields["witness"] or 0)
        if dp <= SMALL_DP_CELLS and _fold_words(a, folds, bound) <= SMALL_KERNEL_WORDS:
            return _order_job("order", text, a, bound, hmax)


def _mix_order_dp3(rng: random.Random) -> Job:
    """``[0, x] ∪ [y, ...]`` with ``3x+1 < y <= 4x+1``: 3A first misses 3x+1 and
    4A covers, so the witness 3x+1 is re-checked by the fold-3 DP over about
    3x^2 cells.  x and the bound stay in narrow bands so these jobs cost
    alike (p90 sits among them), and the bound stays low so the DP, not the
    kernel, sets their cost."""
    x = rng.randint(345, 355)
    y = rng.randint(3 * x + 2, 4 * x + 1)
    bound = rng.randint(5000, 5500)
    text = f"interval[0,{x}] | interval[{y},{rng.randint(bound - 500, bound + 500)}]"
    runs = [(0, x), (y, bound)]
    if y > 3 * x + 2 and rng.random() < 0.5:  # a point in (3x+1, y) leaves the witness and DP alone
        p = rng.randint(3 * x + 2, y - 1)
        text = f"({text}) + {{{p}}}"
        runs.append((p, p))
    return _order_job("order-dp3", text, O.normalize(runs, bound), bound, 5)


def _mix_density(rng: random.Random) -> Job:
    while True:
        spec = rng.choice(SUBSEQS)
        terms = _terms(spec)
        top = terms[-1][1]
        text, a = random_set(rng, top)
        t = rng.randint(0, 3)
        if _fold_words(a, max(t - 1, 0), top) <= SMALL_KERNEL_WORDS:
            break
    want = _density_fields(O.density_rows(O.fold(a, t, top), terms))

    def check(rc: int, out: str) -> None:
        result = _result(rc, out, "density")
        result["rows"] = _rows(result["rows"])
        _expect(result, want)

    argv = ["density", "--set", text, "--t", str(t), *_subseq_args(spec)]
    return Job("density", tuple(argv), check)


def _mix_stability(rng: random.Random) -> Job:
    spec = rng.choice(SUBSEQS)
    terms = _terms(spec)
    bound = rng.randint(terms[-1][1], MIX_BOUND)
    text, a = _family(rng, bound) if rng.random() < 0.6 else random_set(rng, bound)
    added = sorted(rng.sample(range(0, 1000), rng.randint(0, 5)))
    h = rng.randint(2, 3)
    aug = O.normalize(a + [(p, p) for p in added], bound)
    probe = O.fold(aug, h - 1, bound)
    verdicts = [{"k": k, "n": n, "in_sumset": O.member(probe, n)} for k, n in terms]
    want = {
        "added": added,
        "h": h,
        "probe_fold": h - 1,
        "verdicts": verdicts,
        "survivors": [v["n"] for v in verdicts if not v["in_sumset"]],
    }

    def check(rc: int, out: str) -> None:
        _expect(_result(rc, out, "stability"), want)

    argv = ["stability", "--set", text, "--h", str(h), *_subseq_args(spec), "--bound", str(bound)]
    if added:
        argv[3:3] = ["--add", ",".join(map(str, added))]
    return Job("stability", tuple(argv), check)


def _mix_probe(rng: random.Random) -> Job:
    while True:
        spec = rng.choice(SUBSEQS)
        terms = _terms(spec)
        top = terms[-1][1]
        text, a = random_set(rng, top)
        h = rng.randint(3, 4)
        if _fold_words(a, 2 * h - 5, top) <= SMALL_KERNEL_WORDS:
            break
    want = _probe_fields(
        O.density_rows(O.fold(a, h - 2, top), terms), O.density_rows(O.fold(a, h - 1, top), terms)
    )

    def check(rc: int, out: str) -> None:
        result = _result(rc, out, "probe")
        result["h2_rows"], result["h1_rows"] = _rows(result["h2_rows"]), _rows(result["h1_rows"])
        _expect(result, want)

    argv = ["probe", "--set", text, "--h", str(h), *_subseq_args(spec)]
    return Job("probe", tuple(argv), check)


def _invalid_templates(rng: random.Random) -> list[list[str]]:
    lo, hi = sorted(rng.sample(range(1, 5000), 2))
    return [
        ["sumset", "--set", f"interval[{hi},{lo}]", "--h", "2", "--bound", "1000"],
        ["order", "--set", "primes", "--bound", "1000", "--hmax", "3"],
        ["sumset", "--set", f"explicit{{{lo},{hi}", "--h", "2", "--bound", "1000"],
        ["sumset", "--set", "counterexample", "--h", "2", "--bound", f"{rng.randint(3, 9)}e9"],
        ["probe", "--set", "squares", "--h", "2", "--subseq", "10^k"],
        ["stability", "--set", "counterexample", "--h", "3", "--subseq", "2*10^k+1",
         "--terms", "4", "--bound", str(hi % 20000)],
        ["verify-counterexample", "--bound", str(lo)],
        ["density", "--set", f"paperfamily(10,10,9,{hi + 11})", "--subseq", "10^k"],
        ["order", "--set", "squares", "--bound", "100", "--hmax", "4", "--plot-data"],
        ["sumset", "--set", "squares", "--h", "two", "--bound", "100"],
    ]


def cli_mix(seed: int) -> Workload:
    rng = random.Random(seed)
    makers = {
        "sumset": _mix_sumset,
        "order": _mix_order,
        "order-dp3": _mix_order_dp3,
        "density": _mix_density,
        "stability": _mix_stability,
        "probe": _mix_probe,
        "verify": lambda r: verify_job(MIX_BOUND, r.randrange(10**6)),
    }
    jobs = []
    for kind, n in MIX:
        if kind == "invalid":
            jobs += [_invalid(argv) for argv in rng.sample(_invalid_templates(rng), n)]
        else:
            jobs += [makers[kind](rng) for _ in range(n)]
    rng.shuffle(jobs)
    return Workload(_mix_sumset(random.Random(seed + 1)), tuple(jobs))


WORKLOADS = {
    "flagship-verify": flagship_verify,
    "sparse-powers": sparse_powers,
    "cli-mix": cli_mix,
}
