"""The ``addbasis`` command line: machine-readable reports over the library.

Exit codes: 0 success, 2 precondition or usage violation, 3 internal
verification failure (a mathematical claim or certificate did not hold).
"""

from __future__ import annotations

import argparse
import decimal
import sys
import time
from dataclasses import asdict

import jsonschema

from .analysis import SubseqSpec, density_sequence, hypothesis_probe, parse_subseq, window_extrema
from .order import VerificationError, order_bounds, stability_probe
from .report import (
    SCHEMA_VERSION,
    canonical_json,
    density_rows_payload,
    frac_decimal,
    plot_data_lines,
    rows_csv,
    validate_report,
)
from .setexpr import (
    U64_MAX,
    BoundCeilingError,
    ParseError,
    SemanticError,
    parse_set_expr,
)
from .sumset import iterate_sumset
from .verify import verify_counterexample


def nat_arg(text: str) -> int:
    """Integer in ``[0, 2^64 - 1]``, accepting scientific notation like ``2.1e5``."""
    try:
        d = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    # checked before int(), which fails on infinities, NaNs and huge exponents
    if not d.is_finite() or d > U64_MAX:
        raise argparse.ArgumentTypeError(f"not a finite value up to 2^64-1: {text!r}")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return int(d)


def intlist_arg(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    if any(x < 0 for x in items):
        raise argparse.ArgumentTypeError(f"elements must be nonnegative: {text!r}")
    return items


def _take(iterable, limit: int) -> tuple[list[int], bool]:
    out: list[int] = []
    for x in iterable:
        if len(out) == limit:
            return out, True
        out.append(x)
    return out, False


def _check_folds(flag: str, value: int, fold: int, bound: int) -> None:
    # on [0, N], hA = NA for h >= N when 0 is in A, and hA is empty for h > N
    # when it is not, so a fold past that adds only work; `fold` is the
    # largest fold that `flag` asks for
    if fold > max(bound, 1):
        raise ValueError(
            f"{flag} {value} needs fold {fold}, which exceeds max(bound, 1) = "
            f"{max(bound, 1)}; more folds add nothing on [0, bound]"
        )


# --terms sets the rows of a density or probe report and the family of a
# stability probe, and time and report size grow with it; no documented
# command or benchmark job asks for more than 40
MAX_TERMS = 1000


def _subseq(args) -> SubseqSpec:
    if args.terms > MAX_TERMS:
        raise ValueError(f"--terms {args.terms} exceeds MAX_TERMS = {MAX_TERMS}")
    return parse_subseq(args.subseq, start=args.start, count=args.terms)


def _cmd_sumset(args) -> tuple[dict, int]:
    _check_folds("--h", args.h, args.h, args.bound)
    expr = parse_set_expr(args.set)
    result = iterate_sumset(expr, args.h, args.bound)
    members, members_truncated = _take(result.bits.members(), args.limit)
    gaps, gaps_truncated = _take(result.bits.gaps(), args.limit)
    payload = {
        "set": args.set,
        "h": args.h,
        "bound": args.bound,
        "popcount": result.bits.popcount(),
        "full_coverage": result.bits.is_full(),
        "members": members,
        "members_truncated": members_truncated,
        "gaps": gaps,
        "gaps_truncated": gaps_truncated,
        "limit": args.limit,
    }
    return payload, 0


def _cmd_order(args) -> tuple[dict, int]:
    _check_folds("--hmax", args.hmax, args.hmax, args.bound)
    expr = parse_set_expr(args.set)
    rep = order_bounds(expr, args.bound, args.hmax)
    payload = {
        "set": args.set,
        "bound": args.bound,
        "h_max": rep.h_max,
        "upper": rep.upper,
        "lower": rep.lower,
        "witness": rep.witness,
        "witness_fold": rep.witness_fold,
        "certified_lower": rep.certified_lower,
        "zero_in_set": rep.zero_in_set,
        "coverage_label": (
            f"upper bound prefix-verified up to N={rep.bound}; "
            "gap certificates are exact for the infinite set"
        ),
        "scan": [
            {"h": row.h, "covered": row.covered, "first_gap": row.first_gap}
            for row in rep.scan
        ],
    }
    return payload, 0


def _cmd_density(args) -> tuple[dict, int]:
    expr = parse_set_expr(args.set)
    subseq = _subseq(args)
    _check_folds("--t", args.t, args.t, subseq.indexed_terms()[-1][1])
    rep = density_sequence(expr, args.t, subseq)
    min_ratio, max_ratio = window_extrema(rep.rows)
    payload = {
        "set": args.set,
        "t": args.t,
        "subseq": str(subseq),
        "start": args.start,
        "terms": args.terms,
        "rows": density_rows_payload(rep.rows),
        "min_ratio": str(min_ratio),
        "max_ratio": str(max_ratio),
    }
    return payload, 0


def _cmd_stability(args) -> tuple[dict, int]:
    expr = parse_set_expr(args.set)
    family = _subseq(args)
    _check_folds("--h", args.h, args.h - 1, args.bound)
    rep = stability_probe(expr, args.add, args.h, family, args.bound)
    payload = {
        "set": args.set,
        "added": list(rep.added),
        "h": rep.h,
        "probe_fold": rep.probe_fold,
        "family": rep.family_text,
        "start": args.start,
        "terms": args.terms,
        "bound": rep.bound,
        "verdicts": [asdict(v) for v in rep.verdicts],
        "survivors": list(rep.survivors),
        "conclusion": rep.conclusion,
    }
    return payload, 0


def _cmd_probe(args) -> tuple[dict, int]:
    expr = parse_set_expr(args.set)
    subseq = _subseq(args)
    _check_folds("--h", args.h, args.h - 1, subseq.indexed_terms()[-1][1])
    rep = hypothesis_probe(expr, args.h, subseq)
    payload = {
        "set": args.set,
        "h": rep.h,
        "subseq": str(subseq),
        "start": args.start,
        "terms": args.terms,
        "h2_fold": rep.h - 2,
        "h1_fold": rep.h - 1,
        "h2_rows": density_rows_payload(rep.h2_rows),
        "h1_rows": density_rows_payload(rep.h1_rows),
        "h2_ratio_trending_to_zero": rep.h2_ratio_trending_to_zero,
        "h2_tail_max": str(rep.h2_tail_max),
        "h2_tail_max_decimal": frac_decimal(rep.h2_tail_max),
        "h1_ratio_max": str(rep.h1_ratio_max),
        "h1_ratio_max_decimal": frac_decimal(rep.h1_ratio_max),
        "h1_strictly_below_one": rep.h1_strictly_below_one,
        "note": "verdicts are empirical window estimates, not limits",
    }
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    outcome = verify_counterexample(args.bound, seed=args.seed)
    payload = {
        "claims": [
            {"name": c.name, "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
            for c in outcome.claims
        ],
        "overall": "PASS" if outcome.passed else "FAIL",
    }
    return payload, 0 if outcome.passed else 3


def _add_format_flags(sp: argparse.ArgumentParser, plot_data: bool = False) -> None:
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="rows-only CSV instead of the JSON report")
    # only reports with (k, n, ratio) rows get the flag
    if plot_data:
        fmt.add_argument(
            "--plot-data",
            action="store_true",
            dest="plot_data",
            help="(k, n, ratio) triples for external plotting",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addbasis",
        description="Experiments with additive bases: sumsets, densities, order and stability probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "verify-counterexample",
        help="reproduce every desk-scale claim about the built-in counterexample family",
    )
    sp.add_argument("--bound", type=nat_arg, default=210000)
    sp.add_argument("--seed", type=int, default=0, help="stability sweep RNG seed")
    sp.set_defaults(handler=_cmd_verify, set="counterexample")
    _add_format_flags(sp)

    sp = sub.add_parser("sumset", help="h-fold sumset membership and gaps over [0, bound]")
    sp.add_argument("--set", required=True, help="set expression")
    sp.add_argument("--h", type=int, required=True, help="fold count")
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.add_argument("--limit", type=nat_arg, default=100, help="member/gap listing cap")
    sp.set_defaults(handler=_cmd_sumset)
    _add_format_flags(sp)

    sp = sub.add_parser("order", help="certified order lower bound and prefix upper bound")
    sp.add_argument("--set", required=True)
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.add_argument("--hmax", type=int, required=True)
    sp.set_defaults(handler=_cmd_order)
    _add_format_flags(sp)

    sp = sub.add_parser("density", help="counting-function ratios of tA along a subsequence")
    sp.add_argument("--set", required=True)
    sp.add_argument("--t", type=int, default=1, help="fold count (density of tA)")
    sp.add_argument("--subseq", required=True, help='e.g. "2*10^k+1" or "10^k"')
    sp.add_argument("--terms", type=int, default=5)
    sp.add_argument("--start", type=int, default=1, help="first index k")
    sp.set_defaults(handler=_cmd_density)
    _add_format_flags(sp, plot_data=True)

    sp = sub.add_parser("stability", help="which witness-family terms stay outside (h-1)(A ∪ F)")
    sp.add_argument("--set", required=True)
    sp.add_argument("--add", type=intlist_arg, default=(), help="augmentation F, comma-separated")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--subseq", required=True)
    sp.add_argument("--terms", type=int, default=4)
    sp.add_argument("--start", type=int, default=1)
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.set_defaults(handler=_cmd_stability)
    _add_format_flags(sp)

    sp = sub.add_parser("probe", help="sample the (h-2)A and (h-1)A density trend conditions")
    sp.add_argument("--set", required=True)
    sp.add_argument("--h", type=int, required=True, help="claimed order, h >= 3")
    sp.add_argument("--subseq", required=True)
    sp.add_argument("--terms", type=int, default=5)
    sp.add_argument("--start", type=int, default=1)
    sp.set_defaults(handler=_cmd_probe)
    _add_format_flags(sp, plot_data=True)

    return parser


# parsed attributes that are not inputs of the computation
_NOT_INPUTS = ("command", "handler", "csv", "plot_data")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    started = time.perf_counter()
    try:
        result, status = args.handler(args)
    except VerificationError as exc:
        print(f"error: internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, SemanticError, BoundCeilingError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timing_ms = round((time.perf_counter() - started) * 1000, 3)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "timing_ms": timing_ms,
    }
    try:
        validate_report(report)
    except jsonschema.ValidationError as exc:
        print(f"error: report failed schema self-validation: {exc.message}", file=sys.stderr)
        return 3
    if args.csv:
        sys.stdout.write(rows_csv(report))
    elif getattr(args, "plot_data", False):
        sys.stdout.write(plot_data_lines(report))
    else:
        sys.stdout.write(canonical_json(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
