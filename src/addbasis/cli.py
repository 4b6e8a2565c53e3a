"""The ``addbasis`` command line: machine-readable reports over the library.

A result echoes its inputs and adds the library report's fields through
``report.jsonable``, which decides which ratios get a decimal; ``sumset`` and
``verify-counterexample`` build theirs from listings and PASS/FAIL verdicts.

Exit codes: 0 success, 2 precondition or usage violation, 3 internal
verification failure (a mathematical claim or certificate did not hold).

``main(argv)`` may be called repeatedly in one process: the parser is built
once, on first use, and holds only argument definitions.  Each call picks its
command's handler by name from this module when it runs.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import sys
import time

from .analysis import SubseqSpec, density_sequence, hypothesis_probe, parse_subseq, window_extrema
from .order import VerificationError, order_bounds, stability_probe
from .report import (
    SCHEMA_VERSION, ReportError, canonical_json, jsonable, plot_data_lines, rows_csv, validate_report,
)
from .setexpr import U64_MAX, parse_set_expr
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
        **jsonable(rep),
        "coverage_label": (
            f"upper bound prefix-verified up to N={rep.bound}; "
            "gap certificates are exact for the infinite set"
        ),
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
        **jsonable(rep),
        "min_ratio": str(min_ratio),
        "max_ratio": str(max_ratio),
    }
    return payload, 0


def _cmd_stability(args) -> tuple[dict, int]:
    expr = parse_set_expr(args.set)
    family = _subseq(args)
    _check_folds("--h", args.h, args.h - 1, args.bound)
    rep = stability_probe(expr, args.add, args.h, family, args.bound)
    payload = {"set": args.set, "start": args.start, "terms": args.terms, **jsonable(rep)}
    return payload, 0


def _cmd_probe(args) -> tuple[dict, int]:
    expr = parse_set_expr(args.set)
    subseq = _subseq(args)
    _check_folds("--h", args.h, args.h - 1, subseq.indexed_terms()[-1][1])
    rep = hypothesis_probe(expr, args.h, subseq)
    payload = {
        "set": args.set,
        "subseq": str(subseq),
        "start": args.start,
        "terms": args.terms,
        **jsonable(rep),
        "h2_fold": rep.h - 2,
        "h1_fold": rep.h - 1,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call and shared."""
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
    sp.set_defaults(set="counterexample")
    _add_format_flags(sp)

    sp = sub.add_parser("sumset", help="h-fold sumset membership and gaps over [0, bound]")
    sp.add_argument("--set", required=True, help="set expression")
    sp.add_argument("--h", type=int, required=True, help="fold count")
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.add_argument("--limit", type=nat_arg, default=100, help="member/gap listing cap")
    _add_format_flags(sp)

    sp = sub.add_parser("order", help="certified order lower bound and prefix upper bound")
    sp.add_argument("--set", required=True)
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.add_argument("--hmax", type=int, required=True)
    _add_format_flags(sp)

    sp = sub.add_parser("density", help="counting-function ratios of tA along a subsequence")
    sp.add_argument("--set", required=True)
    sp.add_argument("--t", type=int, default=1, help="fold count (density of tA)")
    sp.add_argument("--subseq", required=True, help='e.g. "2*10^k+1" or "10^k"')
    sp.add_argument("--terms", type=int, default=5)
    sp.add_argument("--start", type=int, default=1, help="first index k")
    _add_format_flags(sp, plot_data=True)

    sp = sub.add_parser("stability", help="which witness-family terms stay outside (h-1)(A ∪ F)")
    sp.add_argument("--set", required=True)
    sp.add_argument("--add", type=intlist_arg, default=(), help="augmentation F, comma-separated")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--subseq", required=True)
    sp.add_argument("--terms", type=int, default=4)
    sp.add_argument("--start", type=int, default=1)
    sp.add_argument("--bound", type=nat_arg, required=True)
    _add_format_flags(sp)

    sp = sub.add_parser("probe", help="sample the (h-2)A and (h-1)A density trend conditions")
    sp.add_argument("--set", required=True)
    sp.add_argument("--h", type=int, required=True, help="claimed order, h >= 3")
    sp.add_argument("--subseq", required=True)
    sp.add_argument("--terms", type=int, default=5)
    sp.add_argument("--start", type=int, default=1)
    _add_format_flags(sp, plot_data=True)

    return parser


# parsed attributes that are not inputs of the computation
_NOT_INPUTS = ("command", "csv", "plot_data")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    # looked up per call, so a handler rebound on this module is the one that runs
    handler = {
        "verify-counterexample": _cmd_verify,
        "sumset": _cmd_sumset,
        "order": _cmd_order,
        "density": _cmd_density,
        "stability": _cmd_stability,
        "probe": _cmd_probe,
    }[args.command]
    started = time.perf_counter()
    try:
        result, status = handler(args)
    except VerificationError as exc:
        print(f"error: internal verification failure: {exc}", file=sys.stderr)
        return 3
    # ParseError, SemanticError and BoundCeilingError are ValueErrors
    except (OverflowError, ValueError) as exc:
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
    except ReportError as exc:
        print(f"error: report failed schema self-validation: {exc}", file=sys.stderr)
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
