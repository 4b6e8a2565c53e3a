"""The ``addbasis`` command line: machine-readable reports over the library.

A result echoes its inputs and adds the library report's fields through
``report.jsonable``, which decides which ratios get a decimal; ``sumset`` and
``verify-counterexample`` build theirs from listings and PASS/FAIL verdicts.

Exit codes: 0 success, 2 precondition or usage violation (a ``ParseError``,
``SemanticError`` or ``BoundCeilingError``, or an argparse error) or a
command that ran out of memory (``MemoryError``) or a stdout whose reader
closed it before the report was written (``BrokenPipeError``; one line on
stderr and nothing else, not even at interpreter exit), 3 internal failure: a
mathematical claim or certificate did not hold, a report failed its shape
check, or the library raised any other ``ValueError`` or ``OverflowError``.

``main(argv)`` may be called repeatedly in one process: the parsers are built
once, on first use, and hold only argument definitions.  Each call is parsed
once, by its command's own parser; help, an unknown command and a missing
one still go through the top-level parser, so every message and exit code is
the one ``build_parser().parse_args(argv)`` gives.  Each call parses its set
expression once, into ``args.expr`` (``verify-counterexample``'s is the
counterexample), and picks its command's handler by name from this module
when it runs.
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
from .setexpr import U64_MAX, BoundCeilingError, ParseError, SemanticError, parse_set_expr
from .sumset import iterate_sumset
from .verify import verify_counterexample


def _ascii_digits(text: str) -> bool:
    # int() and Decimal() also read other scripts' digits and underscores
    return text.isascii() and "_" not in text


def int_arg(text: str) -> int:
    """An integer in ASCII digits, without underscores, as ``int()`` reads it."""
    try:
        if not _ascii_digits(text):
            raise ValueError
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}") from None


def nat_arg(text: str) -> int:
    """Integer in ``[0, 2^64 - 1]`` in ASCII digits, accepting scientific
    notation like ``2.1e5``."""
    if not _ascii_digits(text):
        raise argparse.ArgumentTypeError(f"not a number in ASCII digits: {text!r}")
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
    """Comma-separated integers in ``[0, 2^64 - 1]``, in ASCII digits."""
    try:
        if not _ascii_digits(text):
            raise ValueError
        items = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    if any(not 0 <= x <= U64_MAX for x in items):
        raise argparse.ArgumentTypeError(f"elements must lie in [0, 2^64-1]: {text!r}")
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
        raise SemanticError(
            f"{flag} {value} needs fold {fold}, which exceeds max(bound, 1) = "
            f"{max(bound, 1)}; more folds add nothing on [0, bound]"
        )


# --terms sets the rows of a density or probe report and the family of a
# stability probe, and time and report size grow with it; no documented
# command or benchmark job asks for more than 40
MAX_TERMS = 1000


def _subseq(args) -> SubseqSpec:
    if args.terms > MAX_TERMS:
        raise SemanticError(f"--terms {args.terms} exceeds MAX_TERMS = {MAX_TERMS}")
    return parse_subseq(args.subseq, start=args.start, count=args.terms)


def _cmd_sumset(args) -> tuple[dict, int]:
    _check_folds("--h", args.h, args.h, args.bound)
    result = iterate_sumset(args.expr, args.h, args.bound)
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
    rep = order_bounds(args.expr, args.bound, args.hmax)
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
    subseq = _subseq(args)
    _check_folds("--t", args.t, args.t, subseq.indexed_terms()[-1][1])
    rows = density_sequence(args.expr, args.t, subseq)
    min_ratio, max_ratio = window_extrema(rows)
    payload = {
        "set": args.set,
        "t": args.t,
        "subseq": str(subseq),
        "start": args.start,
        "terms": args.terms,
        "rows": jsonable(rows),
        "min_ratio": str(min_ratio),
        "max_ratio": str(max_ratio),
    }
    return payload, 0


def _cmd_stability(args) -> tuple[dict, int]:
    family = _subseq(args)
    _check_folds("--h", args.h, args.h - 1, args.bound)
    rep = stability_probe(args.expr, args.add, args.h, family, args.bound)
    payload = {"set": args.set, "start": args.start, "terms": args.terms, **jsonable(rep)}
    return payload, 0


def _cmd_probe(args) -> tuple[dict, int]:
    subseq = _subseq(args)
    _check_folds("--h", args.h, args.h - 1, subseq.indexed_terms()[-1][1])
    rep = hypothesis_probe(args.expr, args.h, subseq)
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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built on
    the first call and shared."""
    parser = argparse.ArgumentParser(
        prog="addbasis",
        description="Experiments with additive bases: sumsets, densities, order and stability probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help: str) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, help=help)
        return commands[name]

    sp = command(
        "verify-counterexample",
        help="reproduce every desk-scale claim about the built-in counterexample family",
    )
    sp.add_argument("--bound", type=nat_arg, default=210000)
    sp.add_argument("--seed", type=int_arg, default=0, help="stability sweep RNG seed")
    sp.set_defaults(set="counterexample")
    _add_format_flags(sp)

    sp = command("sumset", help="h-fold sumset membership and gaps over [0, bound]")
    sp.add_argument("--set", required=True, help="set expression")
    sp.add_argument("--h", type=int_arg, required=True, help="fold count")
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.add_argument("--limit", type=nat_arg, default=100, help="member/gap listing cap")
    _add_format_flags(sp)

    sp = command("order", help="certified order lower bound and prefix upper bound")
    sp.add_argument("--set", required=True)
    sp.add_argument("--bound", type=nat_arg, required=True)
    sp.add_argument("--hmax", type=int_arg, required=True)
    _add_format_flags(sp)

    sp = command("density", help="counting-function ratios of tA along a subsequence")
    sp.add_argument("--set", required=True)
    sp.add_argument("--t", type=int_arg, default=1, help="fold count (density of tA)")
    sp.add_argument("--subseq", required=True, help='e.g. "2*10^k+1" or "10^k"')
    sp.add_argument("--terms", type=int_arg, default=5)
    sp.add_argument("--start", type=int_arg, default=1, help="first index k")
    _add_format_flags(sp, plot_data=True)

    sp = command("stability", help="which witness-family terms stay outside (h-1)(A ∪ F)")
    sp.add_argument("--set", required=True)
    sp.add_argument("--add", type=intlist_arg, default=(), help="augmentation F, comma-separated")
    sp.add_argument("--h", type=int_arg, required=True)
    sp.add_argument("--subseq", required=True)
    sp.add_argument("--terms", type=int_arg, default=4)
    sp.add_argument("--start", type=int_arg, default=1)
    sp.add_argument("--bound", type=nat_arg, required=True)
    _add_format_flags(sp)

    sp = command("probe", help="sample the (h-2)A and (h-1)A density trend conditions")
    sp.add_argument("--set", required=True)
    sp.add_argument("--h", type=int_arg, required=True, help="claimed order, h >= 3")
    sp.add_argument("--subseq", required=True)
    sp.add_argument("--terms", type=int_arg, default=5)
    sp.add_argument("--start", type=int_arg, default=1)
    _add_format_flags(sp, plot_data=True)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The one top-level parser of this process, built on the first call and shared."""
    return _parsers()[0]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass.  The top-level parser
    hands a command's arguments to that command's parser unchanged, so they
    go there directly; leftovers are reported as the top-level parser reports
    them.  Help, an unknown command and a missing one go through the
    top-level parser."""
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


# parsed attributes that are not inputs of the computation
_NOT_INPUTS = ("command", "csv", "plot_data")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
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
        args.expr = parse_set_expr(args.set)
        result, status = handler(args)
    except VerificationError as exc:
        print(f"error: internal verification failure: {exc}", file=sys.stderr)
        return 3
    # the input errors; any other ValueError or OverflowError is our fault
    except (ParseError, SemanticError, BoundCeilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the bound the caller asked for does not fit in this process's memory
    except MemoryError:
        print(f"error: {args.command} ran out of memory; a lower bound may fit", file=sys.stderr)
        return 2
    except (OverflowError, ValueError) as exc:
        print(f"error: internal failure: {exc}", file=sys.stderr)
        return 3
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
        text = rows_csv(report)
    elif getattr(args, "plot_data", False):
        text = plot_data_lines(report)
    else:
        text = canonical_json(report)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    # the reader closed the pipe before it read the report; the failed flush
    # leaves nothing buffered, so the flush at interpreter exit is silent
    except BrokenPipeError:
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
