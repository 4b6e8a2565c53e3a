"""Check that ``addbasis.cli`` parses every argv as its top-level parser does.

Run as ``PYTHONPATH=src python tests/check_parse_parity.py``.  ``cli.main``
hands a command's arguments straight to that command's parser; this compares
that one-pass parse with ``build_parser().parse_args(argv)`` on the exit code
(``None`` when it returns), stdout, stderr and the parsed attributes, over a
corpus: every ``$ addbasis`` line of the README, every argv literal in
``tests/test_cli.py``, the invalid templates of ``bench/jobs.py``, and the
edge cases below (help, missing and unknown commands, abbreviations, ``--``,
repeated options, non-ASCII digits).  It needs no third-party package, so it
runs on every Python the package supports without an install, and exits 1
at the first difference.
"""

import ast
import contextlib
import io
import random
import shlex
import sys
from pathlib import Path

from addbasis import cli

ROOT = Path(__file__).resolve().parent.parent

SUMSET = ["sumset", "--set", "squares", "--h", "2", "--bound", "100"]
DENSITY = ["density", "--set", "squares", "--subseq", "10^k", "--terms", "2"]
ORDER = ["order", "--set", "squares", "--bound", "100", "--hmax", "4"]

EDGE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "sumset"],
    ["plot"],
    ["plot", "--set", "squares"],
    ["sum", "--set", "squares", "--h", "2", "--bound", "100"],
    ["SUMSET"],
    ["--set", "squares", "sumset"],
    ["--", *SUMSET],
    ["sumset"],
    ["verify-counterexample"],
    SUMSET[:3] + ["--h", "2", "--bou", "100"],
    [*SUMSET, "--lim", "5"],
    [*SUMSET, "--bound=200"],
    [*DENSITY, "--csv", "--plot-data"],
    [*DENSITY, "--plot", "--cs"],
    [*ORDER, "--plot-data"],
    [*ORDER, "--json"],
    [*ORDER, "--json", "extra", "--csv"],
    [*SUMSET, "--"],
    [*SUMSET, "--", "extra"],
    [*SUMSET, "--", "--h", "3"],
    ["sumset", "--", *SUMSET[1:]],
    [*SUMSET, "--set", "cubes"],
    [*SUMSET, "--h", "3", "--h", "4"],
    ["sumset", "--set", "squares", "--h", "two", "--bound", "100"],
    ["sumset", "--set", "squares", "--h", "--bound", "100"],
    ["sumset", "--set", "squares", "--h=2", "--bound", "100"],
    ["sumset", "--set", "--h", "2", "--bound", "100"],
    ["sumset", "--set", "-1", "--h", "2", "--bound", "100"],
    ["sumset", "--set", "squares", "--h", "١", "--bound", "10"],
    ["sumset", "--set", "squares", "--h", "1", "--bound", "١٠", "--limit", "٥"],
    ["sumset", "--set", "powers(٢)", "--h", "1", "--bound", "10"],
    ["stability", "--set", "counterexample", "--add", "3,١٢", "--h", "3", "--subseq", "k",
     "--bound", "100"],
    ["verify-counterexample", "--bound", "2.1e5", "--seed", "٧"],
    ["verify-counterexample", "--bound", "21000", "-h"],
    ["verify-counterexample", "stray"],
    ["verify-counterexample", ""],
]


def readme_argvs() -> list[list[str]]:
    """The ``$ addbasis ...`` lines of the README, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    return [
        shlex.split(line.strip()[len("$ addbasis ") :], comments=True)
        for line in text.splitlines()
        if line.strip().startswith("$ addbasis ")
    ]


def cli_test_argvs() -> list[list[str]]:
    """Every list or tuple of string literals in ``tests/test_cli.py`` that
    starts with a command name, and every ``run_cli``/``run_json`` call whose
    arguments after ``capsys`` are all string literals."""
    commands = set(cli._parsers()[1])
    found = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.List, ast.Tuple)):
            items = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("run_cli", "run_json"):
            items = node.args[1:]
        else:
            continue
        if items and all(isinstance(i, ast.Constant) and isinstance(i.value, str) for i in items):
            argv = [i.value for i in items]
            if argv[0] in commands:
                found.append(argv)
    return found


def bench_invalid_argvs() -> list[list[str]]:
    """The invalid-input templates of ``bench/jobs.py``, for a few seeds."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import jobs
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [argv for seed in range(3) for argv in jobs._invalid_templates(random.Random(seed))]


def corpus() -> list[list[str]]:
    commands = sorted(cli._parsers()[1])
    help_argvs = [[name, flag] for name in commands for flag in ("-h", "--help")]
    argvs = readme_argvs() + cli_test_argvs() + bench_invalid_argvs() + EDGE_CASES + help_argvs
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


def outcome(parse, argv: list[str]) -> tuple:
    """``parse(argv)``'s exit code (``None`` when it returns), stdout, stderr
    and parsed attributes."""
    out, err = io.StringIO(), io.StringIO()
    code, attrs = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            attrs = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), attrs


def mismatches(argvs: list[list[str]]) -> list[tuple]:
    """``(argv, one-pass outcome, reference outcome)`` for each argv on which
    the two parses differ."""
    differ = []
    for argv in argvs:
        ours = outcome(cli._parse_args, argv)
        reference = outcome(cli.build_parser().parse_args, argv)
        if ours != reference:
            differ.append((argv, ours, reference))
    return differ


def main() -> int:
    argvs = corpus()
    for argv, ours, reference in mismatches(argvs):
        print(f"one-pass parse differs on {argv!r}:\n  {ours!r}\n  {reference!r}", file=sys.stderr)
        return 1
    print(f"one-pass parse matches parse_args on {len(argvs)} argvs (Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
