"""Golden outputs: every command in the README, pinned byte for byte.

Each case runs ``addbasis.cli.main`` in-process with the README's arguments
and compares the exit code and stdout against ``tests/golden/<name>``, with
the ``timing_ms`` value masked on both sides.  The test never writes a golden
file; regenerate one by hand as the README's "Install and test" section
shows, and review the diff before committing it.  The README's ``python``
blocks run here too, checked against what their comments state.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import addbasis
from addbasis.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"
TIMING = re.compile(r'"timing_ms": [^,\n]+')
MASK = '"timing_ms": "<masked>"'

# name -> (argv, exit code); the README's seven commands plus two output modes
CASES = {
    "order-squares.json": ("order --set squares --bound 10000 --hmax 6", 0),
    "order-cubes.json": ("order --set cubes --bound 1e4 --hmax 10", 0),
    "sumset-counterexample.json": ("sumset --set counterexample --h 2 --bound 2.1e4", 0),
    "density-counterexample.csv": (
        'density --set counterexample --t 1 --subseq "2*10^k+1" --terms 5 --csv',
        0,
    ),
    "density-counterexample.json": (
        'density --set counterexample --t 1 --subseq "2*10^k+1" --terms 5',
        0,
    ),
    "stability-counterexample.json": (
        'stability --set counterexample --add 11,12,21 --h 3 --subseq "2*10^k+1" '
        "--start 2 --terms 4 --bound 2.1e5",
        0,
    ),
    "probe-squares.json": ('probe --set squares --h 4 --subseq "10^k" --start 2 --terms 5', 0),
    "probe-squares.plot": (
        'probe --set squares --h 4 --subseq "10^k" --start 2 --terms 5 --plot-data',
        0,
    ),
    "verify-counterexample.json": ("verify-counterexample --bound 2.1e5 --seed 0", 0),
}


def readme_commands() -> set[str]:
    """The ``$ addbasis ...`` lines of the README, continuations joined."""
    text = README.read_text().replace("\\\n", " ")
    found = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("$ addbasis "):
            argv = shlex.split(line[len("$ addbasis ") :], comments=True)
            found.add(" ".join(argv))
    return found


def test_every_readme_command_is_pinned():
    pinned = {" ".join(shlex.split(argv)) for argv, _ in CASES.values()}
    # the bare verify-counterexample line runs the same defaults as the pinned one
    assert readme_commands() - pinned == {"verify-counterexample"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    argv, want_code = CASES[name]
    code = main(shlex.split(argv))
    out = capsys.readouterr().out
    assert code == want_code
    assert TIMING.sub(MASK, out) == TIMING.sub(MASK, (GOLDEN / name).read_text())


# calls between two passes over the goldens, with the start of their stdout:
# each failure exits 2 before any output, and the other output modes must
# leave the shared parser as it was
INTERLEAVED = (
    ("order --set squares", 2, ""),  # argparse usage error: --bound and --hmax missing
    ("sumset --set interval[5,2] --h 2 --bound 10", 2, ""),  # SemanticError
    ("sumset --set primes --h 2 --bound 10", 2, ""),  # ParseError
    ("verify-counterexample --bound 21000 --csv", 0, "claim,status\n"),
    ('density --set counterexample --subseq "10^k" --terms 3 --plot-data', 0, "1 10 1\n"),
    ("--help", 0, "usage: addbasis"),
)


def test_goldens_survive_parser_reuse(capsys):
    # main builds its parser once per process, so nothing a call parses may
    # change what a later call prints
    for _ in range(2):
        for name in sorted(CASES):
            argv, want_code = CASES[name]
            assert main(shlex.split(argv)) == want_code
            out = capsys.readouterr().out
            assert TIMING.sub(MASK, out) == TIMING.sub(MASK, (GOLDEN / name).read_text()), name
        for argv, want_code, want_start in INTERLEAVED:
            assert main(shlex.split(argv)) == want_code, argv
            out = capsys.readouterr().out
            assert out.startswith(want_start) and bool(out) == bool(want_start), argv


# one README line per command; each runs in a fresh process whose import of
# jsonschema fails, so the package must not need it at runtime
WITHOUT_JSONSCHEMA = (
    "order-squares.json",
    "sumset-counterexample.json",
    "density-counterexample.csv",
    "stability-counterexample.json",
    "probe-squares.json",
    "verify-counterexample.json",
)
BLOCKED_RUN = (
    "import sys; sys.modules['jsonschema'] = None; "
    "from addbasis.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize("name", WITHOUT_JSONSCHEMA)
def test_runs_without_jsonschema(name, capsys):
    argv = shlex.split(CASES[name][0])
    src = str(Path(addbasis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    code = main(argv)
    out = capsys.readouterr().out
    assert proc.returncode == code, proc.stderr
    assert TIMING.sub(MASK, proc.stdout) == TIMING.sub(MASK, out)


def readme_python_values() -> tuple[dict, list]:
    """Run the README's ``python`` blocks in order in one namespace.

    Returns the namespace and the value of each top-level expression
    statement, in order: the README shows those values only in comments.
    """
    namespace: dict = {}
    values = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values.append(eval(code, namespace))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_python_blocks():
    namespace, (order, two_fold, density, runs_2a) = readme_python_values()
    # upper 3 / lower 3, witness 21
    assert (order.upper, order.lower, order.witness) == (3, 3, 21)
    # .bits is the exact 2A prefix: its gaps are the 2*10^k + 1 up to 21,000
    assert tuple(two_fold.bits.gaps()) == (21, 201, 2001, 20001)
    assert [row.n for row in density] == [21, 201, 2001, 20001, 200001]
    # 6 runs; 2A: 6 runs, gaps 21, 201, ...
    assert len(namespace["runs"]) == 6
    assert len(runs_2a) == 6
    gaps = [n for (_, hi), (lo, _) in zip(runs_2a, runs_2a[1:]) for n in range(hi + 1, lo)]
    assert gaps == [21, 201, 2001, 20001, 200001]
