"""Golden outputs: every command in the README, pinned byte for byte.

Each case runs ``addbasis.cli.main`` in-process with the README's arguments
and compares the exit code and stdout against ``tests/golden/<name>``, with
the ``timing_ms`` value masked on both sides.  The test never writes a golden
file; regenerate one by hand as the README's "Install and test" section
shows, and review the diff before committing it.
"""

import re
import shlex
from pathlib import Path

import pytest

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
