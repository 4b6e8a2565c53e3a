"""The two scripts in ``scripts/``, each run in a fresh process.

They import public names that the other tests reach only through the
package, so a change to what the library returns can break them without
failing anything else.  Each run is checked for exit 0 and one known line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_family_explorer():
    proc = run_script("family_explorer.py", "--bases", "3", "10", "--bound", "10000", "--hmax", "5")
    assert proc.returncode == 0, proc.stderr
    # base 10: order bracket 3/3 with witness 21, as the counterexample has
    assert re.search(r"^ +10 +3/3 +21 ", proc.stdout, re.M), proc.stdout


def test_reproduce_claims():
    proc = run_script("reproduce_claims.py", "--bound", "21000")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^overall: PASS ", proc.stdout, re.M), proc.stdout
