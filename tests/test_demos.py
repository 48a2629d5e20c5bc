"""The demos run end to end, each in a fresh process.

``golden_demos.json`` holds the stdout of every demo.  Demos 01-03 are
exact and must print the same bytes; demo 04 prints floats from the
polymer solver, which may move in the last digits when the solver
changes, so its numbers are compared to one unit in the last printed
place and its text exactly.

Regenerate the file (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_demos.py --write``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
GOLDEN = Path(__file__).with_name("data") / "golden_demos.json"
NUMBER = re.compile(r"-?\d+\.(\d+)")


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_every_demo_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    want = json.loads(GOLDEN.read_text())[demo.name]
    proc = run_demo(demo)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    if not demo.name.startswith("04_"):
        assert proc.stdout == want
        return
    assert NUMBER.sub("#", proc.stdout) == NUMBER.sub("#", want)
    for got, pinned in zip(NUMBER.finditer(proc.stdout), NUMBER.finditer(want)):
        unit = 10.0 ** -len(pinned[1])
        assert float(got[0]) == pytest.approx(float(pinned[0]), abs=unit * 1.01)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({d.name: run_demo(d).stdout for d in DEMOS}, indent=1) + "\n")
