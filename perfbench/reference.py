"""Record the exact outputs the benchmark checks against.

    python3 perfbench/reference.py

Writes perfbench/reference.json from the package in this checkout's
src/: the digest of every deform_ladder stage over the fixed pool, and
the eigenvalues of every polymer_spectrum solve.  Run it only on a
commit whose outputs are known to be right; the recorded values are the
gate that later commits must reproduce.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from apparent import deform  # noqa: E402

import workloads  # noqa: E402


def record() -> dict:
    ladder = []
    for base in workloads.ladder_pool():
        digests, ode = [], base
        for _ in range(workloads.LADDER_STAGES):
            res = deform(ode)
            digests.append(workloads.stage_digest(res))
            ode = res.ode
        ladder.append(digests)
    polymer = {}
    for spec in workloads.POLYMER_SOLVES:
        _p, res = workloads.solve(spec)
        polymer[workloads.solve_key(spec)] = list(res.eigenvalues)
    return {"deform_ladder": ladder, "polymer_spectrum": polymer}


if __name__ == "__main__":
    workloads.REFERENCE.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
