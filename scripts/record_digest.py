#!/usr/bin/env python3
"""Print one digest line per reference study, to compare two checkouts.

Runs the six reference studies (theta 0.3) in deterministic mode and prints,
for each, its name, final DoF count, record count and the first 16 hex
digits of the sha256 of the records' ``repr`` with ``wall_ms`` zeroed:

    ex1 dofs=45205 records=32 sha256=0123456789abcdef

Two checkouts give the same numbers when ``diff`` finds no difference
between their outputs, e.g.

    PYTHONPATH=src python3 scripts/record_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python3 scripts/record_digest.py > old.txt

Takes a few seconds per study.
"""

import hashlib
import os
from dataclasses import replace

os.environ["MORLEY_OCP_THREADS"] = "0"   # before the package is imported

from morley_ocp import AdaptConfig, adaptive_solve, example  # noqa: E402

# name, problem, DoF budget, uniform refinement
STUDIES = [
    ("ex1", "ex1", 45000, False),
    ("ex2", "ex2", 25000, False),
    ("ex3", "ex3", 30000, False),
    ("ex4", "ex4", 20000, False),
    ("ex4-adaptive", "ex4", 10000, False),
    ("ex4-uniform", "ex4", 20000, True),
]


def digest(name, problem, max_dofs, uniform):
    """The digest line of one study."""
    run = adaptive_solve(example(problem),
                         AdaptConfig(theta=0.3, max_dofs=max_dofs,
                                     uniform=uniform))
    records = [replace(r, wall_ms=0.0) for r in run.records]
    sha = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    return (f"{name} dofs={records[-1].dofs} records={len(records)} "
            f"sha256={sha}")


if __name__ == "__main__":
    for study in STUDIES:
        print(digest(*study), flush=True)
