"""Write the North-star grid's scorecard: the round trip's outcome per cell and seed.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/grid.py -o GRID.json

The grid is n in {1,2,3}, N in {10,20,40,80,160} and seeds 0-4; an instance
is ``reconstruct.roundtrip(spec, I, N)`` on the spec
``generate_random(GenProfile(n, N), seed)``.  Its outcome is one of

* ``"passed"``: the report meets criterion 09;
* ``"<stage> <error type>"``, such as ``"measure NumericalFailure"``: the
  ``StageError`` that ended the round trip;
* ``"size"``, ``"class"`` or ``"bounds"``: the first part of criterion 09
  that the report missed, in that order: the recovered matrix is not
  N x N, its structure is not in mtilde, or its eigenvalue or jump-matrix
  error exceeds the bound.

The file holds the pass count, the count of each outcome and, per cell,
the five seeds' outcomes.  ``tests/test_grid.py`` recomputes the grid and
holds the pass count to a floor.
"""

import argparse
import collections
import json

import numpy as np

from specband import GenProfile, generate_random
from specband.errors import StageError
from specband.reconstruct import roundtrip
from specband.spectral import BoundaryMatrix

NS = (1, 2, 3)
SIZES = (10, 20, 40, 80, 160)
SEEDS = range(5)
#: every outcome that is not a pass, beside the "<stage> <error type>" of a StageError
MISSES = ("size", "class", "bounds")


def outcome(n, N, seed):
    """The round trip's outcome on the grid instance (n, N, seed)."""
    spec = generate_random(GenProfile(n, N), seed)
    try:
        report = roundtrip(spec, BoundaryMatrix(n, np.eye(n)), N)
    except StageError as exc:
        return f"{exc.stage} {type(exc.original).__name__}"
    if report.passed:
        return "passed"
    if report.matrix.N != N:
        return "size"
    return "bounds" if report.class_ok else "class"


def grid():
    """The scorecard: pass count, outcome counts and each cell's outcomes."""
    cells = [{"n": n, "N": N, "outcomes": [outcome(n, N, s) for s in SEEDS]}
             for n in NS for N in SIZES]
    counts = collections.Counter(o for cell in cells for o in cell["outcomes"])
    return {"passed": counts["passed"], "of": sum(counts.values()),
            "outcomes": dict(sorted(counts.items())), "cells": cells}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--output", default="GRID.json")
    args = parser.parse_args()
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(grid(), indent=2) + "\n")


if __name__ == "__main__":
    main()
