"""The North-star grid as a ratchet: the round trip passes at least FLOOR of its 75 cells.

``scripts/grid.py`` computes the grid and writes the committed ``GRID.json``;
a change that raises the pass count raises FLOOR with it.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = 37

_spec = importlib.util.spec_from_file_location("grid", ROOT / "scripts" / "grid.py")
grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grid)


@pytest.fixture(scope="module")
def scorecard():
    return grid.grid()


def test_pass_count_holds_the_floor(scorecard):
    assert scorecard["of"] == 75
    assert scorecard["passed"] >= FLOOR, scorecard["outcomes"]


def test_every_failure_is_a_named_outcome(scorecard):
    # a StageError's "<stage> <error type>" or the part of criterion 09 that was missed
    stage = re.compile(r"(truncate|structure|eigen|measure|orthonormalize|recover|verify) \w+")
    for cell in scorecard["cells"]:
        for outcome in cell["outcomes"]:
            assert (outcome == "passed" or outcome in grid.MISSES
                    or stage.fullmatch(outcome)), (cell["n"], cell["N"], outcome)


def test_committed_scorecard_holds_the_floor():
    committed = json.loads((ROOT / "GRID.json").read_text())
    assert committed["passed"] >= FLOOR
    assert sum(committed["outcomes"].values()) == committed["of"] == 75


def test_committed_scorecard_is_the_recomputed_one(scorecard):
    committed = json.loads((ROOT / "GRID.json").read_text())
    assert len(committed["cells"]) == len(scorecard["cells"])
    for got, want in zip(scorecard["cells"], committed["cells"]):
        assert got == want, (got["n"], got["N"])
    assert scorecard == committed
