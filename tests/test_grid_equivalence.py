"""Smoke tests of scripts/grid_equivalence.py without git: this tree against
itself, imported side by side, at n <= 16."""

import sys
import types
from pathlib import Path

import entrecovery
import entrecovery.cli
from conftest import grid_equivalence

SRC = Path(entrecovery.__file__).resolve().parent.parent
FAMILIES = {"random", "ulp-gap", "open-brackets", "open-forward-bracket",
            "open-row-no-equal", "row-plus-eps", "wide-eps-equal", "swap-block",
            "edge-of-range", "four-decimal"}


def test_grid_equivalence_finds_a_tree_equal_to_itself():
    name = "entrecovery_side_by_side"
    side = grid_equivalence.load_package(SRC, name)
    try:
        assert side.region_grid is not entrecovery.region_grid
        compared, diffs = grid_equivalence.compare(entrecovery, side, max_n=16)
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
    assert {f for f, *_ in grid_equivalence.families(0)} == FAMILIES
    assert compared == sum(1 for _ in grid_equivalence.families(0))
    assert diffs == []


def test_grid_equivalence_reports_each_grid_that_differs():
    def region_grid(prob, n):
        grid = entrecovery.region_grid(prob, n)
        if (prob.a, prob.b) == grid_equivalence.SWAP_BLOCK[:2]:
            grid.codes[0, 0] = 0
        return grid

    changed = types.SimpleNamespace(
        RecoveryProblem=entrecovery.RecoveryProblem,
        Tolerance=entrecovery.Tolerance,
        region_grid=region_grid,
        cli=entrecovery.cli,
    )
    _, diffs = grid_equivalence.compare(changed, entrecovery, max_n=16)
    assert diffs == [("swap-block", *grid_equivalence.SWAP_BLOCK, 16)] * 3


def test_grid_equivalence_reports_a_grid_whose_csv_bytes_differ():
    def write_region_csv(grid, fh):
        entrecovery.cli.write_region_csv(grid, fh)
        if (grid.a, grid.b) == grid_equivalence.SWAP_BLOCK[:2]:
            fh.write("\n")

    changed = types.SimpleNamespace(
        RecoveryProblem=entrecovery.RecoveryProblem,
        Tolerance=entrecovery.Tolerance,
        region_grid=entrecovery.region_grid,
        cli=types.SimpleNamespace(write_region_csv=write_region_csv),
    )
    _, diffs = grid_equivalence.compare(changed, entrecovery, max_n=16)
    assert diffs == [("swap-block", *grid_equivalence.SWAP_BLOCK, 16)] * 3
