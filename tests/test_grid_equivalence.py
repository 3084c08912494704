"""Smoke tests of the grid families of scripts/grid_equivalence.py through
scripts/side_by_side.py without git: this tree against itself, imported side
by side, and against a changed grid code or CSV byte and a grid that raises,
at n <= 16."""

import types

import entrecovery
import entrecovery.cli
from conftest import compare_with_itself, grid_equivalence, side_by_side

FAMILIES = {"random", "ulp-gap", "open-brackets", "open-forward-bracket",
            "open-row-no-equal", "row-plus-eps", "wide-eps-equal", "swap-block",
            "edge-of-range", "four-decimal"}
SWAP_BLOCK_16 = ("swap-block", *grid_equivalence.SWAP_BLOCK, 16)


def small_grids():
    """The (outcomes, draws) check of every family grid, with n capped at 16."""
    draws = ((f, a, b, eps, min(n, 16)) for f, a, b, eps, n in grid_equivalence.families(0))
    return [(grid_equivalence.outcomes, draws)]


def test_grid_equivalence_finds_a_tree_equal_to_itself():
    compared, diffs = compare_with_itself(small_grids())
    assert {f for f, *_ in grid_equivalence.families(0)} == FAMILIES
    assert set(compared) == FAMILIES
    assert sum(compared.values()) == sum(1 for _ in grid_equivalence.families(0))
    assert diffs == []


def stand_in(**changed):
    """This tree's package with the names in changed replaced."""
    names = dict(RecoveryProblem=entrecovery.RecoveryProblem, Tolerance=entrecovery.Tolerance,
                 region_grid=entrecovery.region_grid, cli=entrecovery.cli)
    return types.SimpleNamespace(**{**names, **changed})


def test_grid_equivalence_reports_each_grid_that_differs():
    def region_grid(prob, n):
        grid = entrecovery.region_grid(prob, n)
        if (prob.a, prob.b) == grid_equivalence.SWAP_BLOCK[:2]:
            grid.codes[0, 0] = 0
        return grid

    _, diffs = side_by_side.compare(stand_in(region_grid=region_grid), entrecovery, small_grids())
    assert [(name, draw) for name, draw, *_ in diffs] == [("swap-block", SWAP_BLOCK_16)] * 3


def test_grid_equivalence_reports_a_grid_that_raises():
    def region_grid(prob, n):
        if (prob.a, prob.b) == grid_equivalence.SWAP_BLOCK[:2]:
            raise IndexError("grid index 17 outside 0..16")
        return entrecovery.region_grid(prob, n)

    _, diffs = side_by_side.compare(stand_in(region_grid=region_grid), entrecovery, small_grids())
    assert [(name, draw) for name, draw, *_ in diffs] == [("swap-block", SWAP_BLOCK_16)] * 3
    for *_, got, want in diffs:
        assert got == ("raises", "IndexError", "grid index 17 outside 0..16")
        assert want[0] != "raises"


def test_grid_equivalence_reports_a_grid_whose_csv_bytes_differ():
    def write_region_csv(grid, fh):
        entrecovery.cli.write_region_csv(grid, fh)
        if (grid.a, grid.b) == grid_equivalence.SWAP_BLOCK[:2]:
            fh.write("\n")

    changed = stand_in(cli=types.SimpleNamespace(write_region_csv=write_region_csv))
    _, diffs = side_by_side.compare(changed, entrecovery, small_grids())
    assert [(name, draw) for name, draw, *_ in diffs] == [("swap-block", SWAP_BLOCK_16)] * 3
    for *_, got, want in diffs:  # the same codes and counts, other CSV bytes
        assert got[:2] == want[:2] and got[2] != want[2]
