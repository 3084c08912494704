"""Smoke tests of the scalar draws of scripts/scalar_equivalence.py and the
command lines of scripts/cli_equivalence.py through scripts/side_by_side.py
without git: this tree against itself, imported side by side, against one
altered entry point and against a CLI that prints other bytes.  Also the
boundary points that the draws and tests/test_scalar_spec.py share."""

import random
import types

import pytest

import entrecovery
import entrecovery.cli
from conftest import cli_equivalence, compare_with_itself, scalar_equivalence, side_by_side

ENTRY_POINTS = {"RecoveryProblem", "classify_point", "is_feasible_closed_form",
                "can_concentrate_bell", "bell_bound", "product_spectra",
                "make_spectrum", "compare", "transform_verdict"}


def first_draws():
    """The (outcomes, draws) check of the first 1000 scalar draws."""
    return [(scalar_equivalence.outcomes, scalar_equivalence.draws(0, 1000))]


@pytest.mark.parametrize("line", range(7))
def test_boundary_points_at_b_equal_1_lie_in_the_range(line):
    # at b = 1 line 2, (1-b)(1-q) = (1-a)(1-p), is p = 1
    rng = random.Random(f"b=1:{line}")
    for a in (0.5, 0.7, 0.999):
        for off in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3):
            p, q = scalar_equivalence.boundary_point(rng, line, a, 1.0, off)
            assert 0.5 <= p <= 1.0 and 0.5 <= q <= 1.0, (a, off, p, q)
            if line == 2:
                assert p == min(1.0, 1.0 + off), (a, off, p)


def test_scalar_equivalence_finds_a_tree_equal_to_itself():
    calls, diffs = compare_with_itself(first_draws())
    assert set(calls) == ENTRY_POINTS
    assert calls["RecoveryProblem"] == 1000
    assert diffs == []


def test_scalar_equivalence_reports_an_altered_entry_point():
    # a*p < 1/2 made non-strict within eps, on a and p clamped as the gate
    # clamps them: only the draws at k eps from the line ap = 1/2 can tell
    def clamped_ap(a, p):
        return min(1.0, max(0.5, a)) * min(1.0, max(0.5, p))

    def can_concentrate_bell(a, p, tol):
        return entrecovery.can_concentrate_bell(a, p, tol) or clamped_ap(a, p) <= 0.5 + tol.eps

    changed = types.SimpleNamespace(
        **{name: getattr(entrecovery, name) for name in ENTRY_POINTS | {"Tolerance"}})
    changed.can_concentrate_bell = can_concentrate_bell
    _, diffs = side_by_side.compare(changed, entrecovery, first_draws())
    assert {name for name, *_ in diffs} == {"can_concentrate_bell"}
    for _, (eps, a, b, p, *_), got, want in diffs:
        assert abs(clamped_ap(a, p) - 0.5) <= eps
        assert (got, want) == (("bool", "True"), ("bool", "False"))


CLI_CHECK = [(cli_equivalence.outcomes, cli_equivalence.ARGVS)]


def test_cli_equivalence_finds_a_tree_equal_to_itself():
    calls, diffs = compare_with_itself(CLI_CHECK)
    assert calls == {"cli transform": 8, "cli classify": 19, "cli bell": 11, "cli region": 4,
                     "cli --help": 1}
    assert diffs == []
    # the list covers both SystemExit codes and every exit status
    statuses = {cli_equivalence.run(entrecovery, argv)[0] for argv in cli_equivalence.ARGVS}
    assert statuses == {0, 1, 2}


def test_cli_equivalence_reports_a_command_that_prints_other_bytes():
    def main(argv):
        status = entrecovery.cli.main(argv)
        if argv[0] == "bell":
            print()
        return status

    changed = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    _, diffs = side_by_side.compare(changed, entrecovery, CLI_CHECK)
    bells = [argv for argv in cli_equivalence.ARGVS if argv[0] == "bell"]
    assert [(name, argv) for name, argv, *_ in diffs] == [("cli bell", argv) for argv in bells]
    for *_, got, want in diffs:  # the same status and stderr, stdout one line longer
        assert got[0::2] == want[0::2] and got[1] != want[1]
