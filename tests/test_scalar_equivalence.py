"""Smoke tests of the scalar draws of scripts/scalar_equivalence.py through
scripts/side_by_side.py without git: this tree against itself, imported side
by side, and against one altered entry point."""

import types

import entrecovery
from conftest import compare_with_itself, scalar_equivalence, side_by_side

ENTRY_POINTS = {"RecoveryProblem", "classify_point", "is_feasible_closed_form",
                "can_concentrate_bell", "bell_bound", "product_spectra",
                "make_spectrum", "compare", "transform_verdict"}


def first_draws():
    """The (outcomes, draws) check of the first 1000 scalar draws."""
    return [(scalar_equivalence.outcomes, scalar_equivalence.draws(0, 1000))]


def test_scalar_equivalence_finds_a_tree_equal_to_itself():
    calls, diffs = compare_with_itself(first_draws())
    assert set(calls) == ENTRY_POINTS
    assert calls["RecoveryProblem"] == 1000
    assert diffs == []


def test_scalar_equivalence_reports_an_altered_entry_point():
    # a*p < 1/2 made non-strict within eps: only the draws at k eps from the
    # line ap = 1/2 can tell
    def can_concentrate_bell(a, p, tol):
        return entrecovery.can_concentrate_bell(a, p, tol) or a * p <= 0.5 + tol.eps

    changed = types.SimpleNamespace(
        **{name: getattr(entrecovery, name) for name in ENTRY_POINTS | {"Tolerance"}})
    changed.can_concentrate_bell = can_concentrate_bell
    _, diffs = side_by_side.compare(changed, entrecovery, first_draws())
    assert {name for name, *_ in diffs} == {"can_concentrate_bell"}
    for _, (eps, a, b, p, *_), got, want in diffs:
        assert abs(a * p - 0.5) <= eps
        assert (got, want) == (("bool", "True"), ("bool", "False"))
