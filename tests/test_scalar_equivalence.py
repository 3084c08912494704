"""Smoke tests of scripts/scalar_equivalence.py without git: this tree against
itself, imported side by side, and against one altered entry point."""

import sys
import types
from pathlib import Path

import entrecovery
from conftest import scalar_equivalence

SRC = Path(entrecovery.__file__).resolve().parent.parent
ENTRY_POINTS = {"RecoveryProblem", "classify_point", "is_feasible_closed_form",
                "can_concentrate_bell", "bell_bound", "product_spectra",
                "make_spectrum", "compare", "transform_verdict"}


def test_scalar_equivalence_finds_a_tree_equal_to_itself():
    name = "entrecovery_scalar_side_by_side"
    side = scalar_equivalence.load_package(SRC, name)
    try:
        assert side.classify_point is not entrecovery.classify_point
        calls, diffs = scalar_equivalence.compare(entrecovery, side, count=1000)
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
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
    calls, diffs = scalar_equivalence.compare(changed, entrecovery, count=1000)
    assert {name for name, *_ in diffs} == {"can_concentrate_bell"}
    for _, (eps, a, b, p, *_), got, want in diffs:
        assert abs(a * p - 0.5) <= eps
        assert (got, want) == (("bool", "True"), ("bool", "False"))
