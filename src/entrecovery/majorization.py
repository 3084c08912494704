"""Majorization preorder on probability vectors.

x is majorized by y (x < y in the majorization sense) when every prefix sum
of the decreasingly sorted x is bounded by the corresponding prefix sum of
sorted y.  Totals are equal by normalization, so the last prefix is skipped.
"""

from __future__ import annotations

import enum

from .spectra import DEFAULT_TOL, SchmidtSpectrum, Tolerance, require_tolerance

__all__ = ["Comparability", "is_majorized_by", "compare"]


class Comparability(enum.Enum):
    """Four-way outcome of comparing two spectra under majorization."""

    LEFT_MAJORIZED = "left-majorized"    # x < y only: x converts to y
    RIGHT_MAJORIZED = "right-majorized"  # y < x only
    EQUAL = "equal"                      # same multiset within tolerance
    INCOMPARABLE = "incomparable"        # neither direction


def _padded(x: SchmidtSpectrum, y: SchmidtSpectrum):
    # zero-padding the shorter vector changes neither prefix sums nor entropy
    n = max(len(x), len(y))
    xv = x.values + (0.0,) * (n - len(x))
    yv = y.values + (0.0,) * (n - len(y))
    return xv, yv


def is_majorized_by(
    x: SchmidtSpectrum, y: SchmidtSpectrum, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff x is majorized by y: prefix sums of x never exceed those of y.

    Spectra of unequal length are zero-padded to the longer length.  Each
    prefix comparison is non-strict within eps.
    """
    require_tolerance(tol)
    xv, yv = _padded(x, y)
    sx = 0.0
    sy = 0.0
    for k in range(len(xv) - 1):
        sx += xv[k]
        sy += yv[k]
        if not tol.leq(sx, sy):
            return False
    return True


def compare(
    x: SchmidtSpectrum, y: SchmidtSpectrum, tol: Tolerance = DEFAULT_TOL
) -> Comparability:
    """Classify the pair as equal, one-directional, or incomparable.

    Equal (elementwise coincidence within eps) takes precedence over the
    directional tags.  Pairs whose prefix sums dominate in both directions
    without elementwise coincidence are a tolerance-width sliver; they are
    reported as Equal so the classification stays total.
    """
    require_tolerance(tol)
    xv, yv = _padded(x, y)
    if all(tol.close(u, v) for u, v in zip(xv, yv)):
        return Comparability.EQUAL
    fwd = is_majorized_by(x, y, tol)
    rev = is_majorized_by(y, x, tol)
    if fwd and rev:
        return Comparability.EQUAL
    if fwd:
        return Comparability.LEFT_MAJORIZED
    if rev:
        return Comparability.RIGHT_MAJORIZED
    return Comparability.INCOMPARABLE
