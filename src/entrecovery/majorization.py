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
    if type(tol) is not Tolerance:
        require_tolerance(tol)
    xv, yv = x.values, y.values
    if len(xv) != len(yv):
        xv, yv = _padded(x, y)
    eps = tol.eps
    sx = 0.0
    sy = 0.0
    for k in range(len(xv) - 1):
        sx += xv[k]
        sy += yv[k]
        if not sx <= sy + eps:  # tol.leq(sx, sy)
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
    if type(tol) is not Tolerance:
        require_tolerance(tol)
    xv, yv = x.values, y.values
    if len(xv) != len(yv):
        xv, yv = _padded(x, y)
    # one pass: elementwise closeness and is_majorized_by in both directions
    # from the same running sums, which skip the last entry as it does
    eps = tol.eps
    equal = fwd = rev = True
    sx = sy = 0.0
    for k in range(len(xv) - 1):
        u, v = xv[k], yv[k]
        if not abs(u - v) <= eps:  # tol.close(u, v)
            equal = False
        sx += u
        sy += v
        if not sx <= sy + eps:  # tol.leq(sx, sy)
            fwd = False
        if not sy <= sx + eps:
            rev = False
        if not (equal or fwd or rev):
            return Comparability.INCOMPARABLE
    if equal and xv and not abs(xv[-1] - yv[-1]) <= eps:
        equal = False
    if equal or (fwd and rev):
        return Comparability.EQUAL
    if fwd:
        return Comparability.LEFT_MAJORIZED
    if rev:
        return Comparability.RIGHT_MAJORIZED
    return Comparability.INCOMPARABLE
