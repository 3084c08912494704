"""Exact truth for the tests: the benchmark's rational-arithmetic reference,
loaded once, and one comparison rule at any tolerance.

perfbench/reference.py decides classes, the closed form, Bell concentration
and comparability in Fraction arithmetic on the float inputs, at the
package's default eps, and leaves a margin within its 1e-9 band of zero
undecided (None).  holds() decides one comparison as README "Tolerances"
states it, for the eps a test chooses.
"""

from fractions import Fraction

from conftest import load_benchmark_module

reference = load_benchmark_module("reference")
products = reference._products  # sorted products of a c-pair and a v-pair
prefix_gaps = reference._prefix_gaps  # (xs, ys, sum(ys[:k]) - sum(xs[:k]))
all_of = reference._all  # three-valued conjunction
classify = reference.classify
closed_form = reference.closed_form
comparability = reference.comparability
can_concentrate = reference.can_concentrate

# the package's products and running sums are within a few ulps of 1 of
# their exact values, so a margin this close to its threshold is undecided
UNDECIDED = Fraction(1, 10**14)


def holds(margin: Fraction, eps: float, strict: bool):
    """Exact truth of a comparison within eps: a non-strict one holds when
    margin >= -eps, a strict one when margin > eps; None within UNDECIDED of
    that threshold."""
    edge = margin - Fraction(eps) if strict else margin + Fraction(eps)
    return None if abs(edge) <= UNDECIDED else edge > 0
