"""The scalar deciders against exact rational arithmetic (tests/exact.py).

Seeded draws, a quarter of them just across a boundary line of the recovery
region, must get the exact answer wherever the reference decides one; and
is_majorized_by, and the split of classify_point's non-forward classes into
increasing and incomparable, must follow the exact rule within eps at eps
far above the default, on points a few eps across the lines ap = bq,
(1-b)(1-q) = (1-a)(1-p) and p = b.
"""

import random
from fractions import Fraction

import pytest

from entrecovery import (
    RecoveryProblem,
    RegionClass,
    Tolerance,
    can_concentrate_bell,
    classify_point,
    compare,
    is_feasible_closed_form,
    is_majorized_by,
    product_spectra,
)
import exact
from conftest import scalar_equivalence


def test_scalar_deciders_agree_with_the_exact_reference():
    rng = random.Random("exact")
    decided = 0
    for k in range(3000):
        a = rng.uniform(0.5, 0.95)
        b = 1.0 if k % 10 == 0 else rng.uniform(a + 0.01, 1.0)
        if k % 4 == 1:  # at a multiple of 1e-8, outside the 1e-9 band, from a line
            line, off = rng.randrange(7), rng.randint(-3, 3) * 1e-8
            p, q = scalar_equivalence.boundary_point(rng, line, a, b, off)
        else:
            p, q = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        prob = RecoveryProblem(a, b)
        label = exact.classify(a, b, p, q)
        if label is not None:
            decided += 1
            assert classify_point(prob, p, q).value == label, (a, b, p, q)
        closed = exact.closed_form(a, b, p, q) if b < 1.0 else None
        if closed is not None:
            assert is_feasible_closed_form(prob, p, q) is closed, (a, b, p, q)
        bell = exact.can_concentrate(a, p)
        if bell is not None:
            assert can_concentrate_bell(a, p) is bell, (a, p)
        if k % 2:  # half the draws, the boundary ones among them, for time
            x, y = product_spectra(prob, p, q)
            tag = exact.comparability(x.values, y.values)
            if tag is not None:
                assert compare(x, y).value == tag, (a, b, p, q)
    assert decided > 2700


@pytest.mark.parametrize("eps", (1e-9, 1e-6))
def test_majorization_follows_the_exact_rule_within_eps(eps):
    # 2*eps and 4*eps across ap = bq, (1-b)(1-q) = (1-a)(1-p) or p = b move
    # the first, third or second prefix gap by between eps and 4*eps, where
    # a comparison widened to 3*eps gives the other answer
    rng = random.Random(f"exact-majorization:{eps}")
    tol = Tolerance(eps)
    seen = set()
    for _ in range(400):
        a = rng.uniform(0.5, 0.9)
        b = rng.uniform(a + 0.02, 0.99)
        line, off = rng.choice((1, 2, 3)), rng.choice((-4, -2, 2, 4)) * eps
        p, q = scalar_equivalence.boundary_point(rng, line, a, b, off)
        prob = RecoveryProblem(a, b, tol)
        x, y = product_spectra(prob, p, q)
        _, _, gaps = exact.prefix_gaps(
            exact.products(Fraction(a), Fraction(p)), exact.products(Fraction(b), Fraction(q)))
        fwd = exact.all_of(exact.holds(g, eps, False) for g in gaps)
        rev = exact.all_of(exact.holds(-g, eps, False) for g in gaps)
        assert None not in (fwd, rev), (a, b, p, q)
        assert is_majorized_by(x, y, tol) is fwd, (a, b, p, q)
        assert is_majorized_by(y, x, tol) is rev, (a, b, p, q)
        if not fwd:  # then rev alone splits increasing from incomparable
            want = RegionClass.ENTANGLEMENT_INCREASING if rev else RegionClass.INCOMPARABLE
            assert classify_point(prob, p, q) is want, (a, b, p, q)
        seen.add((fwd, rev))
    assert seen == {(True, False), (False, True), (False, False)}
