"""The scalar deciders against a spec written with the public Tolerance methods.

make_spectrum, is_majorized_by, compare, classify_point,
is_feasible_closed_form, can_concentrate_bell and the range gates of
RecoveryProblem, product_spectra and the other scalar entry points write the
Tolerance comparisons inline on eps.  The spec below spells each decision with
the methods instead (leq on prefix sums added left to right, close, lt) and
must give the same answer on seeded draws: unequal lengths, permutations,
y = (1-t)x + t e1, and points within a few eps of each boundary line of the
recovery region, of ap = 1/2 and of the ends of the range.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from entrecovery import (
    Comparability,
    OutOfRangeError,
    RecoveryProblem,
    RegionClass,
    SchmidtSpectrum,
    Tolerance,
    can_concentrate_bell,
    classify_point,
    compare,
    entropy,
    is_feasible_closed_form,
    is_majorized_by,
    make_spectrum,
    product_spectra,
    transform_verdict,
)
from entrecovery.recovery import _ladder, _sorted_products
from conftest import (
    doubly_stochastic_mix,
    random_simplex,
    sample_problem,
    scalar_equivalence,
)

EPSILONS = (1e-15, 1e-12, 9e-4)


def spec_majorized(xv, yv, tol):
    n = max(len(xv), len(yv))
    xv = tuple(xv) + (0.0,) * (n - len(xv))
    yv = tuple(yv) + (0.0,) * (n - len(yv))
    sx = sy = 0.0
    for k in range(n - 1):
        sx += xv[k]
        sy += yv[k]
        if not tol.leq(sx, sy):
            return False
    return True


def spec_compare(xv, yv, tol):
    n = max(len(xv), len(yv))
    padded = zip(tuple(xv) + (0.0,) * (n - len(xv)), tuple(yv) + (0.0,) * (n - len(yv)))
    if all(tol.close(u, v) for u, v in padded):
        return Comparability.EQUAL
    fwd, rev = spec_majorized(xv, yv, tol), spec_majorized(yv, xv, tol)
    if fwd and rev:
        return Comparability.EQUAL
    if fwd:
        return Comparability.LEFT_MAJORIZED
    if rev:
        return Comparability.RIGHT_MAJORIZED
    return Comparability.INCOMPARABLE


def spec_products(c, v):
    return sorted((c * v, c * (1.0 - v), (1.0 - c) * v, (1.0 - c) * (1.0 - v)),
                  reverse=True)


def spec_clamp(v):
    # a value the range gate accepts, as the arithmetic sees it
    return min(1.0, max(0.5, v))


def spec_classify(prob, p, q):
    t = prob.tol
    p, q = spec_clamp(p), spec_clamp(q)
    x, y = spec_products(prob.a, p), spec_products(prob.b, q)
    return _ladder(
        swap=t.close(p, prob.b) and t.close(q, prob.a),
        gain=t.lt(q, p) and t.lt(entropy((p, 1.0 - p)), entropy((q, 1.0 - q))),
        below_a=t.lt(q, prob.a),
        equal=all(t.close(u, v) for u, v in zip(x, y)),
        rev=spec_majorized(y, x, t),
        fwd=spec_majorized(x, y, t),
    )


def spectrum_pairs(rng, tol, count):
    eps = tol.eps
    for _ in range(count):
        x = random_simplex(rng, rng.randint(1, 16))
        shape = rng.randrange(8)
        if shape == 0:  # independent, mostly of another length
            y = random_simplex(rng, rng.randint(1, 16))
        elif shape == 1:  # y = (1-t) x + t e1, t up to a few eps or large
            t = rng.choice((rng.randint(0, 3) * eps, rng.uniform(0.0, 0.5)))
            raw = [(1.0 - t) * v for v in x.values]
            raw[0] += t
            y = make_spectrum(raw, tol)
        elif shape == 2:  # a permutation
            raw = list(x.values)
            rng.shuffle(raw)
            y = make_spectrum(raw, tol)
        elif shape == 3:  # entries moved by k eps, total kept
            raw = list(x.values)
            i, j = rng.randrange(len(raw)), rng.randrange(len(raw))
            d = rng.randint(-3, 3) * eps
            raw[i] += d
            raw[j] -= d
            y = make_spectrum(raw, tol)
        elif shape == 4:  # only the smallest entry leaves the eps band
            c = rng.choice((0.5, 0.9))
            raw = list(x.values)
            m = min(2, len(raw) - 1)
            for k in range(m):
                raw[k] += c * eps
            raw[-1] -= m * c * eps
            y = make_spectrum(raw, tol)
        elif shape == 5:  # totals at the two ends of the eps band
            raw, total = list(x.values), sum(x.values)
            last = raw.pop()
            x = make_spectrum(raw + [last + (1.0 + 0.7 * eps - total)], tol)
            y = make_spectrum(raw + [last + (1.0 - 0.7 * eps - total)], tol)
        elif shape == 6:  # every entry within eps, prefix sums walk both ways
            steps = [rng.choice((-0.45, 0.45)) * eps for _ in x.values]
            mean = sum(steps) / len(steps)
            y = make_spectrum([v + d - mean for v, d in zip(x.values, steps)], tol)
        else:  # doubly stochastic image: majorized by x
            y = doubly_stochastic_mix(rng, x)
        yield (x, y) if rng.random() < 0.5 else (y, x)


@pytest.mark.parametrize("eps", EPSILONS)
def test_compare_and_majorization_match_the_spec(eps):
    tol = Tolerance(eps)
    seen = set()
    for x, y in spectrum_pairs(random.Random(f"compare:{eps}"), tol, 800):
        assert is_majorized_by(x, y, tol) is spec_majorized(x.values, y.values, tol)
        assert is_majorized_by(y, x, tol) is spec_majorized(y.values, x.values, tol)
        want = spec_compare(x.values, y.values, tol)
        assert compare(x, y, tol) is want, (x, y)
        assert transform_verdict(x, y, tol).comparability is want
        seen.add(want)
    assert seen == set(Comparability)


# eps = 2**-12 and dyadic entries: every sum and difference below is exact,
# so each comparison lands exactly on eps, where leq and close still hold
E = 2.0 ** -12
QUARTERS = (0.25 + E, 0.25 + E, 0.25 - E, 0.25 - E)


@pytest.mark.parametrize(
    "x,y,fwd,want",
    [
        ((0.5 + E, 0.5 - E), (0.5, 0.5), True, Comparability.EQUAL),
        ((0.5 + 2 * E, 0.5 - 2 * E), (0.5, 0.5), False, Comparability.RIGHT_MAJORIZED),
        (QUARTERS, (0.25,) * 4, False, Comparability.EQUAL),
        ((0.25,) * 4, QUARTERS, True, Comparability.EQUAL),
        (QUARTERS[:3] + (0.25 - 2 * E,), (0.25,) * 4, False,
         Comparability.RIGHT_MAJORIZED),
    ],
)
def test_compare_on_exact_eps_edges(x, y, fwd, want):
    tol = Tolerance(E)
    sx, sy = make_spectrum(x, tol), make_spectrum(y, tol)
    assert is_majorized_by(sx, sy, tol) is fwd is spec_majorized(x, y, tol)
    assert compare(sx, sy, tol) is want is spec_compare(x, y, tol)


@pytest.mark.parametrize(
    "p,q,want",
    [
        (0.75, 0.625 + E, RegionClass.COMPLETE_RECOVERY),  # close(q, a) on eps
        (0.75, 0.625 - E, RegionClass.COMPLETE_RECOVERY),
        (0.75 + E, 0.625, RegionClass.COMPLETE_RECOVERY),  # and fwd's leq on eps
        (0.75, 0.625 + 2 * E, RegionClass.TRIVIAL_RECOVERY),
        (0.6875, 0.625 - E, RegionClass.TRIVIAL_RECOVERY),  # lt(q, a) misses by 0
        (0.6875, 0.625 - 2 * E, RegionClass.TRUE_RECOVERY),
    ],
)
def test_classify_point_on_exact_eps_edges(p, q, want):
    prob = RecoveryProblem(0.625, 0.75, Tolerance(E))
    assert classify_point(prob, p, q) is want is spec_classify(prob, p, q)


on_boundary_line = scalar_equivalence.boundary_point
range_end = scalar_equivalence.range_end


@pytest.mark.parametrize("eps", EPSILONS)
def test_classify_point_matches_the_spec_near_every_boundary_line(eps):
    rng = random.Random(f"classify:{eps}")
    tol = Tolerance(eps)
    seen = set()
    for _ in range(25):
        base = sample_problem(rng)
        prob = RecoveryProblem(base.a, base.b, tol)
        points = [(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)) for _ in range(10)]
        for k in range(-3, 4):
            off = k * eps
            points += [on_boundary_line(rng, line, prob.a, prob.b, off) for line in range(6)]
            points.append((min(1.0, prob.b + off), prob.a - off))  # the swap point
        for p, q in points:
            want = spec_classify(prob, p, q)
            assert classify_point(prob, p, q) is want, (prob, p, q)
            seen.add(want)
    assert seen == set(RegionClass)


@pytest.mark.parametrize("eps", EPSILONS)
def test_unit_range_gate_edges(eps):
    # classify_point accepts exactly what the range gate accepts, [1/2 - eps,
    # 1 + eps] with NaN excluded, and decides a value within eps outside
    # [1/2, 1] as the end it is clamped onto
    prob = RecoveryProblem(0.7, 0.8, Tolerance(eps))
    inside = (0.5 - eps, 1.0 + eps)
    outside = (math.nextafter(0.5 - eps, 0.0), math.nextafter(1.0 + eps, 2.0), math.nan)
    for v in inside:
        assert classify_point(prob, v, 0.75) is classify_point(prob, spec_clamp(v), 0.75)
        assert classify_point(prob, 0.75, v) is classify_point(prob, 0.75, spec_clamp(v))
    for v in outside:
        with pytest.raises(OutOfRangeError):
            classify_point(prob, v, 0.75)
        with pytest.raises(OutOfRangeError):
            classify_point(prob, 0.75, v)


def bits(values):
    # -0.0 and 0.0 compare equal; copysign tells them apart
    return [(type(v), v, math.copysign(1.0, v)) for v in values]


@pytest.mark.parametrize("eps", (1e-15, 9e-4))
@pytest.mark.parametrize(
    "raw,want",
    [
        (lambda eps: [-0.0, 1.0], (1.0, 0.0)),
        (lambda eps: [0.5, 0.0, 0.5], (0.5, 0.5, 0.0)),
        (lambda eps: [1.0 + eps / 2], (1.0,)),
        (lambda eps: [1.0, -eps / 2], (1.0, 0.0)),
        (lambda eps: [1.0 + eps / 2, -eps / 2, -0.0], (1.0, 0.0, 0.0)),
        (lambda eps: [0.5 - eps / 2, 0.5], lambda eps: (0.5, 0.5 - eps / 2)),
        (lambda eps: [5e-324, 1.0], (1.0, 5e-324)),
        (lambda eps: [np.float64(0.25), np.float64(0.75)], (0.75, 0.25)),
        (lambda eps: [np.float64(-0.0), 1], (1.0, 0.0)),
        (lambda eps: [0, 1], (1.0, 0.0)),
        (lambda eps: [1], (1.0,)),
        (lambda eps: [Fraction(1, 3), Fraction(2, 3)], (2 / 3, 1 / 3)),
        (lambda eps: (w for w in (0.25, 0.5, 0.25)), (0.5, 0.25, 0.25)),
    ],
    ids=["-0.0", "0.0", "1+eps/2", "-eps/2", "both-ends", "inside", "subnormal",
         "np.float64", "np.float64(-0.0)", "int", "int-one", "Fraction", "generator"],
)
def test_make_spectrum_canonical_values_on_edge_weights(raw, want, eps):
    if callable(want):
        want = want(eps)
    assert bits(make_spectrum(raw(eps), Tolerance(eps)).values) == bits(want)


def spec_unit(v, tol):
    # the range gate of every p, q and a: [1/2, 1] within eps
    return tol.geq(v, 0.5) and tol.leq(v, 1.0)


def spec_problem(a, b, tol):
    # (a, b) as RecoveryProblem stores them: clamped, then ordered beyond eps
    if not (spec_unit(a, tol) and spec_unit(b, tol)):
        return OutOfRangeError
    a, b = spec_clamp(a), spec_clamp(b)
    return (a, b) if tol.lt(a, b) else OutOfRangeError


def spec_closed_form(prob, p, q):
    # the answer, or OutOfRangeError where a gate raises it
    t, a, b = prob.tol, prob.a, prob.b
    if not (t.lt(b, 1.0) and spec_unit(p, t) and spec_unit(q, t)):
        return OutOfRangeError
    p, q = spec_clamp(p), spec_clamp(q)
    return (t.lt(q, p) and t.leq(a * p, b * q)
            and t.leq((1.0 - b) * (1.0 - q), (1.0 - a) * (1.0 - p))
            and t.leq(p, b) and t.lt(q, b))


def spec_bell(a, p, tol):
    if not (spec_unit(a, tol) and spec_unit(p, tol)):
        return OutOfRangeError
    return tol.lt(spec_clamp(a) * spec_clamp(p), 0.5)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfRangeError:
        return OutOfRangeError


@pytest.mark.parametrize("eps", EPSILONS)
def test_recovery_problem_gate_matches_the_spec(eps):
    # a and b at k eps from the ends of the range, and b - a at k eps / 2
    # from eps
    rng = random.Random(f"problem:{eps}")
    tol = Tolerance(eps)
    pairs = [(math.nan, 0.8), (0.7, math.nan)]
    for k in range(-3, 4):
        pairs += [(0.5 - eps + k * eps, rng.uniform(0.6, 1.0)),
                  (rng.uniform(0.5, 0.9), 1.0 + eps + k * eps),
                  (range_end(rng, eps), range_end(rng, eps))]
        a = rng.uniform(0.5, 0.99)
        pairs.append((a, a + eps + k * eps / 2))
    seen = set()
    for a, b in pairs:
        want = spec_problem(a, b, tol)
        got = outcome(RecoveryProblem, a, b, tol)
        if want is OutOfRangeError:
            assert got is OutOfRangeError, (a, b)
        else:
            assert (got.a, got.b, got.tol) == (*want, tol)
        seen.add(want is OutOfRangeError)
    assert seen == {True, False}


@pytest.mark.parametrize("eps", EPSILONS)
def test_closed_form_and_bell_match_the_spec_near_every_line(eps):
    # points at k eps from each line of the closed form, from ap = 1/2 and
    # from the ends of the range, on problems with b at k eps from 1 as well
    rng = random.Random(f"closed:{eps}")
    tol = Tolerance(eps)
    seen = set()
    for _ in range(25):
        base = sample_problem(rng)
        b = rng.choice((base.b, 1.0 + rng.choice((-3, -2, -1, 1)) * eps))
        prob = RecoveryProblem(base.a, b, tol)  # b = 1 + eps is stored as 1
        # at b = 1 line 2, (1-b)(1-q) = (1-a)(1-p), is p = 1: the range ends cover it
        lines = range(7) if prob.b < 1.0 else (0, 1, 3, 4, 5, 6)
        points = [(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)) for _ in range(5)]
        for k in range(-3, 4):
            points += [on_boundary_line(rng, line, prob.a, prob.b, k * eps) for line in lines]
            u = rng.uniform(0.5, 1.0)
            points += [(range_end(rng, eps), u), (u, range_end(rng, eps))]
        for p, q in points:
            want = spec_closed_form(prob, p, q)
            assert outcome(is_feasible_closed_form, prob, p, q) is want, (prob, p, q)
            seen.add(("closed", want))
            for a in (prob.a, range_end(rng, eps)):
                want = spec_bell(a, p, tol)
                assert outcome(can_concentrate_bell, a, p, tol) is want, (a, p, tol)
                seen.add(("bell", want))
    assert seen == {(f, w) for f in ("closed", "bell") for w in (True, False, OutOfRangeError)}


@pytest.mark.parametrize("eps", EPSILONS)
def test_compare_on_identical_values(eps):
    # identical entries return EQUAL before the loop; the spec agrees, and a
    # zero-padded or permuted twin still takes the loop or the shortcut alike
    tol = Tolerance(eps)
    rng = random.Random(f"identical:{eps}")
    pairs = [((0.5, 0.5), (0.5, 0.5)), ((1.0, -0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0,)),
             ((0.4, 0.3, 0.2, 0.1), (0.4, 0.3, 0.2, 0.1))]
    for _ in range(50):
        x = random_simplex(rng, rng.randint(1, 16))
        y = make_spectrum(rng.sample(x.values, len(x)), tol)
        pairs.append((x.values, y.values))
    for x, y in pairs:
        sx, sy = SchmidtSpectrum(x), SchmidtSpectrum(y)
        assert compare(sx, sy, tol) is spec_compare(x, y, tol) is Comparability.EQUAL
        assert transform_verdict(sx, sy, tol).comparability is Comparability.EQUAL


@pytest.mark.parametrize("eps", EPSILONS)
def test_sorted_products_bit_for_bit(eps):
    # the sort, sign of zero included, at the ends of [1/2, 1] and inside it;
    # product_spectra takes a value within eps outside it as the end
    rng = random.Random(f"products:{eps}")
    ends = [0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0]
    cs = ends + [rng.uniform(0.5, 1.0) for _ in range(30)]
    vs = ends + [0.5 + i / 64 for i in range(33)] + [rng.uniform(0.5, 1.0) for _ in range(20)]
    for c in cs:
        for v in vs:
            got = [u.hex() for u in _sorted_products(c, v)]
            assert got == [u.hex() for u in spec_products(c, v)], (c, v)
    prob = RecoveryProblem(0.7, 0.8, Tolerance(eps))
    band = [0.5 - eps, math.nextafter(0.5, 0.0), math.nextafter(1.0, 2.0), 1.0 + eps]
    band += [0.5 - rng.uniform(0.0, eps) for _ in range(10)]
    band += [1.0 + rng.uniform(0.0, eps) for _ in range(10)]
    for v in band:
        want = product_spectra(prob, spec_clamp(v), spec_clamp(v))
        assert product_spectra(prob, v, v) == want, v
