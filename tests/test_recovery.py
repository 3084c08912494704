import copy
import functools
import io
import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrecovery import (
    Comparability,
    InputDomainError,
    InvalidTypeError,
    OutOfRangeError,
    RecoveryProblem,
    RegionClass,
    RegionGrid,
    ResolutionTooLargeError,
    Tolerance,
    TwoQubitPair,
    bell_bound,
    can_concentrate_bell,
    can_transform,
    classify_point,
    compare,
    entropy,
    is_feasible_closed_form,
    is_majorized_by,
    make_spectrum,
    product_spectra,
    region_grid,
    tensor,
    two_qubit,
)
from entrecovery.cli import write_region_csv
from entrecovery.errors import require_real_in
from entrecovery.recovery import MAX_GRID_N, _grid_axis
from conftest import (
    grid_equivalence,
    reproduce_examples,
    sample_feasible_point,
    sample_outer_point,
    sample_problem,
)

BELL4 = make_spectrum([0.5, 0.5, 0.0, 0.0])


def pair_entropy(v):
    return entropy(two_qubit(v).spectrum)


# ---------------------------------------------------------------- problems


def test_problem_validation():
    RecoveryProblem(0.5, 0.6)
    RecoveryProblem(0.7, 1.0)  # product-state target is a valid problem
    with pytest.raises(OutOfRangeError):
        RecoveryProblem(0.7, 0.7)  # needs a < b strictly
    with pytest.raises(OutOfRangeError):
        RecoveryProblem(0.8, 0.7)
    with pytest.raises(OutOfRangeError):
        RecoveryProblem(0.4, 0.7)
    with pytest.raises(OutOfRangeError):
        RecoveryProblem(0.7, 1.1)


@pytest.mark.parametrize("bad", ["0.7", b"0.7", True, None, 1 + 0j])
def test_problem_rejects_non_real_parameters(bad):
    shown = re.escape(repr(bad))
    with pytest.raises(InvalidTypeError, match=f"a must be a real number, got {shown}"):
        RecoveryProblem(bad, 0.8)
    with pytest.raises(InvalidTypeError, match=f"b must be a real number, got {shown}"):
        RecoveryProblem(0.7, bad)


def test_problem_accepts_other_reals():
    # stored as float(v), so no other real type reaches the deciders or the grid
    assert RecoveryProblem(0.5, 1).b == 1
    a = RecoveryProblem(Fraction(7, 10), 0.8).a
    assert type(a) is float and a == 0.7


@pytest.mark.parametrize("bad,shown", [
    (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf"), (-10**400, "-inf"),
    (math.nan, "nan"), (0.3, "0.3"), (Fraction(3, 10), "0.3"), (1.5, "1.5"),
    (Fraction(3, 2), "1.5")])
def test_problem_names_the_value_out_of_range_whatever_its_type(bad, shown):
    for args, name in (((bad, 0.8), "a"), ((0.7, bad), "b")):
        with pytest.raises(OutOfRangeError) as exc:
            RecoveryProblem(*args)
        assert str(exc.value) == f"{name} must lie in [1/2, 1], got {shown}"


@pytest.mark.parametrize("a,b", [(0.8, 0.7), (0.7, 0.7), (Fraction(4, 5), Fraction(7, 10)),
                                 (0.8, Fraction(7, 10))])
def test_problem_order_message_only_for_values_in_range(a, b):
    with pytest.raises(OutOfRangeError) as exc:
        RecoveryProblem(a, b)
    assert str(exc.value) == f"need a < b strictly beyond eps, got a={float(a)}, b={float(b)}"


# each scalar entry point with one wrong-typed argument, and a real of another
# type that the same argument accepts
_PROB = RecoveryProblem(0.7, 0.8)
SCALAR_TYPE_CASES = [
    (lambda v: classify_point(_PROB, v, 0.55), "p", "0.6", Fraction(3, 5)),
    (lambda v: classify_point(_PROB, v, 0.55), "p", True, 1),
    (lambda v: classify_point(_PROB, 0.6, v), "q", None, Fraction(11, 20)),
    (lambda v: is_feasible_closed_form(_PROB, 0.6, v), "q", "0.55", Fraction(11, 20)),
    (lambda v: product_spectra(_PROB, v, 0.55), "p", b"0.6", 1),
    (lambda v: can_concentrate_bell(v, 0.7), "a", "0.6", Fraction(3, 5)),
    (lambda v: can_concentrate_bell(0.6, v), "p", True, 1),
    (lambda v: two_qubit(v), "coefficient", "0.7", Fraction(3, 10)),
    (lambda v: two_qubit(v), "coefficient", True, 1),
    (lambda v: RecoveryProblem(0.7, 0.8, v), "tol", 1e-3, Tolerance(1e-4)),
    (TwoQubitPair, "a", "0.7", Fraction(7, 10)),
    (TwoQubitPair, "a", None, 1),
    (TwoQubitPair, "a", True, 1),
    (TwoQubitPair, "a", b"0.7", 0.7),
]


@pytest.mark.parametrize(
    "call,name,bad,good", SCALAR_TYPE_CASES,
    ids=[f"{i}-{c[1]}-{c[2]!r}" for i, c in enumerate(SCALAR_TYPE_CASES)],
)
def test_scalar_entry_points_check_types(call, name, bad, good):
    with pytest.raises(InvalidTypeError,
                       match=f"^{name} must be a .+, got {re.escape(repr(bad))}$"):
        call(bad)
    call(good)


# Reals of other types are converted to float at the gate.  Left as they were,
# float16 p and q made the deciders compute in float16 and answer wrongly:
# exact arithmetic agrees with the float answers below
def test_float16_arguments_give_the_float_verdicts():
    prob = RecoveryProblem(0.5635931220696964, 0.5956235034546776)
    p, q = np.float16(0.5049), np.float16(0.5005)  # 0.5048828125, 0.50048828125
    assert classify_point(prob, p, q) is RegionClass.TRUE_RECOVERY
    assert classify_point(prob, float(p), float(q)) is RegionClass.TRUE_RECOVERY
    prob = RecoveryProblem(0.9235573939163237, 0.9604800484217871)
    p, q = np.float16(0.69921875), np.float16(0.671875)
    assert is_feasible_closed_form(prob, p, q) is False
    assert is_feasible_closed_form(prob, float(p), float(q)) is False
    # a*p = 0.4997..., which float16 rounds to 1/2
    assert can_concentrate_bell(0.5950068474527218, np.float16(0.83984375)) is True
    assert can_concentrate_bell(0.5950068474527218, 0.83984375) is True


@pytest.mark.parametrize(
    "make,n",
    [
        (lambda: RecoveryProblem(np.float32(0.7), np.float32(0.8)), 60),
        (lambda: RecoveryProblem(0.7, 0.8, Tolerance(np.float16(1e-4))), 40),
        (lambda: RecoveryProblem(Fraction(7, 10), 0.8), 16),
        (lambda: RecoveryProblem(0.7, 0.8, Tolerance(Fraction(1, 10_000))), 16),
    ],
    ids=["float32-problem", "float16-eps", "Fraction-a", "Fraction-eps"],
)
def test_grids_of_other_real_types_match_classify_point(make, n):
    # the float32 and float16 grids differed from classify_point on 22 of
    # 3721 and 7 of 1681 cells; region_grid on a Fraction died in numpy
    prob = make()
    assert type(prob.a) is type(prob.b) is type(prob.tol.eps) is float
    _assert_grid_matches_scalar_classifier(prob, n)


@st.composite
def other_reals(draw):
    """(v, w): a real v of another type than float, and w = float(v), or
    +-inf for an int beyond the float range."""
    kind = draw(st.sampled_from(["int", "numpy int", "Fraction", "float16", "float32",
                                 "float64", "huge int"]))
    if kind == "huge int":
        sign = draw(st.sampled_from([1, -1]))
        return sign * 10**400, sign * math.inf
    if kind in ("int", "numpy int"):
        k = draw(st.integers(-2, 3))
        v = k if kind == "int" else draw(st.sampled_from([np.int8, np.int64]))(k)
        return v, float(v)
    x = draw(st.floats(0.4, 1.1) | st.floats(0.0, 2e-3) | st.sampled_from([0.5, 1.0, 1e-3]))
    if kind == "Fraction":
        v = Fraction(x).limit_denominator(draw(st.integers(1, 10**6)))
    else:
        v = getattr(np, kind)(x)
    return v, float(v)


# each scalar entry point by its real arguments
REAL_ARGUMENT_CALLS = {
    "RecoveryProblem": lambda a, b: RecoveryProblem(a, b),
    "classify_point": lambda p, q: classify_point(_PROB, p, q),
    "is_feasible_closed_form": lambda p, q: is_feasible_closed_form(_PROB, p, q),
    "product_spectra": lambda p, q: product_spectra(_PROB, p, q),
    "can_concentrate_bell": lambda a, p: can_concentrate_bell(a, p),
    "two_qubit": lambda coefficient: two_qubit(coefficient),
    "Tolerance": lambda eps: Tolerance(eps),
}


def _outcome(call, *args):
    # the result, or the InputDomainError subclass the call raises
    try:
        return call(*args)
    except InputDomainError as exc:
        return type(exc)


# a standing net: gates convert a real of another type with float(v), so
# each call must answer as for float(v)
@pytest.mark.parametrize("name", REAL_ARGUMENT_CALLS)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reals_of_other_types_give_the_float_outcome(name, data):
    call = REAL_ARGUMENT_CALLS[name]
    args = data.draw(st.lists(st.floats(0.5, 1.0), min_size=call.__code__.co_argcount,
                              max_size=call.__code__.co_argcount))
    k = data.draw(st.integers(0, len(args) - 1))
    v, w = data.draw(other_reals())
    assert _outcome(call, *args[:k], v, *args[k + 1:]) == _outcome(call, *args[:k], w, *args[k + 1:])


class _SubProblem(RecoveryProblem):
    pass


# each function that takes a prob, called with the prob in place
PROB_CALLS = {
    "product_spectra": lambda prob: product_spectra(prob, 0.6, 0.55),
    "is_feasible_closed_form": lambda prob: is_feasible_closed_form(prob, 0.6, 0.55),
    "classify_point": lambda prob: classify_point(prob, 0.6, 0.55),
    "bell_bound": bell_bound,
    "region_grid": lambda prob: region_grid(prob, 4),
}


@pytest.mark.parametrize("bad", ["x", None, 0.7, (0.7, 0.8)], ids=repr)
@pytest.mark.parametrize("call", PROB_CALLS.values(), ids=PROB_CALLS)
def test_prob_arguments_check_type(call, bad):
    with pytest.raises(InvalidTypeError,
                       match=f"^prob must be a RecoveryProblem, got {re.escape(repr(bad))}$"):
        call(bad)
    call(RecoveryProblem(0.7, 0.8))
    call(_SubProblem(0.7, 0.8))


def test_problem_tolerance_governs_strictness():
    loose = Tolerance(1e-4)
    with pytest.raises(OutOfRangeError):
        RecoveryProblem(0.7, 0.7 + 1e-5, loose)
    RecoveryProblem(0.7, 0.7 + 1e-5)  # fine at the default eps


# ---------------------------------------------------------- product spectra


def test_product_spectra_worked_example():
    x, y = product_spectra(RecoveryProblem(0.7, 0.8), 0.6, 0.55)
    for got, want in zip(x.values + y.values,
                         (0.42, 0.28, 0.18, 0.12, 0.44, 0.36, 0.11, 0.09)):
        assert abs(got - want) < 1e-12


def test_product_spectra_concentration_example():
    x, y = product_spectra(RecoveryProblem(0.6, 0.9), 0.7, 0.5)
    for got, want in zip(x.values + y.values,
                         (0.42, 0.28, 0.18, 0.12, 0.45, 0.45, 0.05, 0.05)):
        assert abs(got - want) < 1e-12


def test_product_spectra_product_auxiliaries():
    x, y = product_spectra(RecoveryProblem(0.7, 0.8), 1.0, 1.0)
    for got, want in zip(x.values + y.values,
                         (0.7, 0.3, 0.0, 0.0, 0.8, 0.2, 0.0, 0.0)):
        assert abs(got - want) < 1e-15


def test_product_spectra_rejects_out_of_range():
    prob = RecoveryProblem(0.7, 0.8)
    with pytest.raises(OutOfRangeError):
        product_spectra(prob, 0.4, 0.6)
    with pytest.raises(OutOfRangeError):
        product_spectra(prob, 0.6, 1.2)


# ------------------------------------------------------------- closed form


def test_closed_form_examples():
    prob = RecoveryProblem(0.7, 0.8)
    assert is_feasible_closed_form(prob, 0.6, 0.55)
    assert is_feasible_closed_form(prob, 0.8, 0.7)  # the complete-recovery point
    assert not is_feasible_closed_form(prob, 0.85, 0.7)  # p > b
    assert not is_feasible_closed_form(prob, 0.6, 0.6)  # q = p: no gain
    assert not is_feasible_closed_form(prob, 0.8, 0.5)  # bq < ap


def test_closed_form_requires_b_below_one():
    with pytest.raises(OutOfRangeError):
        is_feasible_closed_form(RecoveryProblem(0.7, 1.0), 0.6, 0.55)


# ------------------------------------------------------------ classify_point


def test_classify_worked_example_true_recovery():
    assert (
        classify_point(RecoveryProblem(0.7, 0.8), 0.6, 0.55)
        is RegionClass.TRUE_RECOVERY
    )


def test_classify_complete_recovery_at_role_swap():
    assert (
        classify_point(RecoveryProblem(0.7, 0.8), 0.8, 0.7)
        is RegionClass.COMPLETE_RECOVERY
    )


def test_classify_incomparable():
    assert (
        classify_point(RecoveryProblem(0.7, 0.8), 0.9, 0.8)
        is RegionClass.INCOMPARABLE
    )


def test_classify_increasing():
    assert (
        classify_point(RecoveryProblem(0.7, 0.8), 0.9, 0.55)
        is RegionClass.ENTANGLEMENT_INCREASING
    )


def test_classify_trivial_recovery():
    assert (
        classify_point(RecoveryProblem(0.7, 0.8), 0.75, 0.72)
        is RegionClass.TRIVIAL_RECOVERY
    )


def test_classify_no_gain_is_infeasible():
    prob = RecoveryProblem(0.7, 0.8)
    assert classify_point(prob, 0.6, 0.6) is RegionClass.INFEASIBLE_OTHER
    assert classify_point(prob, 0.6, 0.9) is RegionClass.INFEASIBLE_OTHER


def test_classify_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        classify_point(RecoveryProblem(0.7, 0.8), 0.3, 0.6)


@pytest.mark.parametrize("p", [1.0000000000005, 1, Fraction(3, 5)],
                         ids=["float-within-eps", "int", "Fraction"])
def test_classify_point_gates_p_and_q_once(p, monkeypatch):
    # a p that misses the inline fast path goes through the range gate once,
    # and q with it; product_spectra then takes its fast path on the results
    gated = []

    def spy(name, v, *args):
        gated.append(name)
        return require_real_in(name, v, *args)

    monkeypatch.setattr("entrecovery.recovery.require_real_in", spy)
    prob = RecoveryProblem(0.7, 0.8)
    want = classify_point(prob, float(min(p, 1)), 0.55)
    gated.clear()
    assert classify_point(prob, p, 0.55) is want
    assert gated == ["p", "q"]


# ------------------------------------------------------------------- bell


def test_bell_bound_values():
    assert abs(bell_bound(RecoveryProblem(0.7, 0.8)) - 4.0 / 7.0) < 1e-12
    assert bell_bound(RecoveryProblem(0.6, 0.9)) == pytest.approx(0.75, abs=1e-15)
    assert bell_bound(RecoveryProblem(0.5, 1.0)) == 1.0


def test_can_concentrate_examples():
    assert can_concentrate_bell(0.6, 0.7)  # 0.42 < 1/2
    assert not can_concentrate_bell(0.7, 0.8)  # 0.56 >= 1/2
    assert can_concentrate_bell(0.5, 0.5)  # two Bell pairs


def test_can_concentrate_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        can_concentrate_bell(0.4, 0.7)
    with pytest.raises(OutOfRangeError):
        can_concentrate_bell(0.7, 1.3)


@pytest.mark.parametrize("a, p, n, oracle", [
    (1.0, 0.5, None, None),
    (0.5, 1.0, 1, RegionClass.COMPLETE_RECOVERY),
    (0.625, 0.8, 5, RegionClass.TRUE_RECOVERY),
], ids=["a1-p0.5", "a0.5-p1", "a0.625-p0.8"])
def test_concentration_boundary_kept_strict(a, p, n, oracle):
    # at a*p = 1/2 exactly, which in floats holds only at (1, 1/2) and
    # (1/2, 1), and at (0.625, 0.8), whose exact product is 1/2 + 2**-55, the
    # predicate refuses, although the joint spectrum is still (non-strictly)
    # majorized by the Bell target; classify_point and the region cell follow
    # Nielsen's rule there and answer recovery
    assert not can_concentrate_bell(a, p)
    joint = tensor(two_qubit(a).spectrum, two_qubit(p).spectrum)
    assert is_majorized_by(joint, BELL4)
    if oracle is not None:  # a < b = 1
        prob = RecoveryProblem(a, 1.0)
        assert classify_point(prob, p, 0.5) is oracle
        grid = region_grid(prob, n)
        i = round((p - 0.5) * 2 * n)
        assert grid.p_value(i) == p and grid.class_at(i, 0) is oracle


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_concentration_agrees_with_oracle(seed):
    rng = random.Random(seed)
    a = rng.uniform(0.5, 1.0)
    p = rng.uniform(0.5, 1.0)
    if can_concentrate_bell(a, p):
        joint = tensor(two_qubit(a).spectrum, two_qubit(p).spectrum)
        assert is_majorized_by(joint, BELL4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_bell_line_feasibility_matches_bound(seed):
    # on the q = 1/2 line the only active constraints are q < p and
    # a*p <= b*q: the second lower boundary line is provably below the first
    # there, so feasibility collapses to 1/2 < p <= b/(2a)
    rng = random.Random(seed)
    prob = sample_problem(rng)
    bound = bell_bound(prob)
    p = rng.uniform(0.5, 1.0)
    if abs(p - bound) < 1e-6 or abs(p - 0.5) < 1e-6 or abs(p - prob.b) < 1e-6:
        return
    want = 0.5 < p <= min(bound, prob.b)
    assert is_feasible_closed_form(prob, p, 0.5) == want


# ------------------------------------------------------------- region grid


def test_region_grid_corners_n1():
    g = region_grid(RecoveryProblem(0.7, 0.8), 1)
    assert g.class_at(0, 0) is RegionClass.INFEASIBLE_OTHER  # q = p = 1/2
    assert g.class_at(0, 1) is RegionClass.INFEASIBLE_OTHER  # q > p
    assert g.class_at(1, 1) is RegionClass.INFEASIBLE_OTHER  # q = p = 1
    assert g.class_at(1, 0) is RegionClass.ENTANGLEMENT_INCREASING  # p=1 > b
    counts = g.counts()
    assert counts[RegionClass.INFEASIBLE_OTHER] == 3
    assert counts[RegionClass.ENTANGLEMENT_INCREASING] == 1


def test_region_grid_axis_values():
    g = region_grid(RecoveryProblem(0.7, 0.8), 4)
    assert [g.p_value(i) for i in range(5)] == [0.5, 0.625, 0.75, 0.875, 1.0]
    assert g.q_value(3) == 0.875
    # a numpy integer is an index too, and gives a plain float
    assert type(g.p_value(np.int64(1))) is float and g.q_value(np.int32(3)) == 0.875


def test_region_grid_resolution_limits():
    prob = RecoveryProblem(0.7, 0.8)
    with pytest.raises(OutOfRangeError):
        region_grid(prob, 0)
    with pytest.raises(ResolutionTooLargeError):
        region_grid(prob, 10_001)


# numpy arrays other than a 0-d integer one, and numpy's bool, are no
# integer either: operator.index raises numpy's TypeError for them
NUMPY_NON_INTEGERS = [
    pytest.param(v, id=repr(v))
    for v in (np.array([3]), np.array(3.0), np.array([1, 2]), np.array(True), np.True_)
]


@pytest.mark.parametrize("bad", [2.5, 1.0, "3", True, None, *NUMPY_NON_INTEGERS])
def test_region_grid_rejects_non_integer_resolution(bad):
    with pytest.raises(InvalidTypeError, match=f"got {re.escape(repr(bad))}$"):
        region_grid(RecoveryProblem(0.7, 0.8), bad)


def test_region_grid_indices_are_checked():
    g = region_grid(RecoveryProblem(0.7, 0.8), 4)
    assert g.p_value(0) == 0.5 and g.q_value(4) == 1.0
    assert g.class_at(4, 4) is RegionClass.INFEASIBLE_OTHER
    for k in (-1, 5):
        with pytest.raises(IndexError):
            g.p_value(k)
        with pytest.raises(IndexError):
            g.q_value(k)
        with pytest.raises(IndexError):
            g.class_at(k, k)
        with pytest.raises(IndexError):
            g.class_at(0, k)
        with pytest.raises(IndexError):
            g.class_at(k, 0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "1", None, *NUMPY_NON_INTEGERS])
@pytest.mark.parametrize(
    "access",
    [lambda g, k: g.p_value(k), lambda g, k: g.q_value(k),
     lambda g, k: g.class_at(k, 1), lambda g, k: g.class_at(1, k),
     lambda g, k: RegionGrid(0.7, 0.8, k, g.codes)],
    ids=["p_value", "q_value", "class_at-i", "class_at-j", "RegionGrid-n"],
)
def test_region_grid_indices_take_the_resolution_type_check(access, bad):
    # the same integer check as n: a bool or float is no index, not even 2.0
    g = region_grid(RecoveryProblem(0.7, 0.8), 4)
    with pytest.raises(InvalidTypeError, match=f"got {re.escape(repr(bad))}$"):
        access(g, bad)


def _problem(a, b, eps):
    return RecoveryProblem(a, b, Tolerance(eps))


def _assert_grid_matches_scalar_classifier(prob, n):
    g = region_grid(prob, n)
    tally = dict.fromkeys(RegionClass, 0)
    for i in range(n + 1):
        p = 0.5 + i / (2 * n)
        for j in range(n + 1):
            q = 0.5 + j / (2 * n)
            want = classify_point(prob, p, q)
            assert g.class_at(i, j) is want, (prob, n, i, j)
            tally[want] += 1
    assert g.counts() == tally, (prob, n)
    return g


def test_region_grid_matches_scalar_classifier():
    rng = random.Random(11)
    for _ in range(4):
        a = rng.uniform(0.5, 0.97)
        b = rng.uniform(a + 0.002, 1.0)
        _assert_grid_matches_scalar_classifier(
            RecoveryProblem(a, b), rng.choice([3, 8, 17])
        )


@pytest.mark.parametrize(
    "a,b,eps,n,cells",
    [
        # (p, q) = (73/128, 70/128) is within the eps-neighbourhood of the
        # swap point (b, a), which grows like eps / (b - a), but p is more
        # than eps from b, so the cell is not complete
        (0.5468070833253649, 0.5702095532424909, 1e-4, 64, [(9, 6)]),
        # b - a < 2 eps: the diagonal cells q = p with p * (b - a) <= eps
        (0.5001900054601631, 0.5004599173882922, 2e-4, 8, [(1, 1), (2, 2)]),
    ],
    ids=["near-swap-point", "diagonal"],
)
def test_region_grid_equal_spectra_are_not_increasing(a, b, eps, n, cells):
    # reverse majorization holds in these cells, but the spectra are equal
    # within eps, so only the equal-spectra test keeps them out of
    # `increasing`
    g = _assert_grid_matches_scalar_classifier(RecoveryProblem(a, b, Tolerance(eps)), n)
    for i, j in cells:
        assert g.class_at(i, j) is RegionClass.INFEASIBLE_OTHER, (i, j)


def test_region_grid_matches_scalar_classifier_at_wide_eps():
    # b - a of a few eps with a near 1/2 puts equal spectra on grid cells
    # near the diagonal, where the kernel's column window decides them
    rng = random.Random(23)
    for _ in range(16):
        _assert_grid_matches_scalar_classifier(
            _problem(*grid_equivalence.wide_eps_equal(rng)), rng.randint(1, 64)
        )


@pytest.mark.parametrize("n", [1, 2, 10, 1000, MAX_GRID_N])
def test_grid_pair_entropies_fall_by_far_more_than_rounding(n):
    # region_grid cuts the gain with one searchsorted on hv - eps, which is
    # exact only while hv falls strictly between neighbours; the smallest
    # fall, next to p = 1/2, is about 1/(2 ln 2 n^2) (7.2e-9 at MAX_GRID_N)
    _, _, hv = _grid_axis(n)  # the pair entropies region_grid reads
    assert -np.diff(hv).min() >= 0.999 / (2 * math.log(2) * n * n)
    for eps in (1e-15, 1e-12, 9.99e-4):
        assert (np.diff(hv - eps) < 0).all()


def test_grid_axis_is_read_only_and_shared_at_one_resolution():
    axis = _grid_axis(37)
    assert _grid_axis(37) is axis
    for arr in (axis, *axis):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    pv, qv, _ = axis
    assert pv.tolist() == [0.5 + i / 74 for i in range(38)]
    assert qv.tolist() == [1.0 - v for v in pv.tolist()]


def test_region_grid_refines_onto_its_half_resolution():
    # the grid at 2n holds the grid at n on its even rows and columns: the
    # axes agree bit for bit, as 0.5 + i/(2n) and 0.5 + 2i/(4n) round the same
    # rational, and each cell's class depends on its (p, q) alone
    rng = random.Random("refine")
    for k in range(120):
        eps = (1e-12, 1e-9, 1e-6)[k % 3]
        a = 0.5 if k % 10 == 0 else rng.uniform(0.5, 0.97)
        b = 1.0 if k % 10 == 1 else rng.uniform(a + 2 * eps, 1.0)
        prob, n = RecoveryProblem(a, b, Tolerance(eps)), rng.randint(1, 400)
        fine, coarse = region_grid(prob, 2 * n), region_grid(prob, n)
        assert (_grid_axis(2 * n)[:, ::2] == _grid_axis(n)).all(), n
        assert (fine.codes[::2, ::2] == coarse.codes).all(), (a, b, eps, n)


def test_region_grids_at_one_resolution_keep_their_own_codes():
    prob = RecoveryProblem(0.7, 0.8)
    g, h = region_grid(prob, 20), region_grid(prob, 20)
    assert not np.shares_memory(g.codes, h.codes)
    assert not np.shares_memory(g.codes, _grid_axis(20))
    want = h.codes.copy()
    g.codes[:] = 0
    assert (h.codes == want).all()
    assert (region_grid(prob, 20).codes == want).all()


def _recount(grid):
    # the census of codes as they are, one class at a time
    codes = grid.codes
    return {cls: int(np.count_nonzero(codes == k)) for k, cls in enumerate(RegionClass)}


def test_counts_tally_equals_a_recount_on_family_grids():
    # counts() first, while the grid holds the kernel's census, then a
    # recount, each grid at its own n; the wide-eps-equal, swap-block and
    # ulp-gap grids have patched rows, and the open brackets at n = 1500 and
    # above patch rows on both sides of a chunk seam
    for family, a, b, eps, n in grid_equivalence.families(0):
        g = region_grid(_problem(a, b, eps), n)
        assert g.counts() == _recount(g), (family, a, b, eps, n)


def test_counts_tally_equals_a_recount_at_benchmark_resolutions():
    for family, a, b, eps, n in grid_equivalence.families(0):
        if family == "four-decimal" and n <= 400:
            g = region_grid(_problem(a, b, eps), n)
            assert g.counts() == _recount(g), (a, b, n)


def _matched_codes(grid):
    match grid:
        case RegionGrid(_, _, _, codes):
            return codes


# each way codes leaves a grid: the array itself, or a text or bytes of it
CODES_LEAKS = {
    "attribute": lambda g: g.codes,
    "repr": repr,
    "copy.copy": lambda g: copy.copy(g).codes,
    "pickle.dumps": pickle.dumps,
    "match": _matched_codes,
}


@pytest.mark.parametrize("leak", CODES_LEAKS.values(), ids=CODES_LEAKS)
def test_counts_follow_a_write_to_codes(leak):
    # codes is writable once it has left the grid, so counts() counts the codes
    # as they are, not the kernel's runs; a code no class has is class_at's
    # typed error.  The writes go through the private slot that every way reads
    g = region_grid(RecoveryProblem(0.7, 0.8), 20)
    before = g.counts()
    assert g.class_at(12, 8) is RegionClass.COMPLETE_RECOVERY
    shown = leak(g)
    if isinstance(shown, np.ndarray):
        assert shown is g._codes
    g._codes[12, 8] = list(RegionClass).index(RegionClass.INFEASIBLE_OTHER)
    after = g.counts()
    assert after[RegionClass.COMPLETE_RECOVERY] == before[RegionClass.COMPLETE_RECOVERY] - 1
    assert after[RegionClass.INFEASIBLE_OTHER] == before[RegionClass.INFEASIBLE_OTHER] + 1
    g._codes[0, 0] = len(RegionClass)
    with pytest.raises(OutOfRangeError, match=r"cell \(0, 0\) holds code 6"):
        g.counts()


def test_a_constructed_grid_counts_a_write_to_the_codes_it_was_given():
    codes = region_grid(RecoveryProblem(0.7, 0.8), 20).codes.copy()
    g = RegionGrid(0.7, 0.8, 20, codes)
    before = g.counts()
    codes[12, 8] = list(RegionClass).index(RegionClass.INFEASIBLE_OTHER)
    after = g.counts()
    assert after[RegionClass.COMPLETE_RECOVERY] == before[RegionClass.COMPLETE_RECOVERY] - 1
    assert after == _recount(g)


# RegionGrid(0.7, 0.8, n, codes of shape (n + 1, n + 1)) with an n that is no
# grid resolution raises region_grid's error for it, before any p_value can
# divide by it
@pytest.mark.parametrize(
    "n,side,error,message",
    [(0, 1, OutOfRangeError, "grid resolution must be >= 1, got 0"),
     (-1, 0, OutOfRangeError, "grid resolution must be >= 1, got -1"),
     (None, 1, InvalidTypeError, "grid resolution must be an integer, got None"),
     (True, 2, InvalidTypeError, "grid resolution must be an integer, got True"),
     (1.0, 2, InvalidTypeError, "grid resolution must be an integer, got 1.0")],
    ids=["zero", "negative", "None", "bool", "float"],
)
def test_region_grid_checks_its_resolution_as_region_grid_does(n, side, error, message):
    codes = np.zeros((side, side), np.uint8)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        RegionGrid(0.7, 0.8, n, codes)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        region_grid(RecoveryProblem(0.7, 0.8), n)


def test_region_grid_stores_its_resolution_as_a_plain_int():
    # a numpy integer, a 0-d integer array included, is an integer
    for two in (np.int64(2), np.array(2)):
        g = RegionGrid(0.7, 0.8, two, np.zeros((3, 3), np.uint8))
        assert type(g.n) is int and g.n == 2
        assert type(g.p_value(1)) is float and g.p_value(1) == 0.75
        assert g.q_value(two) == 1.0 and g.class_at(two, two) is RegionClass.COMPLETE_RECOVERY
        assert region_grid(RecoveryProblem(0.7, 0.8), two).n == 2


def test_a_code_no_class_has_is_a_typed_error_and_writes_nothing():
    g = region_grid(RecoveryProblem(0.7, 0.8), 20)
    g.codes[5, 3] = len(RegionClass)
    g.codes[9, 0] = 255
    with pytest.raises(OutOfRangeError, match=r"cell \(5, 3\) holds code 6"):
        g.class_at(5, 3)
    with pytest.raises(OutOfRangeError, match=r"cell \(9, 0\) holds code 255"):
        g.class_at(9, 0)
    buf = io.StringIO()
    with pytest.raises(OutOfRangeError, match=r"cell \(5, 3\) holds code 6"):
        write_region_csv(g, buf)
    assert buf.getvalue() == ""


def test_a_negative_code_in_a_caller_grid_is_a_typed_error_and_writes_nothing():
    g = RegionGrid(0.7, 0.8, 1, np.array([[0, -1], [1, 2]], dtype=np.int8))
    with pytest.raises(OutOfRangeError, match=r"cell \(0, 1\) holds code -1"):
        g.class_at(0, 1)
    buf = io.StringIO()
    with pytest.raises(OutOfRangeError, match=r"cell \(0, 1\) holds code -1"):
        write_region_csv(g, buf)
    assert buf.getvalue() == ""
    with pytest.raises(OutOfRangeError, match=r"cell \(0, 1\) holds code -1"):
        g.counts()
    assert g.class_at(1, 1) is RegionClass.TRIVIAL_RECOVERY


# RegionGrid(0.7, 0.8, 5, codes) with codes that do not describe its 6 x 6
# cells, and the call that once failed on them: counts() of 4 cells, numpy's
# IndexError from class_at, AttributeError from counts() on a list, and
# TypeError from class_at on floats
@pytest.mark.parametrize(
    "codes,use,shown",
    [(np.zeros((2, 2), np.uint8), lambda g: g.counts(), "uint8 array of shape (2, 2)"),
     (np.zeros((2, 2), np.uint8), lambda g: g.class_at(4, 4), "uint8 array of shape (2, 2)"),
     ([[0] * 6] * 6, lambda g: g.counts(), "list"),
     (np.zeros((6, 6)), lambda g: g.class_at(0, 0), "float64 array of shape (6, 6)")],
    ids=["shape-counts", "shape-class_at", "list", "float"],
)
def test_region_grid_rejects_codes_that_are_not_its_cells(codes, use, shown):
    with pytest.raises(InvalidTypeError, match=re.escape(
            f"codes must be an integer ndarray of shape (6, 6), got {shown}")):
        use(RegionGrid(0.7, 0.8, 5, codes))


@pytest.mark.parametrize("low_a,high_b", [(True, False), (False, True), (True, True)],
                         ids=["a-below-half", "b-above-one", "both"])
def test_region_grid_edge_of_range_matches_scalar_classifier(low_a, high_b):
    # RecoveryProblem clamps a in [1/2 - eps, 1/2) onto 1/2 and stores b in
    # [1 - eps, 1 + eps] as 1, where the grid meets the ties of the next test
    rng = random.Random(67)
    for _ in range(8):
        _assert_grid_matches_scalar_classifier(
            _problem(*grid_equivalence.edge_of_range(rng, low_a, high_b)), rng.randint(1, 40)
        )


@pytest.mark.parametrize("n", [1, 2, 16, 40])
@pytest.mark.parametrize("a,b", [(0.5, 0.8), (0.7, 1.0), (0.5, 1.0)],
                         ids=["a-half", "b-one", "both"])
def test_region_grid_product_ties_match_scalar_classifier(a, b, n):
    # region_grid ranks the middle two products with one max/min pair, which
    # must order exact ties as sorted() does: at a = 1/2, a*p equals (1-a)*p
    # on every row; at b = 1, (1-b)*q and (1-b)*(1-q) are both +0.0; and at
    # p = 1 or q = 1 more products are zero
    _assert_grid_matches_scalar_classifier(RecoveryProblem(a, b), n)


def test_region_grid_gain_cut_edges_at_wide_eps():
    # the gain is q < p - eps with H(p) < H(q) - eps.  The entropy term first
    # leaves a gain on row i0, where 1 - H(p) passes eps; the cap q < p - eps
    # bites on rows with 2/3 < p <= b once the grid step 1/(2n) is below eps.
    # With eps in [2e-4, 1e-3) and n from 64 to 1500 the step falls on both
    # sides of eps; the four rows from i0 - 1 and the four up to p = b are
    # checked cell by cell (the bottom rows hold no gain at these eps)
    rng = random.Random(47)
    for _ in range(16):
        eps = rng.uniform(2e-4, 1e-3)
        a = rng.uniform(0.5, 0.9)
        b = rng.uniform(a + 2 * eps, 1.0)
        prob, n = RecoveryProblem(a, b, Tolerance(eps)), rng.randint(64, 1500)
        g = region_grid(prob, n)
        i0 = int(2 * n * math.sqrt(eps * math.log(2) / 2))
        ib = max(3, int((b - 0.5) * 2 * n))
        for i in [*range(i0 - 1, i0 + 3), *range(ib - 3, ib + 1)]:
            p = g.p_value(i)
            for j in range(n + 1):
                assert g.class_at(i, j) is classify_point(prob, p, g.q_value(j)), (n, i, j)


def test_region_class_order_is_code_order():
    # grid codes and CSV counts follow the enum definition order
    assert [c.value for c in RegionClass] == [
        "complete", "true", "trivial", "incomparable", "increasing", "infeasible",
    ]


def test_region_grid_chunk_seam_matches_scalar_classifier():
    # n = 1500 gives 1501 points per axis, which the kernel classifies in
    # chunks of 2_000_000 // 1501 = 1332 rows: rows 1331 | 1332, 1333 straddle
    # the first seam.  b = p_1332 and a = q_600 put the complete-recovery
    # point on the first row of the second chunk.
    n = 1500
    prob = RecoveryProblem(0.7, 0.944)
    g = region_grid(prob, n)
    assert g.class_at(1332, 600) is RegionClass.COMPLETE_RECOVERY
    for i in (1331, 1332, 1333):
        p = g.p_value(i)
        for j in range(n + 1):
            assert g.class_at(i, j) is classify_point(prob, p, g.q_value(j)), (i, j)


# b - a is one eps and a few ulps, so a + eps lies within rounding of b: the
# second prefix sum of the target, flat at b for q <= b, jitters by ulps
# around the threshold of reverse majorization, and the kernel's bracket of
# that threshold stays open on every row with p < a, whose bracket columns
# then take the cell-by-cell float comparison
OPEN_BRACKETS = _problem(*grid_equivalence.OPEN_BRACKETS)


def test_region_grid_open_brackets_match_scalar_classifier():
    _assert_grid_matches_scalar_classifier(OPEN_BRACKETS, 200)


def test_region_grid_open_rows_across_chunk_seam_match_scalar_classifier():
    # at n = 1500 the chunks hold 1332 rows, and rows 0..1332 (p < a) are
    # open: rows 1330, 1331 | 1332 straddle the seam, and 1333 is closed
    n = 1500
    g = region_grid(OPEN_BRACKETS, n)
    for i in (1330, 1331, 1332, 1333):
        p = g.p_value(i)
        for j in range(n + 1):
            assert g.class_at(i, j) is classify_point(OPEN_BRACKETS, p, g.q_value(j)), (i, j)


def test_region_grid_ulp_gap_family_matches_scalar_classifier():
    # b - a is eps plus 0-3 ulps, as in OPEN_BRACKETS; about one grid in
    # twenty opens a rev bracket, and each is checked cell by cell
    rng = random.Random(31)
    for _ in range(200):
        problem = grid_equivalence.ulp_gap(rng)
        if problem:
            _assert_grid_matches_scalar_classifier(_problem(*problem), rng.randint(2, 20))


# b + eps lies within rounding of p_8 = 0.9 at n = 10: on that row the first
# two target weights sum to b + eps give or take an ulp as q varies, so the
# second prefix test of forward majorization, p <= b + eps, holds or fails
# column by column, and the kernel's bracket of that threshold stays open
OPEN_FORWARD_BRACKET = _problem(*grid_equivalence.OPEN_FORWARD_BRACKET)


def test_region_grid_open_forward_bracket_matches_scalar_classifier():
    g = _assert_grid_matches_scalar_classifier(OPEN_FORWARD_BRACKET, 10)
    assert [g.class_at(8, j).value for j in range(2, 8)] == [
        "infeasible", "trivial", "incomparable", "incomparable", "trivial", "incomparable",
    ]


# b is p_4 + eps at n = 6 with the default eps: on row 4 the target's
# second prefix sum, flat at b, equals the reverse threshold p_4 + eps on
# columns 0, 1 and 3 but lies an ulp above it on column 2, so the bracket
# stays open; no cell has equal spectra, so only the open bracket sends the
# row through the fix-up pass
OPEN_ROW_NO_EQUAL = _problem(*grid_equivalence.OPEN_ROW_NO_EQUAL)


def test_region_grid_open_row_without_equal_spectra_matches_scalar_classifier():
    g = _assert_grid_matches_scalar_classifier(OPEN_ROW_NO_EQUAL, 6)
    assert [g.class_at(4, j).value for j in range(4)] == [
        "increasing", "increasing", "incomparable", "increasing",
    ]


def test_region_grid_row_plus_eps_family_matches_scalar_classifier():
    # b = p_i + eps give or take 2 ulps: row i's reverse bracket can stay
    # open on a grid where no row needs the equal-spectra test
    rng = random.Random(59)
    for _ in range(100):
        problem = grid_equivalence.row_plus_eps(rng, max_n=24)
        if problem:
            *abe, n = problem
            _assert_grid_matches_scalar_classifier(_problem(*abe), n)


def test_region_grid_several_complete_cells():
    # at eps = 9e-4 the swap point (p, q) = (b, a) = (p_360, q_240) has an
    # eps-neighbourhood of 3 x 3 cells; (p_361, q_239) fails forward
    # majorization, so 8 of them are complete
    prob = _problem(*grid_equivalence.SWAP_BLOCK)
    g = region_grid(prob, 600)
    assert g.counts()[RegionClass.COMPLETE_RECOVERY] == 8
    for i in (359, 360, 361):
        for j in (239, 240, 241):
            want = (i, j) != (361, 239)
            assert (g.class_at(i, j) is RegionClass.COMPLETE_RECOVERY) == want, (i, j)
        p = g.p_value(i)
        for j in range(601):
            assert g.class_at(i, j) is classify_point(prob, p, g.q_value(j)), (i, j)


def test_region_grid_upper_triangle_infeasible():
    # q >= p never yields a strict entanglement gain in the auxiliary
    g = region_grid(RecoveryProblem(0.7, 0.8), 25)
    for i in range(26):
        for j in range(i, 26):
            assert g.class_at(i, j) is RegionClass.INFEASIBLE_OTHER


def test_region_grid_contains_complete_point_when_on_grid():
    # a=0.7, b=0.8 lie exactly on the n=20 grid: p index 12, q index 8
    g = region_grid(RecoveryProblem(0.7, 0.8), 20)
    assert g.class_at(12, 8) is RegionClass.COMPLETE_RECOVERY
    assert g.counts()[RegionClass.COMPLETE_RECOVERY] == 1


def test_region_grid_accepts_product_target():
    g = region_grid(RecoveryProblem(0.6, 1.0), 10)
    # q = 1/2 cells with a*p < 1/2 concentrate into a Bell pair: true recovery
    assert g.class_at(5, 0) is RegionClass.TRUE_RECOVERY  # p = 0.75, ap = 0.45
    # at p = 1 the source pair alone would have to become a Bell pair
    assert g.class_at(10, 0) is RegionClass.ENTANGLEMENT_INCREASING


def _has_both_recovery_kinds(counts):
    return (counts[RegionClass.TRUE_RECOVERY] >= 1
            and counts[RegionClass.TRIVIAL_RECOVERY] >= 1)


def test_regions_keep_both_recovery_kinds():
    # the true-recovery region lies next to the trivial one on the n = 200
    # grid of every sampled problem, and on the thin problem's n = 500 grid
    rng = random.Random(40404)
    missing = [prob for prob in (sample_problem(rng) for _ in range(1000))
               if not _has_both_recovery_kinds(region_grid(prob, 200).counts())]
    assert missing == []
    assert _has_both_recovery_kinds(region_grid(RecoveryProblem(0.51, 0.52), 500).counts())


# ------------------------------------------------- oracle/closed-form bridge


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=500, deadline=None)
def test_closed_form_equals_oracle_with_gain(seed):
    assert reproduce_examples.disagreements(random.Random(seed), 1) == []


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_feasible_entropy_bookkeeping(seed):
    rng = random.Random(seed)
    prob = sample_problem(rng)
    got = sample_feasible_point(rng, prob)
    if got is None:
        return
    p, q = got
    assert is_feasible_closed_form(prob, p, q)
    # the auxiliary strictly gains, the source loses, the total never grows
    assert pair_entropy(q) > pair_entropy(p)
    assert pair_entropy(prob.a) >= pair_entropy(prob.b)
    assert (
        pair_entropy(prob.a) + pair_entropy(p)
        >= pair_entropy(prob.b) + pair_entropy(q) - 1e-9
    )


def _sampled_points(rng, count, sample_point):
    """count draws (prob, p, q) of sample_problem and sample_point(rng, prob),
    skipping the problems for which sample_point finds no point.  The sampled
    properties below take a batch per hypothesis seed, so that a run covers
    both many seeds and the draw count each property needs."""
    found = []
    while len(found) < count:
        prob = sample_problem(rng)
        got = sample_point(rng, prob)
        if got is not None:
            found.append((prob, *got))
    return found


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_trivial_region_has_per_pair_route(seed):
    # 34 points a seed, 10200 a run: each pair converts on its own
    trivial = functools.partial(sample_feasible_point, want="trivial")
    for prob, p, q in _sampled_points(random.Random(seed), 34, trivial):
        assert classify_point(prob, p, q) is RegionClass.TRIVIAL_RECOVERY
        assert can_transform(two_qubit(prob.a).spectrum, two_qubit(q).spectrum)
        assert can_transform(two_qubit(p).spectrum, two_qubit(prob.b).spectrum)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_true_region_needs_collective_route(seed):
    # 34 points a seed, 10200 a run: no single-pair route reaches q
    true = functools.partial(sample_feasible_point, want="true")
    for prob, p, q in _sampled_points(random.Random(seed), 34, true):
        assert classify_point(prob, p, q) is RegionClass.TRUE_RECOVERY
        assert not can_transform(two_qubit(prob.a).spectrum, two_qubit(q).spectrum)
        assert not can_transform(two_qubit(p).spectrum, two_qubit(q).spectrum)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_trivial_point_has_true_point_below(seed):
    # same p, smaller q still feasible: the window between the lower boundary
    # and q = a collapses only at p = b, which the margin keeps away
    rng = random.Random(seed)
    prob = sample_problem(rng)
    got = sample_feasible_point(rng, prob, want="trivial")
    if got is None:
        return
    p, q = got
    if p > prob.b - 1e-6:
        return
    lo = max(0.5, (prob.a / prob.b) * p)
    q_lower = 0.5 * (lo + prob.a)
    if not q_lower < prob.a - 1e-9:
        return
    assert is_feasible_closed_form(prob, p, q_lower)
    assert q_lower < prob.a


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_outer_subregions(seed):
    # beyond p = b, 17 points a seed on each side of the slope line q = (a/b)p,
    # 10200 a run: incomparable above it, entanglement-increasing below
    rng = random.Random(seed)
    above = functools.partial(sample_outer_point, region="incomparable")
    for prob, p, q in _sampled_points(rng, 17, above):
        x, y = product_spectra(prob, p, q)
        assert compare(x, y) is Comparability.INCOMPARABLE
        assert classify_point(prob, p, q) is RegionClass.INCOMPARABLE
    below = functools.partial(sample_outer_point, region="increasing")
    for prob, p, q in _sampled_points(rng, 17, below):
        x, y = product_spectra(prob, p, q)
        assert is_majorized_by(y, x) and not is_majorized_by(x, y)
        assert classify_point(prob, p, q) is RegionClass.ENTANGLEMENT_INCREASING


@given(st.floats(0.5, 0.98), st.floats(0.002, 0.5))
@settings(max_examples=1000, deadline=None)
def test_complete_recovery_point_always(a, gap):
    # at (p, q) = (b, a) the pairs swap roles: the joint spectra are one
    # multiset, so no entropy is lost
    b = min(1.0, a + gap)
    prob = RecoveryProblem(a, b)
    assert classify_point(prob, b, a) is RegionClass.COMPLETE_RECOVERY
    x, y = product_spectra(prob, b, a)
    assert abs(entropy(x) - entropy(y)) <= 1e-9
