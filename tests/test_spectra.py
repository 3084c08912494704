import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrecovery import (
    EmptyInputError,
    InputDomainError,
    InvalidTypeError,
    NegativeWeightError,
    NonFiniteWeightError,
    NotNormalizedError,
    OutOfRangeError,
    SchmidtSpectrum,
    Tolerance,
    TwoQubitPair,
    can_concentrate_bell,
    can_transform,
    compare,
    entropy,
    is_majorized_by,
    make_spectrum,
    tensor,
    transform_verdict,
    two_qubit,
)
from conftest import random_simplex


def test_make_spectrum_sorts():
    s = make_spectrum([0.3, 0.7])
    assert s.values == (0.7, 0.3)


def test_make_spectrum_bell():
    assert make_spectrum([0.5, 0.5]).values == (0.5, 0.5)


def test_make_spectrum_four_elements():
    s = make_spectrum([0.42, 0.28, 0.18, 0.12])
    assert s.values == (0.42, 0.28, 0.18, 0.12)


def test_make_spectrum_rejects_empty():
    with pytest.raises(EmptyInputError):
        make_spectrum([])


def test_make_spectrum_rejects_negative():
    with pytest.raises(NegativeWeightError):
        make_spectrum([1.1, -0.1])


def test_make_spectrum_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        make_spectrum([0.5, 0.4])


@pytest.mark.parametrize(
    "raw",
    [pytest.param([math.nan, 0.3], id="nan"), pytest.param([math.inf, 0.3], id="inf"),
     pytest.param([-math.inf, 0.3], id="-inf"),
     # reals beyond the float range, on which float() overflows
     pytest.param([10**400], id="int-1e400"),
     pytest.param([Fraction(10**400)], id="Fraction-1e400"),
     pytest.param([-10**400, 1.0], id="int-minus-1e400")],
)
def test_make_spectrum_rejects_non_finite(raw):
    # NaN compares false against every bound, so it needs its own check
    with pytest.raises(NonFiniteWeightError) as info:
        make_spectrum(raw)
    if type(raw[0]) is not float:
        assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.parametrize(
    "raw,shown",
    [(["x", 0.5], "'x'"), ([None, 1.0], "None"), ([1 + 0j], "(1+0j)"),
     # float() would accept these, but they are not float weights
     ([True], "True"), (["0.5", 0.5], "'0.5'"), ([b"0.5", 0.5], "b'0.5'"),
     ([bytearray(b"0.5"), 0.5], "bytearray(b'0.5')"),
     # neither is a numbers.Real, and classify_point rejects both
     ([np.True_], repr(np.True_)), ([Decimal("0.5"), 0.5], "Decimal('0.5')")],
)
def test_make_spectrum_rejects_non_numeric(raw, shown):
    with pytest.raises(InputDomainError, match=re.escape(shown)) as info:
        make_spectrum(raw)
    # the one message of require_real, as for every other scalar check
    assert str(info.value).startswith("weight must be a real number")
    assert not isinstance(info.value.__cause__, InvalidTypeError)


def test_make_spectrum_type_error_is_invalid_type():
    with pytest.raises(InvalidTypeError, match="True"):
        make_spectrum([True])


@pytest.mark.parametrize("raw", [5, None, 0.5], ids=repr)
def test_make_spectrum_rejects_a_non_iterable(raw):
    with pytest.raises(InvalidTypeError,
                       match=f"^raw must be an iterable of weights, got {re.escape(repr(raw))}$"):
        make_spectrum(raw)


def test_make_spectrum_passes_on_a_type_error_of_the_callers_iterator():
    def weights():
        yield 0.5
        raise TypeError("raised by the caller's iterator")

    with pytest.raises(TypeError, match="^raised by the caller's iterator$") as info:
        make_spectrum(weights())
    assert type(info.value) is TypeError


def test_make_spectrum_clamps_tolerated_noise():
    s = make_spectrum([1.0 + 5e-14, -5e-14])
    assert s.values == (1.0, 0.0)


def test_zero_weights_allowed():
    s = make_spectrum([0.5, 0.5, 0.0, 0.0])
    assert s.dim == 4
    assert entropy(s) == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_canonicalizes():
    assert two_qubit(0.3).a == 0.7
    assert two_qubit(0.5).a == 0.5
    assert two_qubit(0.7).a == 0.7
    assert two_qubit(1.0).a == 1.0
    assert two_qubit(0.0).a == 1.0


def test_two_qubit_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        two_qubit(1.2)
    with pytest.raises(OutOfRangeError):
        two_qubit(-0.1)
    # the class itself takes only the canonical range [1/2, 1]
    with pytest.raises(OutOfRangeError):
        TwoQubitPair(0.4)
    with pytest.raises(OutOfRangeError):
        TwoQubitPair(1.5)


def test_two_qubit_spectrum_view():
    s = two_qubit(0.7).spectrum
    assert s.values[0] == 0.7
    assert abs(s.values[1] - 0.3) < 1e-15  # 1 - 0.7 in floats


def test_tolerance_bounds():
    with pytest.raises(OutOfRangeError):
        Tolerance(0.0)
    with pytest.raises(OutOfRangeError):
        Tolerance(1e-3)
    assert Tolerance(5e-4).eps == 5e-4


# every function that takes a tol, given a float where the Tolerance belongs,
# and Tolerance itself given an eps that is not a real number
_X, _Y = make_spectrum([0.5, 0.5]), make_spectrum([0.9, 0.1])
TOL_TYPE_CASES = [
    (lambda v: can_concentrate_bell(0.6, 0.7, v), "tol", 1e-3, Tolerance(1e-4)),
    (lambda v: two_qubit(0.7, v), "tol", 1e-3, Tolerance(1e-4)),
    (lambda v: is_majorized_by(_X, _Y, v), "tol", 1e-3, Tolerance(1e-4)),
    (lambda v: can_transform(_X, _Y, v), "tol", 1e-3, Tolerance(1e-4)),
    (lambda v: make_spectrum([1.0], v), "tol", 1e-3, Tolerance(1e-4)),
    (lambda v: compare(_X, _Y, v), "tol", 1e-3, Tolerance(1e-4)),
    (lambda v: transform_verdict(_X, _Y, v), "tol", 1e-3, Tolerance(1e-4)),
    (Tolerance, "eps", "1e-4", Fraction(1, 10_000)),
    (Tolerance, "eps", None, 1e-4),
    (Tolerance, "eps", True, 1e-4),
]


@pytest.mark.parametrize(
    "call,name,bad,good", TOL_TYPE_CASES,
    ids=[f"{i}-{c[1]}-{c[2]!r}" for i, c in enumerate(TOL_TYPE_CASES)],
)
def test_tolerance_arguments_check_types(call, name, bad, good):
    with pytest.raises(InvalidTypeError,
                       match=f"^{name} must be a .+, got {re.escape(repr(bad))}$"):
        call(bad)
    call(good)


def test_tensor_worked_pair():
    s = tensor(make_spectrum([0.7, 0.3]), make_spectrum([0.6, 0.4]))
    expected = (0.42, 0.28, 0.18, 0.12)
    assert all(abs(u - v) < 1e-12 for u, v in zip(s.values, expected))


def test_tensor_other_pair():
    s = tensor(make_spectrum([0.8, 0.2]), make_spectrum([0.55, 0.45]))
    expected = (0.44, 0.36, 0.11, 0.09)
    assert all(abs(u - v) < 1e-12 for u, v in zip(s.values, expected))


def test_tensor_identity():
    s = make_spectrum([0.6, 0.3, 0.1])
    assert tensor(make_spectrum([1.0]), s).values == s.values


def test_entropy_bell_is_one_ebit():
    assert entropy(make_spectrum([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)


def test_entropy_product_state_is_zero():
    assert entropy(make_spectrum([1.0, 0.0])) == 0.0


def test_entropy_of_plain_weights_matches_spectrum():
    # the recovery code passes the pair weights as a tuple; the value must be
    # the same float as for the SchmidtSpectrum
    rng = random.Random(5)
    for _ in range(200):
        v = rng.uniform(0.5, 1.0)
        assert entropy((v, 1.0 - v)) == entropy(SchmidtSpectrum((v, 1.0 - v)))
    assert entropy([0.5, 0.5, 0.0]) == 1.0


def test_entropy_frozen_value():
    # -0.7*log2(0.7) - 0.3*log2(0.3) = 0.88129089923069261822 at 40-digit precision
    assert abs(entropy(make_spectrum([0.7, 0.3])) - 0.8812908992306926) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=150)
def test_tensor_normalization(seed, d1, d2):
    rng = random.Random(seed)
    s = random_simplex(rng, d1)
    t = random_simplex(rng, d2)
    joint = tensor(s, t)
    assert joint.dim == d1 * d2
    assert abs(sum(joint.values) - 1.0) < 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=150)
def test_entropy_additivity(seed, d1, d2):
    rng = random.Random(seed)
    s = random_simplex(rng, d1)
    t = random_simplex(rng, d2)
    assert abs(entropy(tensor(s, t)) - entropy(s) - entropy(t)) < 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=150)
def test_entropy_permutation_invariant_and_below_uniform(seed, dim):
    rng = random.Random(seed)
    s = random_simplex(rng, dim)
    shuffled = list(s.values)
    rng.shuffle(shuffled)
    assert make_spectrum(shuffled).values == s.values
    assert entropy(s) <= math.log2(dim) + 1e-12


def test_entropy_maximized_at_uniform():
    for dim in range(1, 9):
        u = make_spectrum([1.0 / dim] * dim)
        assert abs(entropy(u) - math.log2(dim)) < 1e-12


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_two_qubit_mirror_symmetry(a):
    assert two_qubit(a).spectrum.values == two_qubit(1.0 - a).spectrum.values
