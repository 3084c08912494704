import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrecovery import (
    Comparability,
    InvalidTypeError,
    SchmidtSpectrum,
    Tolerance,
    TwoQubitPair,
    can_transform,
    compare,
    entropy,
    is_majorized_by,
    make_spectrum,
    tensor,
    transform_verdict,
)
from conftest import doubly_stochastic_mix, random_simplex


class _SubSpectrum(SchmidtSpectrum):
    pass


# each spectrum argument of each function that takes two: (function, name, position)
SPECTRUM_ARGS = [(fn, name, pos)
                 for fn, names in ((is_majorized_by, "xy"), (compare, "xy"),
                                   (can_transform, ("source", "target")),
                                   (transform_verdict, ("source", "target")),
                                   (tensor, "st"))
                 for pos, name in enumerate(names)]


@pytest.mark.parametrize("bad", [(0.7, 0.3), [0.7, 0.3], None, "x", TwoQubitPair(0.7)],
                         ids=repr)
@pytest.mark.parametrize("fn,name,pos", SPECTRUM_ARGS,
                         ids=[f"{fn.__name__}-{name}" for fn, name, _ in SPECTRUM_ARGS])
def test_spectrum_arguments_check_type(fn, name, pos, bad):
    args = [make_spectrum([0.7, 0.3])] * 2
    args[pos] = bad
    with pytest.raises(InvalidTypeError,
                       match=f"^{name} must be a SchmidtSpectrum, got {re.escape(repr(bad))}$"):
        fn(*args)
    args[pos] = _SubSpectrum((0.7, 0.3))
    fn(*args)


def test_two_qubit_example():
    assert is_majorized_by(make_spectrum([0.7, 0.3]), make_spectrum([0.8, 0.2]))


def test_four_element_example():
    x = make_spectrum([0.42, 0.28, 0.18, 0.12])
    y = make_spectrum([0.44, 0.36, 0.11, 0.09])
    assert is_majorized_by(x, y)
    assert not is_majorized_by(y, x)


def test_crossing_prefixes_fail():
    # 0.5 > 0.4 at the first prefix
    assert not is_majorized_by(
        make_spectrum([0.5, 0.25, 0.25]), make_spectrum([0.4, 0.4, 0.2])
    )


def test_zero_padding_unequal_lengths():
    bell = make_spectrum([0.5, 0.5])
    padded = make_spectrum([0.5, 0.5, 0.0, 0.0])
    assert compare(bell, padded) is Comparability.EQUAL
    concentrated = make_spectrum([0.45, 0.45, 0.05, 0.05])
    assert is_majorized_by(concentrated, bell)
    assert not is_majorized_by(bell, concentrated)


def test_compare_equal_identity():
    s = make_spectrum([0.6, 0.4])
    assert compare(s, s) is Comparability.EQUAL


def test_compare_incomparable_three_elements():
    # prefix sums cross: 0.5 > 0.4 then 0.75 < 0.8
    a = make_spectrum([0.5, 0.25, 0.25])
    b = make_spectrum([0.4, 0.4, 0.2])
    assert compare(a, b) is Comparability.INCOMPARABLE


def test_compare_incomparable_four_elements():
    a = make_spectrum([0.63, 0.27, 0.07, 0.03])
    b = make_spectrum([0.64, 0.16, 0.16, 0.04])
    assert compare(a, b) is Comparability.INCOMPARABLE


def test_compare_directions():
    x = make_spectrum([0.7, 0.3])
    y = make_spectrum([0.8, 0.2])
    assert compare(x, y) is Comparability.LEFT_MAJORIZED
    assert compare(y, x) is Comparability.RIGHT_MAJORIZED


def test_equal_within_tolerance():
    t = Tolerance(1e-6)
    x = make_spectrum([0.7 + 1e-8, 0.3 - 1e-8], t)
    y = make_spectrum([0.7, 0.3], t)
    assert compare(x, y, t) is Comparability.EQUAL


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=200)
def test_reflexivity(seed, dim):
    s = random_simplex(random.Random(seed), dim)
    assert is_majorized_by(s, s)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=200)
def test_uniform_and_point_mass_extremes(seed, dim):
    s = random_simplex(random.Random(seed), dim)
    uniform = make_spectrum([1.0 / dim] * dim)
    point = make_spectrum([1.0] + [0.0] * (dim - 1))
    assert is_majorized_by(uniform, s)
    assert is_majorized_by(s, point)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=200)
def test_antisymmetry(seed, dim):
    rng = random.Random(seed)
    x = random_simplex(rng, dim)
    y = random_simplex(rng, dim)
    got = compare(x, y)
    flipped = compare(y, x)
    if got is Comparability.LEFT_MAJORIZED:
        assert flipped is Comparability.RIGHT_MAJORIZED
    elif got is Comparability.RIGHT_MAJORIZED:
        assert flipped is Comparability.LEFT_MAJORIZED
    else:
        assert flipped is got


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=200)
def test_transitivity_on_constructed_chain(seed, dim):
    # x = D1 y, y = D2 z with D1, D2 doubly stochastic, so x < y < z, and by
    # Nielsen's criterion each link is a deterministic conversion
    rng = random.Random(seed)
    z = random_simplex(rng, dim)
    y = doubly_stochastic_mix(rng, z)
    x = doubly_stochastic_mix(rng, y)
    for source, target in ((y, z), (x, y), (x, z)):
        assert is_majorized_by(source, target)
        assert can_transform(source, target)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_entropy_schur_concavity(seed):
    # 500 pairs a seed, 100000 a run, dims 2 to 8: a doubly stochastic image x
    # of y is majorized by it, so y is reachable from x and entropy never rises
    rng = random.Random(seed)
    for _ in range(500):
        y = random_simplex(rng, rng.randint(2, 8))
        x = doubly_stochastic_mix(rng, y)
        assert is_majorized_by(x, y)
        assert entropy(x) >= entropy(y) - 1e-9
