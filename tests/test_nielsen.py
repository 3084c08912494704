import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrecovery import (
    Comparability,
    InvalidTypeError,
    Tolerance,
    TransformVerdict,
    can_transform,
    make_spectrum,
    transform_verdict,
    two_qubit,
)
from entrecovery.cli import main


def test_forward_example():
    assert can_transform(make_spectrum([0.7, 0.3]), make_spectrum([0.8, 0.2]))


def test_bell_converts_to_anything_two_qubit():
    assert can_transform(make_spectrum([0.5, 0.5]), make_spectrum([0.9, 0.1]))


def test_reverse_direction_refused():
    assert not can_transform(make_spectrum([0.8, 0.2]), make_spectrum([0.7, 0.3]))


def test_verdict_forward_with_entropies():
    v = transform_verdict(make_spectrum([0.7, 0.3]), make_spectrum([0.8, 0.2]))
    assert v.comparability is Comparability.LEFT_MAJORIZED
    assert v.forward and not v.backward
    # frozen 40-digit-precision entropies
    assert abs(v.entropy_source - 0.8812908992306926) < 1e-12
    assert abs(v.entropy_target - 0.7219280948873623) < 1e-12


def test_verdict_equal_identity():
    v = transform_verdict(make_spectrum([0.5, 0.5]), make_spectrum([0.5, 0.5]))
    assert v.comparability is Comparability.EQUAL
    assert v.forward and v.backward
    assert v.entropy_source == 1.0 and v.entropy_target == 1.0


def test_verdict_incomparable_reports_entropies():
    v = transform_verdict(
        make_spectrum([0.63, 0.27, 0.07, 0.03]),
        make_spectrum([0.64, 0.16, 0.16, 0.04]),
    )
    assert v.comparability is Comparability.INCOMPARABLE
    assert not v.forward and not v.backward
    assert v.entropy_source > 0 and v.entropy_target > 0


def test_verdict_rejects_a_comparability_that_is_not_a_member():
    # a misspelt comparability would read as incomparable: neither direction holds
    with pytest.raises(InvalidTypeError, match="comparability must be a Comparability"):
        TransformVerdict("junk", 0.88, 0.72)


def test_prefix_and_elementwise_routes_split_inside_the_eps_band(capsys):
    # every entry is within eps of 1/4, but the second prefix sum overshoots
    # 1/2 by 1.6e-12: can_transform reads the prefix sums and refuses, while
    # transform_verdict (and the CLI) first test elementwise equality
    d = 8e-13
    source = [0.25 + d, 0.25 + d, 0.25 - d, 0.25 - d]
    x, y = make_spectrum(source), make_spectrum([0.25] * 4)
    assert not can_transform(x, y)
    v = transform_verdict(x, y)
    assert v.comparability is Comparability.EQUAL
    assert v.forward and v.backward
    code = main(["transform", "--source", ",".join(map(repr, source)),
                 "--target", "0.25,0.25,0.25,0.25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: equal\nforward: true\nbackward: true\n" in out


@given(
    st.floats(0.5, 1.0, allow_nan=False),
    st.floats(0.5, 1.0, allow_nan=False),
)
@settings(max_examples=300)
def test_two_qubit_collapse_to_single_inequality(a, b):
    tol = Tolerance()
    got = can_transform(two_qubit(a).spectrum, two_qubit(b).spectrum, tol)
    assert got == (a <= b + tol.eps)


def test_verdict_inside_eps_band_does_not_raise():
    # entries agree within eps, so the pair is Equal, yet the source entropy
    # is ~3e-11 below the target's: more than eps, less than eps*log2(v1/v2)
    source = make_spectrum([1 - 1e-9 + 1e-12, 1e-9 - 1e-12])
    target = make_spectrum([1 - 1e-9, 1e-9])
    v = transform_verdict(source, target)
    assert v.comparability is Comparability.EQUAL
    assert v.entropy_source < v.entropy_target
