"""Public semantics of the six value classes: equality, hashing, repr and
immutability, pinned independently of how the classes are implemented."""

import numpy as np
import pytest

from entrecovery import (
    Comparability,
    RecoveryProblem,
    SchmidtSpectrum,
    Tolerance,
    TransformVerdict,
    TwoQubitPair,
    region_grid,
)

# per class: a factory, a second value that differs, the repr of the first
# value, and one field to try assigning
VALUE_CASES = {
    "Tolerance": (lambda: Tolerance(1e-12), Tolerance(1e-9),
                  "Tolerance(eps=1e-12)", "eps"),
    "SchmidtSpectrum": (lambda: SchmidtSpectrum((0.7, 0.3)), SchmidtSpectrum((0.6, 0.4)),
                        "SchmidtSpectrum(values=(0.7, 0.3))", "values"),
    "TwoQubitPair": (lambda: TwoQubitPair(0.7), TwoQubitPair(0.8),
                     "TwoQubitPair(a=0.7)", "a"),
    "RecoveryProblem": (lambda: RecoveryProblem(0.7, 0.8), RecoveryProblem(0.7, 0.9),
                        "RecoveryProblem(a=0.7, b=0.8, tol=Tolerance(eps=1e-12))", "b"),
    "TransformVerdict": (
        lambda: TransformVerdict(Comparability.EQUAL, 1.0, 1.0),
        TransformVerdict(Comparability.LEFT_MAJORIZED, 1.0, 0.5),
        "TransformVerdict(comparability=<Comparability.EQUAL: 'equal'>, "
        "entropy_source=1.0, entropy_target=1.0)",
        "entropy_source",
    ),
}


@pytest.mark.parametrize("make,other,shown,field", VALUE_CASES.values(), ids=VALUE_CASES)
def test_value_class_equality_hash_repr(make, other, shown, field):
    x, y = make(), make()
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert x != other
    assert len({x, y, other}) == 2
    assert repr(x) == shown


@pytest.mark.parametrize("make,other,shown,field", VALUE_CASES.values(), ids=VALUE_CASES)
def test_value_class_fields_are_read_only(make, other, shown, field):
    x = make()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(other, field))
    assert getattr(x, field) == before


def test_region_grid_compares_by_identity():
    prob = RecoveryProblem(0.7, 0.8)
    g, h = region_grid(prob, 2), region_grid(prob, 2)
    assert (g.a, g.b, g.n) == (h.a, h.b, h.n) and (g.codes == h.codes).all()
    assert g == g and g != h
    assert hash(g) == hash(g) and len({g, h}) == 2
    assert repr(g) == (
        "RegionGrid(a=0.7, b=0.8, n=2, codes=array([[5, 5, 5],\n"
        "       [3, 5, 5],\n"
        "       [4, 4, 5]], dtype=uint8))"
    )
    with pytest.raises(AttributeError):
        g.n = 3
    assert g.n == 2


def test_region_grid_codes_are_a_writable_uint8_matrix():
    # callers may index, slice and modify the codes of their own grid
    codes = region_grid(RecoveryProblem(0.7, 0.8), 6).codes
    assert type(codes) is np.ndarray
    assert codes.dtype == np.uint8 and codes.shape == (7, 7)
    assert codes.flags.c_contiguous and codes.flags.writeable
    codes[0, 0] = 0
    assert codes[0, 0] == 0
