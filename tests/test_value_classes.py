"""Public semantics of the six value classes: equality, hashing, repr,
immutability, keyword construction and defaults, pattern matching, pickle
and copy, pinned independently of how the classes are implemented."""

import copy
import pickle

import numpy as np
import pytest

from entrecovery import (
    DEFAULT_TOL,
    Comparability,
    RecoveryProblem,
    RegionGrid,
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


# per class: its fields in order, and keyword arguments for one value
FIELD_CASES = {
    "Tolerance": (Tolerance, ("eps",), {"eps": 1e-9}),
    "SchmidtSpectrum": (SchmidtSpectrum, ("values",), {"values": (0.7, 0.3)}),
    "TwoQubitPair": (TwoQubitPair, ("a",), {"a": 0.7}),
    "RecoveryProblem": (RecoveryProblem, ("a", "b", "tol"),
                        {"a": 0.7, "b": 0.8, "tol": Tolerance(1e-9)}),
    "TransformVerdict": (TransformVerdict,
                         ("comparability", "entropy_source", "entropy_target"),
                         {"comparability": Comparability.LEFT_MAJORIZED,
                          "entropy_source": 1.0, "entropy_target": 0.5}),
    "RegionGrid": (RegionGrid, ("a", "b", "n", "codes"),
                   {"a": 0.7, "b": 0.8, "n": 2,
                    "codes": np.arange(9, dtype=np.uint8).reshape(3, 3)}),
}


def _same_fields(x, y, fields):
    for name in fields:
        u, v = getattr(x, name), getattr(y, name)
        if isinstance(u, np.ndarray):
            assert type(v) is np.ndarray and u.dtype == v.dtype
            assert np.array_equal(u, v)
        else:
            assert u == v


@pytest.mark.parametrize("cls,fields,kwargs", FIELD_CASES.values(), ids=FIELD_CASES)
def test_value_class_keyword_construction_and_match_args(cls, fields, kwargs):
    assert cls.__match_args__ == fields
    x = cls(**kwargs)
    for name in fields:
        assert getattr(x, name) is kwargs[name]
    _same_fields(x, cls(*kwargs.values()), fields)


@pytest.mark.parametrize("cls,fields,kwargs", FIELD_CASES.values(), ids=FIELD_CASES)
def test_value_class_pickle_and_copy(cls, fields, kwargs):
    x = cls(**kwargs)
    clones = [pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(x), copy.deepcopy(x)]
    for y in clones:
        assert type(y) is cls
        _same_fields(x, y, fields)
        if cls is not RegionGrid:  # a grid equals only itself
            assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("cls,fields,kwargs", FIELD_CASES.values(), ids=FIELD_CASES)
def test_value_class_fields_cannot_be_deleted(cls, fields, kwargs):
    x = cls(**kwargs)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is kwargs[name]


def test_value_class_defaults():
    assert Tolerance().eps == 1e-12 and Tolerance() == Tolerance(1e-12)
    assert RecoveryProblem(0.7, 0.8).tol is DEFAULT_TOL
    assert RecoveryProblem(a=0.7, b=0.8) == RecoveryProblem(0.7, 0.8, DEFAULT_TOL)


def test_value_class_match_statement():
    match RecoveryProblem(0.7, 0.8):
        case RecoveryProblem(a, b, tol=Tolerance(eps)):
            assert (a, b, eps) == (0.7, 0.8, 1e-12)
        case _:
            pytest.fail("RecoveryProblem did not match its class pattern")
