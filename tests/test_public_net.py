"""The standing net over the package's public names: each callable of
entrecovery.__all__, and RegionGrid's index methods, called with each of
its parameters in turn set to a hostile value, returns or raises an
InputDomainError, never a bare TypeError, AttributeError or numpy error.
The one other exception allowed is IndexError, from RegionGrid's index
methods, for an integer outside the grid."""

import enum
import inspect
import math
import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import entrecovery
from entrecovery import (
    DEFAULT_TOL,
    Comparability,
    InputDomainError,
    RecoveryProblem,
    RegionGrid,
    SchmidtSpectrum,
    Tolerance,
    TransformVerdict,
    TwoQubitPair,
    bell_bound,
    can_concentrate_bell,
    can_transform,
    classify_point,
    compare,
    is_feasible_closed_form,
    is_majorized_by,
    make_spectrum,
    product_spectra,
    region_grid,
    tensor,
    transform_verdict,
    two_qubit,
)

HOSTILE = (
    None, True, False, 0, -1, 2, 10**400, -0.0, 0.3, 1.5, math.nan, math.inf, -math.inf,
    "0.7", "", b"0.7", 1 + 0j, Fraction(7, 10), Decimal("0.7"), np.float16(0.6),
    np.int64(3), np.True_, np.array(3), np.array(3.0), np.array([3]), np.array([1, 2]),
    [0.7, 0.3], (0.7, 0.3), {}, object(),
    Tolerance(1e-4), SchmidtSpectrum((0.7, 0.3)), RecoveryProblem(0.7, 0.8),
)

X, Y = SchmidtSpectrum((0.7, 0.3)), SchmidtSpectrum((0.8, 0.2))
PROB = RecoveryProblem(0.7, 0.8)
GRID = region_grid(PROB, 4)

# each callable with arguments on which it returns, one per parameter
CALLS = {
    "Tolerance": (Tolerance, (1e-12,)),
    "TwoQubitPair": (TwoQubitPair, (0.7,)),
    "make_spectrum": (make_spectrum, ((0.7, 0.3), DEFAULT_TOL)),
    "two_qubit": (two_qubit, (0.3, DEFAULT_TOL)),
    "tensor": (tensor, (X, Y)),
    "is_majorized_by": (is_majorized_by, (X, Y, DEFAULT_TOL)),
    "compare": (compare, (X, Y, DEFAULT_TOL)),
    "can_transform": (can_transform, (X, Y, DEFAULT_TOL)),
    "transform_verdict": (transform_verdict, (X, Y, DEFAULT_TOL)),
    "TransformVerdict": (TransformVerdict, (Comparability.LEFT_MAJORIZED, 0.88, 0.72)),
    "RecoveryProblem": (RecoveryProblem, (0.7, 0.8, DEFAULT_TOL)),
    "RegionGrid": (RegionGrid, (0.7, 0.8, 4, np.zeros((5, 5), np.uint8))),
    "product_spectra": (product_spectra, (PROB, 0.6, 0.55)),
    "is_feasible_closed_form": (is_feasible_closed_form, (PROB, 0.6, 0.55)),
    "classify_point": (classify_point, (PROB, 0.6, 0.55)),
    "bell_bound": (bell_bound, (PROB,)),
    "can_concentrate_bell": (can_concentrate_bell, (0.6, 0.7, DEFAULT_TOL)),
    "region_grid": (region_grid, (PROB, 4)),
    "RegionGrid.p_value": (GRID.p_value, (2,)),
    "RegionGrid.q_value": (GRID.q_value, (2,)),
    "RegionGrid.class_at": (GRID.class_at, (2, 3)),
}

# parameters the package trusts, each with its reason
TRUSTED = {
    "SchmidtSpectrum.values": "direct construction trusts its values; "
                              "make_spectrum is the checked constructor",
    "entropy.s": "trusts its weights, as its docstring says; make_spectrum checks them",
    "RegionGrid.a": "stored as region_grid passes it; the grid's methods never use it",
    "RegionGrid.b": "stored as region_grid passes it; the grid's methods never use it",
}


def _not_an_entry_point(obj) -> bool:
    # the error types take any message, and an enum's lookup by value is
    # Python's own, which raises ValueError for a value no member has
    return isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum))


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_every_public_callable_is_in_the_net_or_trusted():
    for name in entrecovery.__all__:
        obj = getattr(entrecovery, name)
        if not callable(obj) or _not_an_entry_point(obj):
            continue
        for param in _parameters(obj):
            assert name in CALLS or f"{name}.{param}" in TRUSTED, (name, param)
    for name, (fn, args) in CALLS.items():
        assert len(args) == len(_parameters(fn)), name
        fn(*args)


def _integer_outside_grid(value) -> bool:
    try:
        return not 0 <= operator.index(value) <= GRID.n
    except TypeError:
        return False


@pytest.mark.parametrize("name", CALLS)
def test_hostile_arguments_give_a_result_or_an_input_domain_error(name):
    fn, args = CALLS[name]
    for k, param in enumerate(_parameters(fn)):
        if f"{name}.{param}" in TRUSTED:
            continue
        for value in HOSTILE:
            try:
                fn(*args[:k], value, *args[k + 1:])
            except InputDomainError:
                pass
            except IndexError:
                assert name.startswith("RegionGrid.") and _integer_outside_grid(value), (
                    param, value)
