"""Deterministic LOCC convertibility and entanglement recovery regions.

Core objects: Schmidt spectra (probability vectors), the majorization
preorder deciding convertibility, and the closed-form recovery region for an
auxiliary two-qubit pair, cross-validated against the direct majorization
oracle.
"""

from .errors import (
    EmptyInputError,
    InputDomainError,
    InvalidTypeError,
    NegativeWeightError,
    NonFiniteWeightError,
    NotNormalizedError,
    OutOfRangeError,
    ResolutionTooLargeError,
)
from .majorization import Comparability, compare, is_majorized_by
from .nielsen import TransformVerdict, can_transform, transform_verdict
from .recovery import (
    RecoveryProblem,
    RegionClass,
    RegionGrid,
    bell_bound,
    can_concentrate_bell,
    classify_point,
    is_feasible_closed_form,
    product_spectra,
    region_grid,
)
from .spectra import (
    DEFAULT_TOL,
    SchmidtSpectrum,
    Tolerance,
    TwoQubitPair,
    entropy,
    make_spectrum,
    tensor,
    two_qubit,
)

__version__ = "0.1.0"

__all__ = [
    "Comparability",
    "DEFAULT_TOL",
    "EmptyInputError",
    "InputDomainError",
    "InvalidTypeError",
    "NegativeWeightError",
    "NonFiniteWeightError",
    "NotNormalizedError",
    "OutOfRangeError",
    "RecoveryProblem",
    "RegionClass",
    "RegionGrid",
    "ResolutionTooLargeError",
    "SchmidtSpectrum",
    "Tolerance",
    "TransformVerdict",
    "TwoQubitPair",
    "bell_bound",
    "can_concentrate_bell",
    "can_transform",
    "classify_point",
    "compare",
    "entropy",
    "is_feasible_closed_form",
    "is_majorized_by",
    "make_spectrum",
    "product_spectra",
    "region_grid",
    "tensor",
    "transform_verdict",
    "two_qubit",
]
