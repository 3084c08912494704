"""Schmidt spectra of bipartite pure states and spectrum arithmetic.

A pure bipartite state is represented by its Schmidt spectrum: the vector of
squared Schmidt coefficients, i.e. the eigenvalues of either reduced density
matrix.  Everything downstream (convertibility, recovery regions) operates on
these probability vectors only, so this module is the whole state model.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import (
    EmptyInputError,
    NegativeWeightError,
    NonFiniteWeightError,
    NotNormalizedError,
    require_instance,
    require_real,
    require_real_in,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "SchmidtSpectrum",
    "TwoQubitPair",
    "make_spectrum",
    "two_qubit",
    "tensor",
    "entropy",
]


class FrozenValue:
    """Base of the package's immutable value classes.

    A subclass names its fields once, as `__slots__ = __match_args__ =
    (...)`, and sets them in __init__ through object.__setattr__.  Equality,
    hash and repr follow those fields in order, and instances of different
    classes never compare equal.  Assigning or deleting an attribute raises
    AttributeError.  Pickle and copy rebuild an instance by calling its class
    with its fields.  Public to the package's modules but not exported, like
    errors.require_instance.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Tolerance(FrozenValue):
    """Absolute comparison tolerance used by every predicate in the package.

    The methods below fix the boundary semantics: "non-strict within eps"
    means leq/geq, "strict beyond eps" means lt/gt.  The scalar hot paths
    (make_spectrum, is_majorized_by, compare, product_spectra, classify_point,
    is_feasible_closed_form, can_concentrate_bell), the range gates of
    Tolerance, TwoQubitPair, two_qubit and RecoveryProblem, and region_grid
    write the same expressions inline on eps, e.g. `x <= y + eps` for leq,
    `x < y - eps` for lt and `abs(x - y) <= eps` for close.  Each gate
    stores or uses float(v) for a real v of another type, so eps is always
    a float.
    """

    __slots__ = __match_args__ = ("eps",)

    def __init__(self, eps: float = 1e-12):
        if not (type(eps) is float and 0.0 < eps < 1e-3):
            # (0, 1e-3) as the closed interval of floats it holds
            eps = require_real_in("eps", eps, 5e-324, math.nextafter(1e-3, 0.0),
                                  "(0, 1e-3)")
        object.__setattr__(self, "eps", eps)

    def leq(self, x: float, y: float) -> bool:
        return x <= y + self.eps

    def geq(self, x: float, y: float) -> bool:
        return x >= y - self.eps

    def lt(self, x: float, y: float) -> bool:
        return x < y - self.eps

    def gt(self, x: float, y: float) -> bool:
        return x > y + self.eps

    def close(self, x: float, y: float) -> bool:
        return abs(x - y) <= self.eps


DEFAULT_TOL = Tolerance()


class SchmidtSpectrum(FrozenValue):
    """Probability vector of squared Schmidt coefficients, sorted non-increasing.

    Direct construction trusts the caller to pass canonical values (sorted,
    normalized, in [0,1]); use make_spectrum for anything unvalidated.
    """

    __slots__ = __match_args__ = ("values",)

    def __init__(self, values: tuple[float, ...]):
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


class TwoQubitPair(FrozenValue):
    """Two-qubit pure state, parameterized by its larger squared coefficient a.

    Canonical range is 1/2 <= a <= 1; a = 1/2 is a Bell pair, a = 1 a product
    state.  Build through two_qubit() to canonicalize either coefficient.
    """

    __slots__ = __match_args__ = ("a",)

    def __init__(self, a: float):
        eps = DEFAULT_TOL.eps
        if not (type(a) is float and 0.5 - eps <= a <= 1.0 + eps):
            a = require_real_in("a", a, 0.5 - eps, 1.0 + eps, "[1/2, 1]")
        object.__setattr__(self, "a", a)

    @property
    def spectrum(self) -> SchmidtSpectrum:
        return SchmidtSpectrum((self.a, 1.0 - self.a))


def make_spectrum(raw, tol: Tolerance = DEFAULT_TOL) -> SchmidtSpectrum:
    """Validate and canonicalize raw weights into a SchmidtSpectrum.

    Parameters
    ----------
    raw : iterable of float
        Squared Schmidt coefficients in any order.  Values within eps below 0
        or above 1 are clamped; zero entries are allowed.
    tol : Tolerance
        Comparison tolerance.

    Returns
    -------
    SchmidtSpectrum
        Entries sorted in non-increasing order.

    Raises
    ------
    InvalidTypeError (a weight that is not a real number or is a bool, or a
    tol that is not a Tolerance), EmptyInputError, NonFiniteWeightError (NaN,
    infinite or beyond the float range), NegativeWeightError, NotNormalizedError
    """
    if type(tol) is not Tolerance:
        require_instance("tol", tol, Tolerance)
    eps = tol.eps
    vals = []
    clamp = False  # set by a weight outside (0, 1]; -0.0 must become 0.0
    for w in raw:
        if type(w) is float:
            v = w
        else:
            try:
                v = require_real("weight", w)
            except OverflowError as exc:
                raise NonFiniteWeightError("weight beyond the float range") from exc
        if not 0.0 < v <= 1.0:
            if not math.isfinite(v):
                raise NonFiniteWeightError(f"non-finite weight {v}")
            if v < -eps:
                raise NegativeWeightError(f"negative weight {v}")
            clamp = True
        vals.append(v)
    if not vals:
        raise EmptyInputError("spectrum needs at least one weight")
    total = sum(vals)
    if abs(total - 1.0) > eps:
        raise NotNormalizedError(f"weights sum to {total}, expected 1")
    if clamp:
        vals = [min(1.0, max(0.0, v)) for v in vals]
    vals.sort(reverse=True)
    return SchmidtSpectrum(tuple(vals))


def two_qubit(a_raw: float, tol: Tolerance = DEFAULT_TOL) -> TwoQubitPair:
    """Build a TwoQubitPair from either squared coefficient.

    Accepts any value in [0, 1] (within eps) and canonicalizes to
    a = max(a_raw, 1 - a_raw), so the stored parameter lies in [1/2, 1].
    """
    if type(tol) is not Tolerance:
        require_instance("tol", tol, Tolerance)
    eps = tol.eps
    if not (type(a_raw) is float and -eps <= a_raw <= 1.0 + eps):
        a_raw = require_real_in("coefficient", a_raw, -eps, 1.0 + eps, "[0, 1]")
    a = min(1.0, max(0.0, a_raw))
    return TwoQubitPair(max(a, 1.0 - a))


def tensor(s: SchmidtSpectrum, t: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of the joint state: all pairwise products, re-sorted."""
    if not (type(s) is SchmidtSpectrum and type(t) is SchmidtSpectrum):
        require_instance("s", s, SchmidtSpectrum)
        require_instance("t", t, SchmidtSpectrum)
    prods = [u * v for u in s.values for v in t.values]
    prods.sort(reverse=True)
    return SchmidtSpectrum(tuple(prods))


def entropy(s: SchmidtSpectrum | Iterable[float]) -> float:
    """Entanglement entropy -sum(v * log2(v)) in ebits, with 0*log(0) = 0.

    s is a SchmidtSpectrum or any iterable of its weights, such as a tuple.
    """
    if type(s) is SchmidtSpectrum:
        s = s.values  # the tuple itself, not SchmidtSpectrum.__iter__
    h = 0.0
    for v in s:
        if v > 0.0:
            h -= v * math.log2(v)
    return h
