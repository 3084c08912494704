"""Exception types for domain violations, and the real-number checks that
the scalar parameters of the package share.

Everything derives from ValueError so callers that don't care about the
fine-grained reason can catch a single class.
"""

__all__ = [
    "InputDomainError",
    "EmptyInputError",
    "NegativeWeightError",
    "NonFiniteWeightError",
    "NotNormalizedError",
    "InvalidTypeError",
    "OutOfRangeError",
    "ResolutionTooLargeError",
]


class InputDomainError(ValueError):
    """Base class for all rejected inputs."""


class EmptyInputError(InputDomainError):
    """A spectrum was built from zero weights."""


class NegativeWeightError(InputDomainError):
    """A spectrum entry is negative beyond tolerance."""


class NonFiniteWeightError(InputDomainError):
    """A spectrum entry is NaN or infinite."""


class NotNormalizedError(InputDomainError):
    """Spectrum weights do not sum to 1 within tolerance."""


class InvalidTypeError(InputDomainError):
    """A value is not of the kind a parameter takes, such as a bool or str
    where a real number is needed, a float where a Tolerance is needed, or a
    non-integer grid resolution."""


class OutOfRangeError(InputDomainError):
    """A scalar parameter lies outside its admissible interval."""


class ResolutionTooLargeError(InputDomainError):
    """Requested grid resolution exceeds the supported maximum."""


def require_instance(name: str, v, cls: type) -> None:
    """Raise InvalidTypeError unless v is an instance of cls.

    The slow path of every check of a value-class argument (a spectrum, a
    tol, a prob): callers test `type(v) is cls` inline and call this only
    when that fails.
    """
    if not isinstance(v, cls):
        raise InvalidTypeError(f"{name} must be a {cls.__name__}, got {v!r}")


def require_real(name: str, v) -> float:
    """Return float(v), which overflows beyond the float range; raise
    InvalidTypeError unless v is a real number other than a bool."""
    import numbers  # only values other than a plain float get here
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidTypeError(f"{name} must be a real number, got {v!r}")
    return float(v)


def require_real_in(name: str, v, lo: float, hi: float, bounds: str) -> float:
    """Return float(v) for a real v in [lo, hi], else raise InvalidTypeError
    or OutOfRangeError; a real beyond the float range counts as infinite.

    The slow path of every scalar gate: callers test `type(v) is float` and
    `lo <= v <= hi` inline, and call this only when that fails.
    """
    if type(v) is not float:
        try:
            v = require_real(name, v)
        except OverflowError:
            v = float("inf") if v > 0 else float("-inf")
    if not lo <= v <= hi:
        raise OutOfRangeError(f"{name} must lie in {bounds}, got {v}")
    return v
