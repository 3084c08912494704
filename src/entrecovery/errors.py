"""Exception types for domain violations, and the real-number check that
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


def require_real(name: str, v) -> None:
    """Raise InvalidTypeError unless v is a real number other than a bool.

    Callers test `type(v) is float` first and call this only for other types,
    which keeps the abstract-base-class check off the common path.
    """
    import numbers  # only values other than a plain float get here
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidTypeError(f"{name} must be a real number, got {v!r}")
