"""Deterministic LOCC convertibility via Nielsen's criterion.

A pure state converts deterministically to another under local operations and
classical communication exactly when its Schmidt spectrum is majorized by the
target's.  Entanglement entropy can only decrease along such a conversion.
"""

from __future__ import annotations

from .errors import require_instance
from .majorization import Comparability, compare, is_majorized_by
from .spectra import DEFAULT_TOL, FrozenValue, SchmidtSpectrum, Tolerance, entropy

__all__ = ["can_transform", "transform_verdict", "TransformVerdict"]


def can_transform(
    source: SchmidtSpectrum, target: SchmidtSpectrum, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff the source converts deterministically into the target."""
    if not (type(source) is SchmidtSpectrum and type(target) is SchmidtSpectrum):
        require_instance("source", source, SchmidtSpectrum)
        require_instance("target", target, SchmidtSpectrum)
    return is_majorized_by(source, target, tol)


class TransformVerdict(FrozenValue):
    """Comparability of a source/target pair plus both entanglement entropies.

    comparability must be a Comparability, else InvalidTypeError; the two
    entropies are trusted, as transform_verdict computes them.
    """

    __slots__ = __match_args__ = ("comparability", "entropy_source", "entropy_target")

    def __init__(self, comparability: Comparability, entropy_source: float,
                 entropy_target: float):
        if type(comparability) is not Comparability:
            require_instance("comparability", comparability, Comparability)
        object.__setattr__(self, "comparability", comparability)
        object.__setattr__(self, "entropy_source", entropy_source)
        object.__setattr__(self, "entropy_target", entropy_target)

    @property
    def forward(self) -> bool:
        return self.comparability in (
            Comparability.LEFT_MAJORIZED,
            Comparability.EQUAL,
        )

    @property
    def backward(self) -> bool:
        return self.comparability in (
            Comparability.RIGHT_MAJORIZED,
            Comparability.EQUAL,
        )


def transform_verdict(
    source: SchmidtSpectrum, target: SchmidtSpectrum, tol: Tolerance = DEFAULT_TOL
) -> TransformVerdict:
    """Compare both directions and report entropies alongside the verdict.

    The identity conversion is reported as Equal rather than refused.  Equal
    comes first (compare tests elementwise coincidence within eps before any
    prefix sum), so inside the eps band `forward` can be True where
    can_transform, which reads only the prefix sums, is False: with eps =
    1e-12, source (1/4 + 8e-13, 1/4 + 8e-13, 1/4 - 8e-13, 1/4 - 8e-13) is Equal
    to the uniform target, yet its second prefix sum exceeds 1/2 by 1.6e-12.
    """
    if not (type(source) is SchmidtSpectrum and type(target) is SchmidtSpectrum):
        require_instance("source", source, SchmidtSpectrum)
        require_instance("target", target, SchmidtSpectrum)
    return TransformVerdict(
        compare(source, target, tol), entropy(source), entropy(target)
    )
