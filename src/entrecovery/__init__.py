"""Deterministic LOCC convertibility and entanglement recovery regions.

Core objects: Schmidt spectra (probability vectors), the majorization
preorder deciding convertibility, and the closed-form recovery region for an
auxiliary two-qubit pair, cross-validated against the direct majorization
oracle.
"""

# Each module's __all__ is the one list of its public names; the package
# republishes them all and nothing else.
from . import errors, majorization, nielsen, recovery, spectra
from .errors import *
from .spectra import *
from .majorization import *
from .nielsen import *
from .recovery import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += spectra.__all__
__all__ += majorization.__all__
__all__ += nielsen.__all__
__all__ += recovery.__all__
