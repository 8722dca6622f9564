"""Combinatorics of spherical knot projections.

Gauss codes and chord diagrams, spherical realization as combinatorial maps,
the 1b/s2b reduction calculus, the Arnold invariant (8 times the average of
a2 over all resolutions, an integer), exhaustive small-n enumeration, and
machine verification of the structural claims tying them together.
"""

from . import chords, enumeration, errors, invariants, moves, planar, verify
from .chords import *
from .enumeration import *
from .invariants import *
from .moves import *
from .planar import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "errors",
    *chords.__all__,
    *enumeration.__all__,
    *invariants.__all__,
    *moves.__all__,
    *planar.__all__,
    *verify.__all__,
    "__version__",
]
