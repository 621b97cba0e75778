"""Numerical monodromy engine for the equation z + e^z = a.

The package verifies, at desk scale, the analytic ingredients of the
insolvability-by-radicals-of-composition argument for x^x = a after the
double-log change of variables: the critical lattice of z + e^z, the
closed-form root oracle via Lambert W, contour-based root location,
explicit parameter loops, continuation tracking of root bundles, and
the permutations those loops induce on labeled roots.
"""

from .errors import MonoError, NumericalError, PreconditionError
from .lambertw import oracle_roots
from .paths import keyhole_loop
from .permutation import extract_permutation, group_order
from .rootsets import Window
from .rootwindow import find_roots
from .tracking import TrackConfig, track_bundle

__version__ = "0.1.0"

__all__ = [
    "MonoError",
    "NumericalError",
    "PreconditionError",
    "TrackConfig",
    "Window",
    "extract_permutation",
    "find_roots",
    "group_order",
    "keyhole_loop",
    "oracle_roots",
    "track_bundle",
]
