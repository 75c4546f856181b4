"""Verified quadrature for convex functions via sharp generalized-trapezoid bounds.

Subpackages:

- :mod:`trapbound.funcs`: convex functions, one-sided derivatives, catalog
- :mod:`trapbound.pointwise`: single-interval gap and Hermite-Hadamard bounds;
  the paper's bracket at a split point x in [a, b], read in one place
- :mod:`trapbound.quadrature`: composite rules and the adaptive integrator
- :mod:`trapbound.probability`: expectation enclosures for monotone densities
- :mod:`trapbound.divergence`: Csiszar / Lin-Wong / HH divergences
- :mod:`trapbound.expr`: expression language for the CLI
- :mod:`trapbound.cli`: command-line front end
"""

from .funcs import ConvexFunction, Interval, catalog, check_convexity
from .pointwise import Enclosure, gap_enclosure, hh_bounds
from .quadrature import Partition, adaptive_integrate, integrate, uniform_partition

__all__ = [
    "ConvexFunction",
    "Interval",
    "catalog",
    "check_convexity",
    "Enclosure",
    "gap_enclosure",
    "hh_bounds",
    "Partition",
    "uniform_partition",
    "integrate",
    "adaptive_integrate",
]

__version__ = "0.1.0"
