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

The names of ``__all__`` are resolved on first access (PEP 562): importing
the package imports none of its modules, and ``trapbound.integrate`` imports
only :mod:`trapbound.quadrature` and what it needs.  A submodule becomes an
attribute of the package only once it is imported: ``import
trapbound.quadrature`` (or ``from trapbound import quadrature``) comes before
``trapbound.quadrature.adaptive_integrate``.
"""

import importlib

#: Each exported name and the module it lives in.
_HOMES = {
    "ConvexFunction": "funcs",
    "Interval": "funcs",
    "catalog": "funcs",
    "check_convexity": "funcs",
    "Enclosure": "pointwise",
    "gap_enclosure": "pointwise",
    "hh_bounds": "pointwise",
    "Partition": "quadrature",
    "uniform_partition": "quadrature",
    "integrate": "quadrature",
    "adaptive_integrate": "quadrature",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
