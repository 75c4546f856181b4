"""Closed-form Csiszar divergences of the catalog generators, as test oracles.

``CLOSED_FORMS[name](p, q)`` is the exact D_f(p, q) of ``generator_catalog(name)``
on weight sequences p and q; :func:`chi_squared` is the Pearson sum, which
also fixes LW = chi2/4, HH = chi2/3 and the gap bracket of that generator.
"""

import math


def chi_squared(p, q):
    """Pearson chi-squared sum (q-p)^2 / p over two distributions."""
    return _chi_squared(p.weights, q.weights)


def _chi_squared(p, q):
    return math.fsum((qi - pi) ** 2 / pi for pi, qi in zip(p, q) if pi > 0)


CLOSED_FORMS = {
    "chi_squared": _chi_squared,
    "kl": lambda p, q: math.fsum(qi * math.log(qi / pi) for pi, qi in zip(p, q) if qi > 0),
    "total_variation": lambda p, q: math.fsum(abs(qi - pi) for pi, qi in zip(p, q)),
    "hellinger": lambda p, q: math.fsum(
        (math.sqrt(qi) - math.sqrt(pi)) ** 2 for pi, qi in zip(p, q)
    ),
}
