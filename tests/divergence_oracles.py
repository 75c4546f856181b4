"""Test oracles for the divergences.

``CLOSED_FORMS[name](p, q)`` is the exact D_f(p, q) of ``generator_catalog(name)``
on weight sequences p and q; :func:`chi_squared` is the Pearson sum, which
also fixes LW = chi2/4, HH = chi2/3 and the gap bracket of that generator.

:func:`csiszar`, :func:`lin_wong`, :func:`hh_divergence` and
:func:`gap_enclosure` are the straightforward per-quantity loops, one pass
over the support each, that ``divergence.divergence_report`` fuses into one:
it must agree with them bit for bit, since every sum takes the same terms in
the same order.  :func:`reference_report` runs them in the order the command
line once did (LW, HH, D_f, then the gap), so the first error raised is theirs.
The support check and the zero-mass slope rule they share are frozen copies
here, :func:`_pairs` and :func:`_slope_at_infinity`, so a change to the
library's shows too.
"""

import math

from grid_oracles import gap_bracket

from trapbound.divergence import _EQUAL_RATIO_TOL, DivergenceReport, UndefinedDivergenceError
from trapbound.pointwise import Enclosure


def _pairs(p, q):
    """The (p, q) weight pairs, as ``divergence_report`` checks and zips them."""
    if len(p) != len(q):
        raise ValueError(f"supports differ: {len(p)} vs {len(q)} points")
    return zip(p.weights, q.weights)


def _slope_at_infinity(g, qi):
    """The library's ``divergence._slope_at_infinity``: the slope that a term
    with p = 0 < q = ``qi`` needs, or the error for its absence."""
    if g.slope_at_infinity is None:
        raise UndefinedDivergenceError(f"generator {g.label!r} declares no slope at infinity; "
                                       f"term with p=0, q={qi} is undefined")
    return g.slope_at_infinity


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


def _csiszar_sum(g, pairs):
    """sum p f(q/p) over the (p, q) pairs, with the zero conventions of :func:`csiszar`."""
    fn = g.fn
    total = 0.0
    for pi, qi in pairs:
        if pi == 0.0:
            if qi != 0.0:
                total += qi * _slope_at_infinity(g, qi)
        else:
            total += pi * fn(qi / pi)
    return total


def csiszar(g, p, q):
    """Csiszar divergence sum_x p f(q/p), with the standard zero conventions:
    (p=0, q=0) contributes 0; (p=0, q>0) contributes q * slope_at_infinity."""
    return _csiszar_sum(g, _pairs(p, q))


def lin_wong(g, p, q):
    """Generalized Lin-Wong divergence D_f(p, (p+q)/2)."""
    return _csiszar_sum(g, zip(p.weights, [0.5 * (pi + qi) for pi, qi in _pairs(p, q)]))


def hh_divergence(g, p, q):
    """Hermite-Hadamard divergence sum_x p^2/(q-p) integral_1^{q/p} f, as a
    point enclosure from the generator's antiderivative."""
    F = g.antiderivative
    F1 = F(1.0)
    tail = total = 0.0
    for pi, qi in _pairs(p, q):
        if pi == 0.0:
            if qi != 0.0:
                tail += 0.5 * qi * _slope_at_infinity(g, qi)
        elif abs(qi - pi) > _EQUAL_RATIO_TOL * pi:
            total += pi * pi / (qi - pi) * (F(qi / pi) - F1)
    return Enclosure(total + tail, total + tail)


def gap_enclosure(g, p, q):
    """Certified bracket for D_f/2 - HH_f, one kernel call on the slope sums."""
    dplus, dminus = g.dplus, g.dminus
    d1p, d1m = dplus(1.0), dminus(1.0)
    # sums of w f'+(r_m), w f'-(r_m), w f'+(u) and w f'-(v), w = |q - p|
    sp = sm = su = sv = 0.0
    for pi, qi in _pairs(p, q):
        if pi == 0.0:
            if qi != 0.0 and _slope_at_infinity(g, qi) == math.inf:
                sv = math.inf  # v = q/p = inf, where f'-(v) is the slope
            continue
        rm = 0.5 * (pi + qi) / pi
        if rm == 1.0:
            continue  # q = p, or too close for a float to split [1, q/p]
        w = abs(qi - pi)
        sp += w * dplus(rm)
        sm += w * dminus(rm)
        r = qi / pi
        if r > 1.0:
            su += w * d1p
            sv += w * dminus(r)
        else:
            su += w * dplus(r)
            sv += w * d1m
    lo, hi = gap_bracket(0.25, 0.25, sp, sm, su, sv)
    return Enclosure(lo, max(hi, lo))


def reference_report(g, p, q):
    """The four loops above as one ``DivergenceReport``."""
    lw = lin_wong(g, p, q)
    hh = hh_divergence(g, p, q)
    cs = csiszar(g, p, q)
    return DivergenceReport(cs, lw, hh, gap_enclosure(g, p, q))
