"""One-sided finite-difference derivative estimates, as a test oracle.

:func:`finite_difference_derivative` brackets f'+ or f'- of any callable by
shrinking difference quotients, with a monotonicity check that convexity
implies; the tests use it to cross-check exact derivative oracles.
"""

from typing import NamedTuple

from trapbound.funcs import DEFAULT_TOL, ConvexFunction, DomainError, NonConvexityError


class DerivativeEstimate(NamedTuple):
    """A numerical one-sided derivative with an a-posteriori bracket."""

    value: float
    side: str
    uncertainty: float
    method: str


def finite_difference_derivative(
    f,
    x: float,
    side: str,
    h0: float,
    levels: int,
    tol: float = DEFAULT_TOL,
) -> DerivativeEstimate:
    """One-sided derivative estimate by geometrically shrinking difference quotients.

    Steps h0, h0/2, ..., h0/2^(levels-1) are used; the quotient at the
    smallest step is returned, with uncertainty equal to the gap to the
    second-smallest quotient.  For convex f the right quotients are
    nonincreasing and the left quotients nondecreasing as h shrinks; a
    violation of this beyond ``tol`` (relative to the quotient magnitude)
    raises :class:`NonConvexityError`.

    ``f`` may be a :class:`ConvexFunction` or a plain callable.
    """
    if h0 <= 0:
        raise ValueError(f"h0 must be positive, got {h0}")
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sign = 1.0 if side == "right" else -1.0
    evaluate = f if callable(f) and not isinstance(f, ConvexFunction) else f.__call__
    if isinstance(f, ConvexFunction):
        far = x + sign * h0
        if not f.domain.contains(far) or not f.domain.contains(x):
            raise DomainError(
                f"step sequence from {x} with h0={h0} ({side}) leaves [{f.domain.a}, {f.domain.b}]"
            )

    fx = evaluate(x)
    quotients = []
    samples = [abs(fx)]
    h = h0
    h_min = h0
    for _ in range(levels):
        fxh = evaluate(x + sign * h)
        samples.append(abs(fxh))
        quotients.append(sign * (fxh - fx) / h)
        h_min = h
        h *= 0.5

    scale = max(1.0, max(abs(q) for q in quotients))
    # cancellation noise in the finest quotient is ~ eps * |f| / h
    noise = 64.0 * 2.220446049250313e-16 * max(samples) / h_min
    slack = tol * scale + noise
    for a, b in zip(quotients, quotients[1:]):
        drift = (b - a) if side == "right" else (a - b)
        if drift > slack:
            raise NonConvexityError(
                f"{side} difference quotients at x={x} are not monotone "
                f"(violation {drift:.3e} > tol {slack:.3e}); f may not be convex"
            )

    uncertainty = abs(quotients[-1] - quotients[-2])
    return DerivativeEstimate(quotients[-1], side, uncertainty, "finite-difference")
