"""f'', f''' and f'''' ranges of expressions, by interval arithmetic rounded outward
(Moore, Kearfott & Cloud, *Introduction to Interval Analysis*, SIAM 2009).

An interval is a tuple (lo, hi) of finite floats, and each operation of
:data:`OPS` rounds its result one ulp outward, which covers a rounding to
nearest or a faithful libm call.  A result that overflows or is NaN, and an
argument outside the domain on which the operation is C^2, raise
ArithmeticError.  :class:`_RangeBody` carries
``(value, slope, f'', f''', f'''')`` of each node of an expression tree
through these operations by forward mode, compiled into one straight-line
Python function as :class:`trapbound.expr._Body` compiles f, whose code
object trees of one shape share (:func:`trapbound.expr._code`).  A fault in
the f'''' chain alone leaves the f'' and f''' ranges and an unbounded
f'''' range; one in the f''' chain leaves the f'' range alone.

:func:`trapbound.expr.to_convex_function` imports this module when it is
first asked for an f'' range, so an interpreter that never integrates an
expression adaptively does not compile it.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

from .expr import Binary, Const, Expression, Unary, Var, _Body, _code, _identity
from .quadrature import ConvexityViolationError


def _out(lo: float, hi: float) -> tuple:
    if not -math.inf < lo <= hi < math.inf:
        raise OverflowError("interval bound not finite")
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _iproducts(x, y, op) -> tuple:
    p = (op(x[0], y[0]), op(x[0], y[1]), op(x[1], y[0]), op(x[1], y[1]))
    return _out(min(p), max(p))


def _idiv(x, y) -> tuple:
    if not (y[0] > 0.0 or y[1] < 0.0):
        raise ArithmeticError("divisor interval holds 0")
    return _iproducts(x, y, operator.truediv)


def _ipow(x, p: float) -> tuple:
    """x^p for a constant p: x > 0 unless p is an integer, x excludes 0 if
    p < 0; an even power of an x around 0 has its least value 0."""
    lo, hi = x
    if not (lo > 0.0 or p.is_integer() and (p >= 0.0 or hi < 0.0)):
        raise ArithmeticError("power not C^2 on the interval")
    a, b = lo ** p, hi ** p
    return _out(0.0 if lo < 0.0 < hi and p % 2.0 == 0.0 else min(a, b), max(a, b))


def _isign(g, x) -> tuple:
    """x where g > 0 and -x where g < 0: the derivatives of |g| from those of g."""
    if g[0] > 0.0:
        return x
    if g[1] < 0.0:
        return -x[1], -x[0]
    raise ArithmeticError("abs argument interval holds 0")


def _ipos(x) -> tuple:
    if not x[0] > 0.0:
        raise ArithmeticError("log or sqrt argument interval reaches 0")
    return x


OPS = {
    "_iadd": lambda x, y: _out(x[0] + y[0], x[1] + y[1]),
    "_isub": lambda x, y: _out(x[0] - y[1], x[1] - y[0]),
    "_ineg": lambda x: (-x[1], -x[0]),
    "_imul": lambda x, y: _iproducts(x, y, operator.mul),
    "_idiv": _idiv,
    "_ipow": _ipow,
    "_iexp": lambda x: _out(math.exp(x[0]), math.exp(x[1])),
    "_ilog": lambda x: _out(math.log(x[0]), math.log(x[1])),
    "_isqrt": lambda x: _out(math.sqrt(x[0]), math.sqrt(x[1])),
    "_ipos": _ipos,
    "_isign": _isign,
}
_IDENTITY_OPS = {"_iadd": "+", "_isub": "-", "_imul": "*"}


def _point(a):
    """The value of a known interval that is a point, else None."""
    return a[0] if isinstance(a, tuple) and a[0] == a[1] else None


_ZERO, _ONE, _TWO, _THREE, _FOUR, _SIX, _EIGHT = ((k, k) for k in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0))


class _RangeBody(_Body):
    """:class:`trapbound.expr._Body` with the rules of f'', f''' and f'''' ranges."""

    def iapply(self, helper: str, *args):
        """Interval ``helper`` of :data:`OPS` on ``args``: reduced by
        :func:`_identity` where an operand is the point 0 or 1, evaluated
        now if all are known (a failure is left to the generated code)."""
        op = _IDENTITY_OPS.get(helper)
        if op is not None:
            simpler = _identity(op, *args, _point)
            if simpler is not None:
                return (simpler, simpler) if isinstance(simpler, float) else simpler
        if str not in map(type, args):
            try:
                return OPS[helper](*args)
            except ArithmeticError:
                pass
        return self.emit(helper + "({})".format(", ".join(["{}"] * len(args))), *args)

    def inode(self, e: Expression) -> tuple:
        """``(value, slope, f'', f''', f'''')`` of ``e`` as intervals over
        the cell ``t = (u, v)``.  A node that is not C^2 on the cell raises
        at run time: ``abs`` of an argument holding 0, ``log`` or ``sqrt`` of
        one reaching 0, ``/`` by one holding 0, and ``^`` off
        :func:`_ipow`'s domain.  The f''' chain, and after it the f''''
        chain, shares the nodes of the others and raises alone where only it
        fails: where it overflows, and for ``x^p`` with p - 3 (p - 4)
        rounding."""
        if isinstance(e, Const):
            return (e.value, e.value), _ZERO, _ZERO, _ZERO, _ZERO
        if isinstance(e, Var):
            return "t", _ONE, _ZERO, _ZERO, _ZERO
        add, sub, mul, div = (functools.partial(self.iapply, h) for h in ("_iadd", "_isub", "_imul", "_idiv"))
        if isinstance(e, Unary):
            u, du, ddu, dddu, d4u = self.inode(e.arg)
            if e.op == "neg":
                return tuple(self.iapply("_ineg", x) for x in (u, du, ddu, dddu, d4u))
            if e.op == "abs":
                return tuple(self.iapply("_isign", u, x) for x in (u, du, ddu, dddu, d4u))
            if e.op == "exp":
                # (e^u)''' = e^u (u''' + 3 u' u'' + u'^3), and
                # (e^u)'''' = e^u (u'''' + 4 u' u''' + 3 u''^2 + 6 u'^2 u'' + u'^4)
                v, du2 = self.iapply("_iexp", u), mul(du, du)
                d4 = add(add(add(d4u, mul(_FOUR, mul(du, dddu))), mul(_THREE, mul(ddu, ddu))),
                         add(mul(_SIX, mul(du2, ddu)), mul(du2, du2)))
                return (v, mul(v, du), mul(v, add(ddu, du2)),
                        mul(v, add(add(dddu, mul(_THREE, mul(du, ddu))), mul(du, du2))), mul(v, d4))
            u = self.iapply("_ipos", u)
            if e.op == "log":
                # (log u)''' = (u''' - 2 (log u)'' u' - (log u)' u'')/u, and
                # (log u)'''' = (u'''' - 3 ((log u)''' u' + (log u)'' u'') - (log u)' u''')/u
                d = div(du, u)
                dd = div(sub(ddu, mul(d, du)), u)
                ddd = div(sub(sub(dddu, mul(_TWO, mul(dd, du))), mul(d, ddu)), u)
                return (self.iapply("_ilog", u), d, dd, ddd,
                        div(sub(sub(d4u, mul(_THREE, add(mul(ddd, du), mul(dd, ddu)))), mul(d, dddu)), u))
            # (sqrt u)'' = (u'' - 2 (sqrt u)'^2) / (2 sqrt u),
            # (sqrt u)''' = (u''' - 6 (sqrt u)' (sqrt u)'') / (2 sqrt u), and
            # (sqrt u)'''' = (u'''' - 8 (sqrt u)' (sqrt u)''' - 6 (sqrt u)''^2) / (2 sqrt u)
            v = self.iapply("_isqrt", u)
            v2 = mul(_TWO, v)
            d = div(du, v2)
            dd = div(sub(ddu, mul(_TWO, mul(d, d))), v2)
            ddd = div(sub(dddu, mul(_SIX, mul(d, dd))), v2)
            return v, d, dd, ddd, div(sub(sub(d4u, mul(_EIGHT, mul(d, ddd))), mul(_SIX, mul(dd, dd))), v2)
        (l, dl, ddl, dddl, d4l), (r, dr, ddr, dddr, d4r) = self.inode(e.left), self.inode(e.right)
        if e.op in ("+", "-"):
            step = add if e.op == "+" else sub
            return step(l, r), step(dl, dr), step(ddl, ddr), step(dddl, dddr), step(d4l, d4r)
        if e.op == "*":
            # (l r)''' = l''' r + 3 (l'' r' + l' r'') + l r''', and
            # (l r)'''' = l'''' r + 4 (l''' r' + l' r''') + 6 l'' r'' + l r''''
            return (mul(l, r), add(mul(dl, r), mul(l, dr)),
                    add(add(mul(ddl, r), mul(_TWO, mul(dl, dr))), mul(l, ddr)),
                    add(add(mul(dddl, r), mul(_THREE, add(mul(ddl, dr), mul(dl, ddr)))), mul(l, dddr)),
                    add(add(add(mul(d4l, r), mul(_FOUR, add(mul(dddl, dr), mul(dl, dddr)))),
                            mul(_SIX, mul(ddl, ddr))), mul(l, d4r)))
        if e.op == "/":
            # q = l/r: q' = (l' - q r')/r, q'' = (l'' - 2 q' r' - q r'')/r,
            # q''' = (l''' - 3 (q'' r' + q' r'') - q r''')/r, and
            # q'''' = (l'''' - 4 (q''' r' + q' r''') - 6 q'' r'' - q r'''')/r
            q = div(l, r)
            d = div(sub(dl, mul(q, dr)), r)
            dd = div(sub(sub(ddl, mul(_TWO, mul(d, dr))), mul(q, ddr)), r)
            ddd = div(sub(sub(dddl, mul(_THREE, add(mul(dd, dr), mul(d, ddr)))), mul(q, dddr)), r)
            return q, d, dd, ddd, div(sub(sub(sub(d4l, mul(_FOUR, add(mul(ddd, dr), mul(d, dddr)))),
                                                  mul(_SIX, mul(dd, ddr))), mul(q, d4r)), r)
        p = e.right.value
        if p in (0.0, 1.0):
            return (l, dl, ddl, dddl, d4l) if p else (_ONE, _ZERO, _ZERO, _ZERO, _ZERO)
        if math.fsum((p, -1.0, 1.0 - p)) or math.fsum((p, -2.0, 2.0 - p)):
            raise ArithmeticError("p - 1 or p - 2 rounds")  # the tree gets no f'' range
        power = lambda k: _ONE if k == 0.0 else (l if k == 1.0 else self.iapply("_ipow", l, k))
        fault = lambda: self.iapply("_ipos", _ZERO)  # a line that always faults
        c2 = mul((p, p), sub((p, p), _ONE))  # p (p-1)
        c3 = mul(c2, sub((p, p), _TWO))  # p (p-1) (p-2)
        d1 = mul((p, p), power(p - 1.0))  # p l^(p-1)
        d2 = mul(c2, power(p - 2.0))  # p (p-1) l^(p-2)
        # p (p-1) (p-2) l^(p-3), 0 for p = 2, and p (p-1) (p-2) (p-3) l^(p-4),
        # 0 for p = 2 and 3: a fault where p - 3 rounds, and the second also
        # where p - 4 rounds
        r3, r4 = (math.fsum((p, -k, k - p)) for k in (3.0, 4.0))
        d3 = fault() if r3 else (_ZERO if p == 2.0 else mul(c3, power(p - 3.0)))
        if r3 or r4:
            d4 = fault()
        else:
            d4 = _ZERO if p in (2.0, 3.0) else mul(mul(c3, sub((p, p), _THREE)), power(p - 4.0))
        dl2 = mul(dl, dl)
        # (l^p)''' = d3 l'^3 + 3 d2 l' l'' + d1 l''', and
        # (l^p)'''' = d4 l'^4 + 6 d3 l'^2 l'' + d2 (3 l''^2 + 4 l' l''') + d1 l''''
        return (power(p), mul(d1, dl), add(mul(d2, dl2), mul(d1, ddl)),
                add(add(mul(d3, mul(dl, dl2)), mul(_THREE, mul(d2, mul(dl, ddl)))), mul(d1, dddl)),
                add(add(add(mul(d4, mul(dl2, dl2)), mul(_SIX, mul(d3, mul(dl2, ddl)))),
                        mul(d2, add(mul(_THREE, mul(ddl, ddl)), mul(_FOUR, mul(dl, dddl))))), mul(d1, d4l)))


_WHOLE = (-math.inf, math.inf)


def compile_range(tree: Expression, label: str) -> Callable:
    """The ``_d2range`` of ``tree``: (u, v) -> (lo, hi, lo3, hi3, lo4, hi4)
    with 0 <= lo <= f'' <= hi, lo3 <= f''' <= hi3 and lo4 <= f'''' <= hi4
    on [u, v], from one generated function of :meth:`_RangeBody.inode`, or
    None where the tree is not C^2 there (everywhere if p - 1 or p - 2 of
    an exponent p rounds); lo4, hi4 are -inf, inf where only the f''''
    chain fails, and lo3, hi3 too where the f''' chain fails.  A range
    below 0 proves f is not convex on the cell and raises
    :class:`ConvexityViolationError`."""
    names = {"__builtins__": {}, "_FAULTS": (ArithmeticError, ValueError),
             "r_fault": lambda t: None, **OPS}
    body = _RangeBody(names)
    try:
        source = body.source("r", *body.inode(tree)[2:])
    except ArithmeticError:
        return lambda u, v: None
    exec(_code(source), names)
    r = names.pop("r")

    def d2range(u: float, v: float):
        d = r((u, v))
        if d is None:
            return None
        (lo, hi), d3, d4 = d
        if hi < 0.0:
            raise ConvexityViolationError(
                f"f'' of {label!r} lies in [{lo}, {hi}] on [{u}, {v}]; it is not convex there")
        return (max(lo, 0.0), hi) + (d3 or _WHOLE) + (d4 or _WHOLE)

    return d2range
