"""f'', f''' and f'''' ranges of expressions, by interval arithmetic rounded outward
(Moore, Kearfott & Cloud, *Introduction to Interval Analysis*, SIAM 2009).

An interval is a tuple (lo, hi) of floats, and each operation of
:data:`OPS` rounds its result one ulp outward, which covers a rounding to
nearest or a faithful libm call.  Every operation is total: where it has no
finite bound (an end that overflows or is NaN, an argument outside the
domain on which the operation is C^2, a divisor that holds 0) it answers
(-inf, inf), and each operation passes (-inf, inf) on.  :class:`_RangeBody`
carries the ranges of f, f', ..., f^(K), K = 4, of each node of an
expression tree through these operations by forward mode, with one rule per
operation that gives order k from the orders up to k (Moore, *Methods and
Applications of Interval Analysis*, SIAM 1979, ch. 3; Griewank & Walther,
*Evaluating Derivatives*, 2008, ch. 13), compiled into one straight-line
Python function as :class:`trapbound.expr._Body` compiles f, whose code
object trees of one shape share (:func:`trapbound.expr._code`).  So an order
with no bound is (-inf, inf) and keeps the orders below it; f'' with none
is None, and nothing raises but :class:`trapbound.funcs.NonConvexityError`.

:func:`trapbound.expr.to_convex_function` imports this module when it is
first asked for an f'' range, so an interpreter that never integrates an
expression adaptively does not compile it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .expr import Binary, Const, Expression, Unary, Var, _Body, _code, _identity
from .funcs import NonConvexityError, _falling


K = 4  # the highest derivative order that quadrature._corrected_bracket reads
_ZERO, _ONE, _WHOLE = (0.0, 0.0), (1.0, 1.0), (-math.inf, math.inf)


def _out(lo: float, hi: float) -> tuple:
    """(lo, hi) one ulp outward, or (-inf, inf) where an end is not finite."""
    if -math.inf < lo <= hi < math.inf:
        return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return _WHOLE


def _imul(x, y) -> tuple:
    """The least and greatest products of the ends, rounding being monotone: a c and b d if both are >= 0."""
    (a, b), (c, d) = x, y
    if a >= 0.0 and c >= 0.0:
        return _out(a * c, b * d)
    lo = hi = a * c
    for p in (b * d,) if a == b or c == d else (a * d, b * c, b * d):
        lo, hi = (p if p < lo else lo), (p if p > hi else hi)
    return _out(lo, hi)


def _idiv(x, y) -> tuple:
    """x / y from the two quotients that bound it where y > 0, else as (-x) / (-y)."""
    (a, b), (c, d) = x, y
    if d < 0.0:
        return _idiv((-b, -a), (-d, -c))
    if not c > 0.0:  # the divisor holds 0
        return _WHOLE
    return _out(a / (d if a >= 0.0 else c), b / (c if b >= 0.0 else d))


def _ipow(x, p: float) -> tuple:
    """x^p for a constant p: x > 0 unless p is an integer, x excludes 0 if
    p < 0; an even power of an x around 0 has its least value 0."""
    lo, hi = x
    if not (lo > 0.0 or p.is_integer() and (p >= 0.0 or hi < 0.0)):
        return _WHOLE
    try:
        a, b = lo ** p, hi ** p
    except OverflowError:
        return _WHOLE
    return _out(0.0 if lo < 0.0 < hi and p % 2.0 == 0.0 else (b if b < a else a), b if b > a else a)


def _increasing(fn: Callable) -> Callable:
    """The interval form of an increasing libm function, (-inf, inf) where
    it overflows or an end leaves its domain."""

    def op(x) -> tuple:
        try:
            return _out(fn(x[0]), fn(x[1]))
        except (OverflowError, ValueError):
            return _WHOLE

    return op


def _isign(g, x) -> tuple:
    """x where g > 0 and -x where g < 0: the derivatives of |g| from those of g."""
    if g[0] > 0.0:
        return x
    return (-x[1], -x[0]) if g[1] < 0.0 else _WHOLE


OPS = {
    "_iadd": lambda x, y: _out(x[0] + y[0], x[1] + y[1]),
    "_isub": lambda x, y: _out(x[0] - y[1], x[1] - y[0]),
    "_ineg": lambda x: (-x[1], -x[0]),
    "_imul": _imul,
    "_idiv": _idiv,
    "_ipow": _ipow,
    "_iexp": _increasing(math.exp),
    "_ilog": _increasing(math.log),
    "_isqrt": _increasing(math.sqrt),
    "_ipos": lambda x: x if x[0] > 0.0 else _WHOLE,  # the argument of log or sqrt
    "_isign": _isign,
}
_IDENTITY_OPS = {"_iadd": "+", "_isub": "-", "_imul": "*"}


def _point(a):
    """The value of a known interval that is a point, else None."""
    return a[0] if isinstance(a, tuple) and a[0] == a[1] else None


class _RangeBody(_Body):
    """:class:`trapbound.expr._Body` with one rule per operation for the
    ranges of f, f', ..., f^(K)."""

    def iapply(self, helper: str, *args):
        """Interval ``helper`` of :data:`OPS` on ``args``: reduced by
        :func:`_identity` where an operand is the point 0 or 1, evaluated
        now if all are known."""
        op = _IDENTITY_OPS.get(helper)
        if op is not None:
            simpler = _identity(op, *args, _point)
            if simpler is not None:
                return (simpler, simpler) if isinstance(simpler, float) else simpler
        if str not in map(type, args):
            return OPS[helper](*args)
        return self.emit(helper + "({})".format(", ".join(["{}"] * len(args))), *args)

    def inode(self, e: Expression) -> list:
        """``[f, f', ..., f^(K)]`` of ``e`` as intervals over the cell
        ``t = (u, v)``, order k of each node from orders up to k of its
        operands.  An order with no bound is (-inf, inf), which each later
        operation passes on: every order of a node that is not C^2 on the
        cell (``abs`` of an argument holding 0, ``log`` or ``sqrt`` of one
        reaching 0, ``/`` by one holding 0, ``^`` off :func:`_ipow`'s
        domain), and order k alone where only it overflows or, for ``x^p``,
        where p - k rounds, k > 2.  Where p - 1 or p - 2 rounds it raises
        ArithmeticError when compiled, so that the tree gets no range."""
        if isinstance(e, Const):
            return [(e.value, e.value)] + [_ZERO] * K
        if isinstance(e, Var):
            return ["t", _ONE] + [_ZERO] * (K - 1)
        add, sub, mul, div = (functools.partial(self.iapply, h) for h in ("_iadd", "_isub", "_imul", "_idiv"))

        def fold(terms, step=add, start=_ZERO):
            # start step c_1 x_1 y_1 step c_2 x_2 y_2 ... over the (c, x, y) of terms, less those that are 0
            for c, x, y in terms:
                if _point(x) != 0.0 != _point(y):
                    xy = mul(x, y)
                    start = step(start, xy if c == 1 else mul((float(c),) * 2, xy))
            return start

        def solve(f, rhs, d, terms):
            # orders len(f) to K of f from d f_k = rhs_k - (the sum of terms(k, f)), each from those below
            for k in range(len(f), K + 1):
                f.append(div(fold(terms(k, f), sub, rhs[k]), d))
            return f

        C = math.comb
        if isinstance(e, Unary):
            a = self.inode(e.arg)
            if e.op == "neg":
                return [self.iapply("_ineg", x) for x in a]
            if e.op == "abs":
                return [self.iapply("_isign", a[0], x) for x in a]
            if e.op == "exp":
                # f' = a' f, carried as h = f / e^a: h_k = sum_(i<k) C(k-1, i) a_(i+1) h_(k-1-i)
                v, h = self.iapply("_iexp", a[0]), [_ONE]
                for k in range(1, K + 1):
                    h.append(fold((C(k - 1, i), a[i + 1], h[k - 1 - i]) for i in range(k)))
                return [v] + [mul(v, x) for x in h[1:]]
            a[0] = self.iapply("_ipos", a[0])
            if e.op == "log":  # a f' = a': a f_k = a_k - sum_(0<i<k) C(k-1, i) a_i f_(k-i)
                return solve([self.iapply("_ilog", a[0])], a, a[0],
                             lambda k, f: ((C(k - 1, i), a[i], f[k - i]) for i in range(1, k)))
            # f^2 = a: 2 f f_k = a_k - sum_(0<i<k) C(k, i) f_i f_(k-i), the terms i and k - i as one
            v = self.iapply("_isqrt", a[0])
            pairs = lambda k, f: (((2 - (2 * i == k)) * C(k, i), f[i], f[k - i])
                                  for i in range(1, k // 2 + 1))
            return solve([v], a, mul((2.0, 2.0), v), pairs)
        l, r = self.inode(e.left), self.inode(e.right)
        if e.op in ("+", "-"):
            return [(add if e.op == "+" else sub)(x, y) for x, y in zip(l, r)]
        if e.op == "*":  # Leibniz: (l r)_k = sum_(i<=k) C(k, i) l_(k-i) r_i
            return [fold((C(k, i), l[k - i], r[i]) for i in range(k + 1)) for k in range(K + 1)]
        if e.op == "/":  # q r = l: r q_k = l_k - sum_(0<i<=k) C(k, i) r_i q_(k-i)
            return solve([], l, r[0], lambda k, q: ((C(k, i), r[i], q[k - i]) for i in range(1, k + 1)))
        # l^p by Faa di Bruno: f_k = sum_j g_j B_(k,j), with g_j = p (p-1) ... (p-j+1) l^(p-j),
        # unbounded where p - j rounds, and the partial Bell polynomials of l_1, l_2, ...,
        # B_(n,j) = sum_i C(n-1, i-1) l_i B_(n-i,j-1)
        p = e.right.value
        power = lambda k: _ONE if k == 0.0 else (l[0] if k == 1.0 else self.iapply("_ipow", l[0], k))
        g, B = [None], [[_ONE]]
        for j in range(1, K + 1):
            if not math.fsum((p, -j, j - p)):
                g.append(mul(_falling(p, j), power(p - j)))
            elif j > 2:
                g.append(_WHOLE)
            else:
                raise ArithmeticError("p - 1 or p - 2 rounds")  # the tree gets no f'' range
        for n in range(1, K + 1):
            B.append([_ZERO] + [fold((C(n - 1, i - 1), l[i], B[n - i][j - 1]) for i in range(1, n - j + 2))
                                for j in range(1, n + 1)])
        return [power(p)] + [fold((1, g[j], B[k][j]) for j in range(k, 0, -1)) for k in range(1, K + 1)]


def compile_range(tree: Expression, label: str) -> Callable:
    """The ``_d2range`` of ``tree``: (u, v) -> (lo, hi, lo3, hi3, lo4, hi4,
    -inf, inf) with 0 <= lo <= f'' <= hi, lo3 <= f''' <= hi3 and
    lo4 <= f'''' <= hi4 on [u, v] and no f^(6) range, from one generated
    function of orders 2 to K of :meth:`_RangeBody.inode`.  An order with no
    bound is (-inf, inf), and so is each order after it; f'' with none gives
    None (everywhere if p - 1 or p - 2 of an exponent p rounds).  A range
    below 0 proves f is not convex on the cell and raises
    :class:`trapbound.funcs.NonConvexityError`, the one error it raises."""
    names = {"__builtins__": {}, "_FAULTS": (), **OPS}  # every operation is total: nothing to catch
    body = _RangeBody(names)
    try:
        source = body.source("r", *body.inode(tree)[2:])
    except ArithmeticError:
        return lambda u, v: None
    exec(_code(source), names)
    r = names.pop("r")

    def d2range(u: float, v: float):
        d2, *tops = r((u, v))
        if d2 == _WHOLE:
            return None
        lo, hi = d2
        if hi < 0.0:
            raise NonConvexityError(
                f"f'' of {label!r} lies in [{lo}, {hi}] on [{u}, {v}]; it is not convex there")
        out = (0.0 if 0.0 > lo else lo, hi)
        for top in tops:
            out += _WHOLE if out[-2:] == _WHOLE else top
        return out + _WHOLE

    return d2range
