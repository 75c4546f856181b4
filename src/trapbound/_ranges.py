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
object trees of one shape share (:func:`trapbound.expr._code`), generating
only the orders that the root's f'' to f^(K) and the nonzero terms read.
So an order with no bound is (-inf, inf) and keeps the orders below it; f''
with none is None, and nothing raises but :class:`trapbound.funcs.NonConvexityError`.

:func:`trapbound.expr.to_convex_function` imports this module when it is
first asked for an f'' range, so an interpreter that never integrates an
expression adaptively does not compile it.
"""

from __future__ import annotations

import math
from typing import Callable

from .expr import Const, Expression, Unary, Var, _Body, _code
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


class _Orders(dict):
    """A node's orders (or its Bell polynomials), each made by ``rule(self, key)`` when first read: a rule
    reads the orders it makes through ``self``, not a closure, so that rules and orders form no cycle."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable):
        self.rule = rule

    def __missing__(self, key):
        self[key] = value = self.rule(self, key)
        return value


class _RangeBody(_Body):
    """:class:`trapbound.expr._Body` with one rule per operation for the ranges of f, f', ..., f^(K).
    A known interval equal to (0.0, 0.0) or (1.0, 1.0) is the point 0 or 1; a local's name equals no tuple."""

    def iapply(self, helper: str, *args):  # helper of OPS on args, evaluated now if all are known
        if str not in map(type, args):
            return OPS[helper](*args)
        return self.emit(helper + ("({})" if len(args) == 1 else "({}, {})"), *args)

    def add(self, x, y):  # 0 + y is y and x + 0 is x
        return y if x == _ZERO else x if y == _ZERO else self.iapply("_iadd", x, y)

    def sub(self, x, y):  # x - 0 is x
        return x if y == _ZERO else self.iapply("_isub", x, y)

    def mul(self, x, y):  # 0 where a factor is 0, the other factor where one is 1
        if x == _ZERO or y == _ZERO:
            return _ZERO
        return y if x == _ONE else x if y == _ONE else self.iapply("_imul", x, y)

    def inode(self, e: Expression):
        """Orders 0 to K of ``e`` over the cell ``t = (u, v)``, each made on
        first read from the orders up to k of the operands, a term's cheap
        factor (a Bell polynomial, a falling coefficient, a Leibniz or
        ``solve`` operand) first and the other only where that is not 0.  An
        order with no bound is (-inf, inf), which later operations pass on:
        every order of a node not C^2 on the cell (``abs`` of an argument
        holding 0, ``log`` or ``sqrt`` of one reaching 0, ``/`` by one holding
        0, ``^`` off :func:`_ipow`'s domain), and order k alone where only it
        overflows or, for ``x^p``, where p - k rounds, k > 2."""
        if isinstance(e, Const):
            return [(e.value, e.value)] + [_ZERO] * K
        if isinstance(e, Var):
            return ["t", _ONE] + [_ZERO] * (K - 1)
        add, sub, mul, iapply, C = self.add, self.sub, self.mul, self.iapply, math.comb

        def fold(terms, step=add, start=_ZERO):
            # start step c_1 x_1 y_1 step c_2 x_2 y_2 ... over the (c, x, y) of terms, less those that are 0
            for c, x, y in terms:
                xy = mul(x, y)
                if xy != _ZERO:
                    start = step(start, xy if c == 1 else mul((float(c),) * 2, xy))
            return start

        def solve(rhs, d, first, terms):
            # f[-1] = d(f), f_0 = first(f), and f_k from f[-1] f_k = rhs_k - (the sum of terms(f, k))
            return _Orders(lambda f, k: iapply("_idiv", fold(terms(f, k), sub, rhs[k]), f[-1]) if k > 0
                           else first(f) if k == 0 else d(f))

        if isinstance(e, Unary):
            a = self.inode(e.arg)
            if e.op == "neg":
                return _Orders(lambda _, k: iapply("_ineg", a[k]))
            if e.op == "abs":
                return _Orders(lambda _, k: iapply("_isign", a[0], a[k]))
            if e.op == "exp":
                # f' = a' f, carried as h = f / e^a: h_k = sum_(i<k) C(k-1, i) a_(i+1) h_(k-1-i)
                h = _Orders(lambda h, k: fold((C(k - 1, i), x, h[k - 1 - i]) for i in range(k)
                                              if (x := a[i + 1]) != _ZERO) if k else _ONE)
                return _Orders(lambda f, k: mul(f[0], h[k]) if k else iapply("_iexp", a[0]))
            if e.op == "log":  # a f' = a': a f_k = a_k - sum_(0<i<k) C(k-1, i) a_i f_(k-i)
                return solve(a, lambda f: iapply("_ipos", a[0]), lambda f: iapply("_ilog", f[-1]), lambda f, k: (
                    (C(k - 1, i), x, f[k - i]) for i in range(1, k) if (x := a[i]) != _ZERO))
            # f^2 = a: 2 f f_k = a_k - sum_(0<i<k) C(k, i) f_i f_(k-i), the terms i and k - i as one
            f0 = lambda f: iapply("_isqrt", iapply("_ipos", a[0]))
            return solve(a, lambda f: mul((2.0, 2.0), f[0]), f0, lambda f, k: (
                ((2 - (2 * i == k)) * C(k, i), x, f[k - i]) for i in range(1, k // 2 + 1) if (x := f[i]) != _ZERO))
        l, r = self.inode(e.left), self.inode(e.right)
        if e.op in ("+", "-"):
            step = add if e.op == "+" else sub
            return _Orders(lambda _, k: step(l[k], r[k]))
        if e.op == "*":  # Leibniz: (l r)_k = sum_(i<=k) C(k, i) l_(k-i) r_i
            return _Orders(lambda _, k: fold((C(k, i), x, r[i]) for i in range(k + 1) if (x := l[k - i]) != _ZERO))
        if e.op == "/":  # q r = l: r q_k = l_k - sum_(0<i<=k) C(k, i) r_i q_(k-i)
            return solve(l, lambda q: r[0], lambda q: iapply("_idiv", l[0], r[0]), lambda q, k: (
                (C(k, i), x, q[k - i]) for i in range(1, k + 1) if (x := r[i]) != _ZERO))
        # l^p by Faa di Bruno: f_k = sum_j g_j B_(k,j), with g_j = p (p-1) ... (p-j+1) l^(p-j),
        # unbounded where p - j rounds, and the partial Bell polynomials of l_1, l_2, ...,
        # B_(n,j) = sum_i C(n-1, i-1) l_i B_(n-i,j-1)
        p = e.right.value
        if math.fsum((p, -1, 1 - p)) or math.fsum((p, -2, 2 - p)):
            raise ArithmeticError("p - 1 or p - 2 rounds")  # the tree gets no f'' range
        power = lambda k: _ONE if k == 0.0 else (l[0] if k == 1.0 else iapply("_ipow", l[0], k))
        g = _Orders(lambda _, j: _WHOLE if math.fsum((p, -j, j - p)) else  # g_j
                    _ZERO if (c := _falling(p, j)) == _ZERO else mul(c, power(p - j)))

        @_Orders
        def B(B, nj):  # B[n, j] is B_(n,j)
            n, j = nj
            if j == 0:
                return _ZERO if n else _ONE
            return fold((C(n - 1, i - 1), x, B[n - i, j - 1]) for i in range(1, n - j + 2) if (x := l[i]) != _ZERO)

        return _Orders(lambda _, k: fold((1, g[j], b) for j in range(k, 0, -1) if (b := B[k, j]) != _ZERO)
                       if k else power(p))


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
        orders = body.inode(tree)
    except ArithmeticError:
        return lambda u, v: None
    exec(_code(body.source(r=[orders[k] for k in range(2, K + 1)])), names)
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
