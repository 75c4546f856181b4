"""Test oracle for the expression code generators: ``trapbound.expr``'s
``_Body`` (with ``node``, ``apply`` and ``source``) and ``_compile``, which
write f and its one-sided slopes as straight-line Python, and
``trapbound._ranges``' ``_RangeBody`` and ``compile_range``, which write the
f'', f''' and f'''' ranges, with the interval operations they run, as they
were written before the range generator read each order of a node on demand
and tested identities by tuple comparison.  This generator builds every
order of every node and reduces identities through ``_identity``.

The library's ``_compile`` must give f, f'+ and f'- that return the same
floats and raise the same errors with the same messages, and its
``compile_range`` a ``_d2range`` with the same repr (None included) or the
same :class:`~trapbound.funcs.NonConvexityError` text, as the functions
here.  The private helpers they call (``_identity``, ``_out``, ``_falling``,
``_power`` and the rest) are frozen copies, so that a change to the
library's shows too.  The code below is verbatim but for this docstring,
the imports and the section comments.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from collections import Counter
from typing import Callable

from trapbound.expr import Binary, Const, EvalError, Expression, Unary, Var, eval_expr, to_string
from trapbound.funcs import NonConvexityError

# ---------------------------------------------------------------------------
# trapbound.expr
# ---------------------------------------------------------------------------


def _exp(v: float, e: Unary) -> float:
    try:
        return math.exp(v)
    except OverflowError as exc:
        raise EvalError(f"exp overflow in {to_string(e)}") from exc


def _log(v: float, e: Unary) -> float:
    if v <= 0:
        raise EvalError(f"log of nonpositive value {v} in {to_string(e)}")
    return math.log(v)


def _sqrt(v: float, e: Unary) -> float:
    if v < 0:
        raise EvalError(f"sqrt of negative value {v} in {to_string(e)}")
    return math.sqrt(v)


def _divide(lv: float, rv: float, e: Binary) -> float:
    if rv == 0:
        raise EvalError(f"division by zero in {to_string(e)}")
    return lv / rv


def _power(lv: float, rv: float, e: Binary) -> float:
    if lv == 0 and rv < 0:
        raise EvalError(f"zero raised to negative power in {to_string(e)}")
    if lv < 0 and rv != int(rv):
        raise EvalError(f"negative base with non-integer exponent in {to_string(e)}")
    try:
        return lv ** rv
    except OverflowError as exc:
        raise EvalError(f"overflow in {to_string(e)}") from exc


#: Each operation on floats, given its node last for the error message; a
#: singularity raises :class:`EvalError`.
_OPS = {"neg": lambda v, e: -v, "exp": _exp, "log": _log, "abs": lambda v, e: abs(v), "sqrt": _sqrt,
        "+": lambda lv, rv, e: lv + rv, "-": lambda lv, rv, e: lv - rv,
        "*": lambda lv, rv, e: lv * rv, "/": _divide, "^": _power}



def _identity(op: str, left, right, known):
    """What ``left op right`` reduces to by 0 + a, a + 0, a - 0, 0 * a, a * 0,
    1 * a, a * 1, a^1 and a^0 = 1, or None; ``known`` gives an operand's
    constant value or None.  The constants 0 and 1 come back as floats."""
    lv, rv = known(left), known(right)
    if op == "+" and lv == 0:
        return right
    if op in ("+", "-") and rv == 0:
        return left
    if op == "*" and 0 in (lv, rv):
        return 0.0
    if op == "*" and lv == 1:
        return right
    if op in ("*", "^") and rv == 1:
        return left
    return 1.0 if op == "^" and rv == 0 else None



_TEMPLATES = {"neg": "-{}", "exp": "_exp({})", "log": "_log({})", "abs": "_abs({})",
              "sqrt": "_sqrt({})", "+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
              "/": "{} / {}", "^": "{} ** {}"}


@functools.lru_cache(maxsize=1024)
def _identifier(prefix: str, i: int) -> str:
    # cached, so a name stays interned between compiles; a compile that
    # interned it afresh would churn CPython's table, which then grows ~400 KB
    return sys.intern(f"{prefix}{i}")


@functools.lru_cache(maxsize=256)
def _code(source: str) -> types.CodeType:
    # one source per tree shape; each tree execs it under its own globals
    return compile(source, "<expression>", "exec")


class _Body:
    """Statements of generated functions of ``t``.  An operand is a float
    known at compile time or a local's name; floats and nodes are bound as
    globals, so no expression text reaches the source."""

    def __init__(self, names: dict):
        self.names = names
        self.lines: list = []  # (local, template, operand names)
        self.kinked = False

    def ref(self, operand) -> str:
        if isinstance(operand, str):
            return operand
        name = _identifier("k", len(self.names))
        self.names[name] = operand
        return name

    def emit(self, template: str, *operands) -> str:
        name = _identifier("v", len(self.lines))
        self.lines.append((name, template, [self.ref(o) for o in operands]))
        return name

    def source(self, name: str, *roots) -> str:
        """``def name(t)`` returning the one root, or the tuple of several: a
        value used once is written into its user, one used more often gets a
        local, and an unused one is dropped.  Where a line raises one of the
        global ``_FAULTS``, it returns ``name_fault(t)``."""
        roots = [self.ref(r) for r in roots]
        live = set(roots)
        for line in reversed(self.lines):
            if line[0] in live:
                live.update(line[2])
        lines = [line for line in self.lines if line[0] in live]
        uses = Counter(roots + [r for line in lines for r in line[2]])
        text: dict = {}
        body = ""
        for target, template, refs in lines:
            rhs = template.format(*(text.get(r, r) for r in refs))
            if uses[target] == 1:
                # a helper's call (its template starts with the helper's
                # name) is written in bare: redundant parentheses slow
                # compile() by about a tenth
                text[target] = rhs if template[0] == "_" else f"({rhs})"
            else:
                body += f"        {target} = {rhs}\n"
        value = ", ".join(text.get(r, r) for r in roots)
        return (f"def {name}(t):\n    try:\n{body}        return {value}\n"
                f"    except _FAULTS:\n        return {name}_fault(t)\n")

    def apply(self, op: str, node: Expression, *args, fold: bool = False):
        """``op`` on ``args``, evaluated now if all are known; with ``fold``,
        :func:`_identity` drops the terms a constant 0 or 1 makes trivial (2*x has slope 2.0)."""
        known = [a for a in args if isinstance(a, float)]
        if len(known) == len(args):
            try:
                return _OPS[op](*args, node)
            except EvalError:
                pass
        elif fold and known:
            simpler = _identity(op, *args, lambda a: a if isinstance(a, float) else None)
            if simpler is not None:
                return simpler
        if op == "^" and not (isinstance(args[1], float) and args[1].is_integer()):
            b, p = self.ref(args[0]), self.ref(args[1])  # a positive base needs no check
            return self.emit("{} ** {} if {} > 0.0 else _power({}, {}, {})", b, p, b, b, p, node)
        return self.emit(_TEMPLATES[op], *args)

    def node(self, e: Expression) -> tuple:
        """``(value, slope)`` of ``e`` by forward mode; the slope is f'+ where
        the global ``_side`` is 1.0 and f'- where it is -1.0.  Smooth nodes
        apply the chain rule; ``|g|`` takes sign(g) times the slope of g away
        from a zero of g, and at one d+|g| = |d+g|, d-|g| = -|d-g|."""
        if isinstance(e, Const):
            return e.value, 0.0
        if isinstance(e, Var):
            return "t", 1.0
        arith = lambda op, a, b: self.apply(op, e, a, b, fold=True)
        if isinstance(e, Unary):
            u, du = self.node(e.arg)
            v = self.apply(e.op, e, u)
            if e.op == "neg":
                return v, self.apply("neg", e, du)
            if e.op == "exp":
                return v, arith("*", v, du)
            if e.op == "log":
                return v, arith("/", du, u)
            if e.op == "sqrt":
                return v, arith("/", du, arith("*", 2.0, v))
            self.kinked = True
            return v, self.emit("{} if {} > 0 else (-{} if {} < 0 else _side * _abs({}))",
                                du, u, du, u, du)
        if isinstance(e, Binary):
            (l, dl), (r, dr) = self.node(e.left), self.node(e.right)
            v = self.apply(e.op, e, l, r)
            if e.op in ("+", "-"):
                return v, arith(e.op, dl, dr)
            if e.op == "*":
                return v, arith("+", arith("*", dl, r), arith("*", l, dr))
            if e.op == "/":
                num = arith("-", arith("*", dl, r), arith("*", l, dr))
                return v, arith("/", num, arith("^", r, 2.0))
            assert isinstance(e.right, Const), "parser guarantees constant exponents"
            return v, arith("*", arith("*", r, arith("^", l, r - 1.0)), dl)
        raise TypeError(f"not an expression node: {e!r}")


def _compile(tree: Expression, slopes: bool = True) -> tuple:
    """``(f, f'+, f'-)`` of ``tree`` as generated straight-line Python, from
    the code object of :func:`_code` that every tree of its shape shares;
    f'+ and f'- run one code under globals that differ only in ``_side``, or
    are None without ``slopes`` (a density).  f equals :func:`eval_expr` bit
    for bit: math.log, math.sqrt, math.exp, ``/`` and ``**`` raise exactly
    where eval_expr refuses a value, but a base that is not > 0 goes through
    its ``_power`` under a non-integral exponent (``**`` gives a negative
    base a complex result), and a point that raised is handed back
    to eval_expr, so every message comes from its checks."""

    def d_fault(t):
        eval_expr(tree, t)  # f's own EvalError where f is singular at t
        raise EvalError(f"slope of {to_string(tree)} is undefined at {t}")

    names = {"__builtins__": {}, "_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt,
             "_abs": abs, "_power": _power, "_side": 1.0,
             "_FAULTS": (ArithmeticError, ValueError),
             "f_fault": functools.partial(eval_expr, tree), "d_fault": d_fault}
    body = _Body(names)
    value, slope = body.node(tree)
    exec(_code(body.source("f", value) + (body.source("d", slope) if slopes else "")), names)
    # popped, so that the functions and their globals form no reference cycle
    f, dplus = names.pop("f"), names.pop("d", None)
    if dplus is None or not body.kinked:
        return f, dplus, dplus
    return f, dplus, types.FunctionType(dplus.__code__, dict(names, _side=-1.0))



# ---------------------------------------------------------------------------
# trapbound.funcs
# ---------------------------------------------------------------------------


def _falling(p: float, j: int) -> tuple:
    """p (p - 1) ... (p - j + 1) as an interval rounded outward, a point where it is a float: the
    coefficient of the j-th derivative of t^p in the catalog and in :mod:`trapbound._ranges`."""
    n, d = p.as_integer_ratio()
    num, den = math.prod(n - i * d for i in range(j)), d ** j
    c = num / den
    cn, cd = c.as_integer_ratio()
    return (c, c) if cn * den == num * cd else (math.nextafter(c, -math.inf), math.nextafter(c, math.inf))


# ---------------------------------------------------------------------------
# trapbound._ranges
# ---------------------------------------------------------------------------


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
