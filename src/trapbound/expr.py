"""Tiny expression language for functions entered as text on the CLI.

Grammar (precedence high to low): ``^`` with a constant exponent (one that
does not mention the variable; it is evaluated when parsed, and must be
finite), unary minus,
``*`` ``/``, ``+`` ``-``; same-precedence binary operators associate left.
Functions: ``exp``, ``log``, ``abs``, ``sqrt``.  One free variable, read
from the text: the first identifier that does not call a function, so
``t^2`` is a function of ``t``; a function name is never the variable, and
a second name is an unknown identifier.  A name is letters, ``_`` and
decimal digits, not starting with a digit; any other character, such as
the ² of ``x²``, refuses the text where it stands.  Evaluation reports
singularities as errors, each operation through one table of checked float
operations.

:func:`to_convex_function` compiles a tree once into straight-line Python:
f itself, and forward-mode slope functions that carry ``(value, slope)``
through each node, which give the exact one-sided derivatives f'+ and f'-,
``abs`` included.  On the first adaptive cell it also compiles, from the
same tree and with the same :class:`_Body`, the interval evaluator of
:mod:`trapbound._ranges`, which carries f, f', ..., f^(K), K = 4, as
intervals rounded outward over a cell, by one rule per operation for all
orders: the f'', f''' and f'''' ranges that let the adaptive integrator's
cells grow like eps^-1/5 where the tree is C^4.  It answers None on a cell
where the tree is not C^2, such as one holding the kink of an ``abs``, and
an infinite f''' or f'''' range where it is C^2 or C^3 alone.  Constants are
globals of the generated code, so trees of one shape share one code object
per process (:func:`_code`).
"""

from __future__ import annotations

import functools
import math
import re
import sys
import types
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .funcs import ConvexFunction, EvaluationError


class ParseError(ValueError):
    """Syntax error; carries a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvalError(ArithmeticError, EvaluationError):
    """Singularity or undefined value during evaluation; an
    :class:`~trapbound.funcs.EvaluationError` too, so a caller can catch it
    without importing this module."""


class Token(NamedTuple):
    kind: str  # number | identifier | operator | paren
    text: str
    position: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # neg | exp | log | abs | sqrt
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Expression"
    right: "Expression"


Expression = Union[Const, Var, Unary, Binary]

FUNCTIONS = ("exp", "log", "abs", "sqrt")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

# one token per match, spaces skipped between matches; an unnamed match is a
# character no token starts with
_SCANNER = re.compile(r"(?P<number>(?=\.?\d)[\d.]+(?:[eE][+-]?\d+)?)|(?P<identifier>[^\W\d]\w*)"
                      r"|(?P<operator>[-+*/^])|(?P<paren>[()])|\S")


def tokenize(src: str) -> list[Token]:
    tokens = []
    for m in _SCANNER.finditer(src):
        kind, text, pos = m.lastgroup, m.group(), m.start() + 1
        if kind == "identifier" and not text.isalpha():
            # \w also takes numeric characters that are not decimal digits (², ½, Ⅻ);
            # one that starts a name is a malformed number if str.isdigit() (², ①)
            i = next((i for i, c in enumerate(text) if not (c.isalpha() or c == "_" or c.isdecimal())), len(text))
            if i < len(text):
                kind, text, pos = ("number" if i == 0 and text[0].isdigit() else None), text[i], pos + i
        if kind is None:
            raise ParseError(f"unexpected character {text!r}", pos)
        if kind == "number":
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", pos) from None
        tokens.append(Token(kind, text, pos))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], end: int):
        self.tokens = tokens
        self.pos = 0
        self.end = end  # position just past the input, for EOF errors
        self.variable = None  # the first identifier that does not call a function
        self.variables = 0  # occurrences of the variable parsed so far

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.position)
        return tok

    def parse_sum(self, floor: int = 1) -> Expression:
        """Operands joined by the binary operators of precedence ``floor`` or
        above; operators of one precedence associate left."""
        node = self.parse_unary()
        while (tok := self.peek()) and tok.kind == "operator" and (prec := _PRECEDENCE[tok.text]) >= floor:
            self.next()
            node = Binary(tok.text, node, self.parse_sum(prec + 1))
        return node

    def parse_unary(self) -> Expression:
        tok = self.next()
        if tok.text == "-":
            inner = self.parse_unary()
            # negative literals parse to constants so rendering round-trips
            return Const(-inner.value) if isinstance(inner, Const) else Unary("neg", inner)
        base = self.parse_atom(tok)
        if not ((tok := self.peek()) and tok.text == "^"):
            return base
        self.next()
        exp_tok = self.peek()
        seen = self.variables
        exponent = self.parse_unary()
        try:
            if self.variables > seen:
                raise EvalError("the exponent mentions the variable")
            value = eval_expr(exponent, 0.0)
            if not math.isfinite(value):
                raise EvalError("the exponent is not finite")
        except EvalError:
            raise ParseError("exponent must be a constant", exp_tok.position) from None
        return Binary("^", base, Const(value))

    def parse_atom(self, tok: Token) -> Expression:
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.text == "(":
            inner = self.parse_sum()
            self.expect(")")
            return inner
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.position)
                self.next()
                arg = self.parse_sum()
                self.expect(")")
                return Unary(tok.text, arg)
            if self.variable is None and tok.text not in FUNCTIONS:
                self.variable = tok.text
            if tok.text == self.variable:
                self.variables += 1
                return Var(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.position)
        raise ParseError(f"unexpected token {tok.text!r}", tok.position)


def parse(src: str) -> Expression:
    """Parse ``src`` into an expression tree; its one free variable is the
    first identifier that does not call a function."""
    tokens = tokenize(src)
    if not tokens:
        raise ParseError("empty expression", 1)
    parser = _Parser(tokens, len(src) + 1)
    tree = parser.parse_sum()
    tail = parser.peek()
    if tail is not None:
        raise ParseError(f"trailing input {tail.text!r}", tail.position)
    return tree


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


def eval_expr(e: Expression, t: float) -> float:
    """Evaluate at ``t``; singularities raise :class:`EvalError` naming the culprit."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Unary):
        return _OPS[e.op](eval_expr(e.arg, t), e)
    if isinstance(e, Binary):
        return _OPS[e.op](eval_expr(e.left, t), eval_expr(e.right, t), e)
    raise TypeError(f"not an expression node: {e!r}")


def _format_number(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v).replace("inf", "1e999")  # a literal that parses back; inf would name the variable


def to_string(e: Expression) -> str:
    """Render so that ``parse(to_string(e))`` is structurally equal to ``e``."""
    return _render(e, 0)


def _render(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Const):
        text = _format_number(e.value)
        if e.value < 0 and parent_prec > 0:
            return f"({text})"
        return text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = _render(e.arg, _PRECEDENCE["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return f"{e.op}({_render(e.arg, 0)})"
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        # left associative: right child of same precedence needs parens
        left = _render(e.left, prec)
        right = _render(e.right, prec + 1)
        text = f"{left} {e.op} {right}" if e.op != "^" else f"{left}^{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

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
        self.lines.append((name, template, [o if type(o) is str else self.ref(o) for o in operands]))
        return name

    def source(self, **functions) -> str:
        """``def name(t)`` for each ``name=roots``, returning the one root or the tuple of
        several: a value the function uses once is written into its user, one used more
        often gets a local, and one it does not use is dropped; one backward pass counts the
        uses in every function.  Where a line raises a global ``_FAULTS``, it returns ``name_fault(t)``."""
        ends = [(name, None, [self.ref(r) for r in roots]) for name, roots in functions.items()]
        uses = [{name: 1} for name in functions]  # each function's uses, its return first
        for target, _, refs in reversed(self.lines + ends):
            for counts in uses:
                if target in counts:
                    for r in refs:
                        counts[r] = counts.get(r, 0) + 1
        source = ""
        for (name, _, roots), counts in zip(ends, uses):
            text, body = {}, ""
            for target, template, refs in self.lines:
                if target in counts:
                    rhs = template.format(*map(text.get, refs, refs))
                    if counts[target] == 1:
                        # a helper's call (its template starts with the helper's
                        # name) is written in bare: redundant parentheses slow
                        # compile() by about a tenth
                        text[target] = rhs if template[0] == "_" else f"({rhs})"
                    else:
                        body += f"        {target} = {rhs}\n"
            source += (f"def {name}(t):\n    try:\n{body}        return {', '.join(map(text.get, roots, roots))}\n"
                       f"    except _FAULTS:\n        return {name}_fault(t)\n")
        return source

    def apply(self, op: str, node: Expression, *args):
        """``op`` on ``args``, evaluated now if all are known."""
        if str not in map(type, args):
            try:
                return _OPS[op](*args, node)
            except EvalError:
                pass
        if op == "^" and not (isinstance(args[1], float) and args[1].is_integer()):
            b, p = self.ref(args[0]), self.ref(args[1])  # a positive base needs no check
            return self.emit("{} ** {} if {} > 0.0 else _power({}, {}, {})", b, p, b, b, p, node)
        return self.emit(_TEMPLATES[op], *args)

    def arith(self, op: str, node: Expression, a, b):
        """:meth:`apply`, less 0 + b, a + 0, a - 0, 0 * b, a * 0, 1 * b, a * 1,
        a^1 and a^0 = 1 where one operand is known (2*x has slope 2.0)."""
        if str in (type(a), type(b)):  # a local's name equals no number
            if op == "*" and (a == 0 or b == 0):
                return 0.0
            if a == 1 and op == "*" or a == 0 and op == "+":
                return b
            if b == 1 and op in "*^" or b == 0 and op in "+-":
                return a
            if b == 0 and op == "^":
                return 1.0
        return self.apply(op, node, a, b)

    def node(self, e: Expression) -> tuple:
        """``(value, slope)`` of ``e`` by forward mode; the slope is f'+ where
        the global ``_side`` is 1.0 and f'- where it is -1.0.  Smooth nodes
        apply the chain rule; ``|g|`` takes sign(g) times the slope of g away
        from a zero of g, and at one d+|g| = |d+g|, d-|g| = -|d-g|."""
        if isinstance(e, Const):
            return e.value, 0.0
        if isinstance(e, Var):
            return "t", 1.0
        apply, arith = self.apply, self.arith
        if isinstance(e, Unary):
            op, (u, du) = e.op, self.node(e.arg)
            v = apply(op, e, u)
            if op == "neg":
                return v, apply(op, e, du)
            if op == "exp":
                return v, arith("*", e, v, du)
            if op == "log":
                return v, arith("/", e, du, u)
            if op == "sqrt":
                return v, arith("/", e, du, arith("*", e, 2.0, v))
            self.kinked = True
            return v, self.emit("{} if {} > 0 else (-{} if {} < 0 else _side * _abs({}))",
                                du, u, du, u, du)
        if isinstance(e, Binary):
            op, (l, dl), (r, dr) = e.op, self.node(e.left), self.node(e.right)
            v = apply(op, e, l, r)
            if op in ("+", "-"):
                return v, arith(op, e, dl, dr)
            if op == "*":
                return v, arith("+", e, arith("*", e, dl, r), arith("*", e, l, dr))
            if op == "/":
                num = arith("-", e, arith("*", e, dl, r), arith("*", e, l, dr))
                return v, arith("/", e, num, arith("^", e, r, 2.0))
            assert isinstance(e.right, Const), "parser guarantees constant exponents"
            return v, arith("*", e, arith("*", e, r, arith("^", e, l, r - 1.0)), dl)
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
    exec(_code(body.source(f=[value], d=[slope]) if slopes else body.source(f=[value])), names)
    # popped, so that the functions and their globals form no reference cycle
    f, dplus = names.pop("f"), names.pop("d", None)
    if dplus is None or not body.kinked:
        return f, dplus, dplus
    return f, dplus, types.FunctionType(dplus.__code__, dict(names, _side=-1.0))


def to_function(src: str) -> Callable[[float], float]:
    """Compile expression text into a function of one float, as for a density."""
    return _compile(parse(src), slopes=False)[0]


def to_convex_function(src: str, interval):
    """Build a :class:`trapbound.funcs.ConvexFunction` from expression text,
    compiled once per shape and process, with the exact one-sided slopes as
    derivative oracles and the interval f'', f''' and f'''' ranges of
    :func:`trapbound._ranges.compile_range`, compiled on first use, as its
    ``_d2range``.  Convexity is NOT inferred here; run
    ``funcs.check_convexity``."""
    tree = parse(src)
    f, dplus, dminus = _compile(tree)
    r = None

    def d2range(u: float, v: float):
        nonlocal r
        if r is None:
            from ._ranges import compile_range  # deferred: checks and fixed partitions never ask

            r = compile_range(tree, src)
        return r(u, v)

    return ConvexFunction(interval, f, dplus, dminus, src, _d2range=d2range)
