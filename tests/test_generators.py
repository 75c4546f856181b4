"""The expression code generators against ``generator_oracles``, bit for bit.

``generator_oracles`` keeps the generators of f and its one-sided slopes
(``expr._Body``, ``expr._compile``) and of the f'', f''' and f'''' ranges
(``_ranges._RangeBody``, ``_ranges.compile_range``) as they were written
when the range generator built every order of every node and each identity
went through ``expr._identity``.  On any tree the library's f, f'+ and f'-
must return the same floats or raise the same error with the same message,
and its ``_d2range`` must give the same repr (None included; ``repr`` tells
-0.0 from 0.0) or the same :class:`~trapbound.funcs.NonConvexityError` text.
"""

import math

import generator_oracles as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapbound import _ranges, expr
from trapbound.expr import Binary, Const, Unary, Var, parse, to_string


def outcome(fn, *args):
    """The repr of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def compiled(compile_f, compile_range, tree):
    """(f, f'+, f'-, _d2range) of ``tree`` from these generators, or what
    compiling them raised."""
    try:
        return (*compile_f(tree), compile_range(tree, to_string(tree)))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same(tree, cells):
    """f, f'+ and f'- at the ends, the midpoint and the centre of each cell,
    and ``_d2range`` on each cell, from the library and from the oracle."""
    new = compiled(expr._compile, _ranges.compile_range, tree)
    old = compiled(oracle._compile, oracle.compile_range, tree)
    if isinstance(old, str):
        assert new == old, to_string(tree)
        return
    assert not isinstance(new, str), (to_string(tree), new)
    for u, v in cells:
        for t in (u, v, u + 0.5 * (v - u)):
            for mine, theirs in zip(new[:3], old[:3]):
                assert outcome(mine, t) == outcome(theirs, t), (to_string(tree), t)
        assert outcome(new[3], u, v) == outcome(old[3], u, v), (to_string(tree), u, v)


# ---------------------------------------------------------------------------
# Trees and cells
# ---------------------------------------------------------------------------

#: exponents at the edges of the power rule: a^0, a^1, the integral and the
#: fractional cases, and the two where p - 1 or p - 4 rounds
EXPONENTS = (0.0, 1.0, 2.0, 2.5, 1e16, 1.0 + 2.0 ** -52, 3.0, -1.0, -2.5)
CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e400, -1e400, 1e300]) | st.floats(-3.0, 3.0)


def trees(depth: int):
    """Expression trees of at most ``depth`` levels of operations, each
    function and operator among them; ``^`` has a constant exponent, as the
    parser makes it."""
    leaves = st.just(Var("x")) | CONSTANTS.map(Const)
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    return (leaves
            | st.builds(Unary, st.sampled_from(("neg", "exp", "log", "abs", "sqrt")), sub)
            | st.builds(Binary, st.sampled_from("+-*/"), sub, sub)
            | st.builds(lambda base, p: Binary("^", base, Const(p)), sub, st.sampled_from(EXPONENTS)))


#: widths from the least subnormal to 3
WIDTHS = st.sampled_from([5e-324, 1e-300, 2.0 ** -52, 1e-9, 1e-3, 0.1, 1.0, 3.0]) | st.floats(5e-324, 3.0)


@st.composite
def cells(draw):
    """A cell about a centre at 0, +-1e-300, 700 (exp near its overflow),
    710 (past it) or in [-3, 3]: a point, two adjacent floats, or a width
    on the centre's right or left."""
    c = draw(st.sampled_from([0.0, 1e-300, -1e-300, 700.0, 710.0]) | st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["point", "adjacent", "right", "left"]))
    if kind == "point":
        return c, c
    if kind == "adjacent":
        return c, math.nextafter(c, math.inf)
    w = draw(WIDTHS)
    return (c, c + w) if kind == "right" else (c - w, c)


@settings(max_examples=600, deadline=None)
@given(tree=trees(4), cells=st.lists(cells(), min_size=1, max_size=4))
def test_generators_match_the_oracle(tree, cells):
    assert_same(tree, cells)


#: the texts and cells of ``test_expr.TestD2Range``
D2RANGE_CASES = [
    ("abs(x - 0.3) + x^2", 0.0, 1.0), ("abs(x) + x^2", 0.0, 1.0), ("-log(x)", 0.0, 0.5),
    ("-log(x + 1)", -2.0, 0.5), ("-log(x)", -2.0, -1.0), ("-sqrt(x)", 0.0, 0.5), ("-sqrt(x + 1)", -2.0, 0.5),
    ("1/x", 0.0, 1.0), ("1/x", -1.0, 1.0), ("x^-2", -1.0, 1.0), ("x^1.5", 0.0, 1.0), ("x^2.5", -1.0, 1.0),
    ("exp(x)", 700.0, 800.0), ("exp(exp(x))", 6.0, 7.0), ("1e400*x^2", 0.0, 1.0),
    ("exp(exp(x))", math.log(695.0), math.log(695.0) + 1e-9),
    (f"x^{-(2.0 ** 52 - 2.5)!r}", 1.0, 1.0 + 2.0 ** -52),
    ("exp(exp(x))", math.log(690.0), math.log(690.0) + 1e-9), (f"x^{1.0 + 2.0 ** -52!r}", 1.0, 2.0),
    ("-x^2", 0.25, 0.5), ("-exp(x)", 0.25, 0.5), ("x^2 - 3*x^2", 0.25, 0.5),
    ("x*log(x)", 0.1, 2.0), ("abs(x - 0.3) + x^2", 0.0, 0.25), ("abs(x - 0.3) + x^2", 0.5, 1.0),
    ("exp(0.123*zeta) + zeta^2.5 - log(zeta)", 1.0, 1.5),
    ("sqrt(1 + x^2)", -2.0, 2.0), ("exp(x^2)", -1.0, 1.0), ("1/(2 - x^2)", -1.0, 1.0), ("(x-1)^2/x", 0.5, 3.0),
]


@pytest.mark.parametrize("src, u, v", D2RANGE_CASES)
def test_d2range_cases_match_the_oracle(src, u, v):
    assert_same(parse(src), [(u, v), (u, u), (v, v), (u, u + 0.5 * (v - u))])


# ---------------------------------------------------------------------------
# What the range generator emits
# ---------------------------------------------------------------------------


def range_lines(monkeypatch, module, src):
    """The lines ``module.compile_range`` emits for ``src``."""
    lines = []
    emit = module._RangeBody.emit

    def spy(self, template, *operands):
        lines.append(template)
        return emit(self, template, *operands)

    monkeypatch.setattr(module._RangeBody, "emit", spy)
    module.compile_range(parse(src), src)
    monkeypatch.undo()
    return lines


@pytest.mark.parametrize("src, before", [("x^2", 4), ("x^2 + 0.3*x", 7), ("3*x", 1)])
def test_constant_ranges_emit_no_line(monkeypatch, src, before):
    # the orders 0 and 1, which no range returns, and the powers whose
    # falling coefficient is 0 were lines of the generator before
    assert len(range_lines(monkeypatch, oracle, src)) == before
    assert range_lines(monkeypatch, _ranges, src) == []


def test_only_nonzero_terms_are_generated(monkeypatch):
    # x^2.5: f_k = g_k B_(k,k), one power and one product per order 2..4;
    # the oracle also makes x^2.5 and 2.5 x^1.5, which no range reads
    assert len(range_lines(monkeypatch, _ranges, "x^2.5")) == 6
    assert len(range_lines(monkeypatch, oracle, "x^2.5")) == 9
