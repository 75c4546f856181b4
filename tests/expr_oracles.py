"""Test oracle for the expression front end: the hand-written tokenizer and
the recursive-descent parser ladder (``parse_sum``, ``parse_product``,
``parse_unary``, ``parse_power``, ``parse_atom``) as they were written
before ``trapbound.expr`` took one scanner regex and one operator loop, and
before it read the free variable from the text.

Here the variable is still a parameter, default ``x``.  The library's
:func:`trapbound.expr.parse` must give the same tree, or a ParseError with
the same text and position, as :func:`parse` called with the variable
:func:`variable_of` names.  The code below is verbatim but for this
docstring, the imports and :func:`variable_of`.
"""

import math

from trapbound.expr import (
    FUNCTIONS,
    Binary,
    Const,
    EvalError,
    Expression,
    ParseError,
    Token,
    Unary,
    Var,
    eval_expr,
)

_OPERATORS = "+-*/^"


def variable_of(tokens: list) -> str:
    """The first identifier that is neither a function name nor followed by
    ``(``, else ``x``: the variable the library reads from the same text."""
    for tok, nxt in zip(tokens, tokens[1:] + [None]):
        if tok.kind == "identifier" and tok.text not in FUNCTIONS and not (nxt and nxt.text == "("):
            return tok.text
    return "x"


def tokenize(src: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", pos) from None
            tokens.append(Token("number", text, pos))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("identifier", src[i:j], pos))
            i = j
        elif ch in _OPERATORS:
            tokens.append(Token("operator", ch, pos))
            i += 1
        elif ch in "()":
            tokens.append(Token("paren", ch, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], variable: str, end: int):
        self.tokens = tokens
        self.variable = variable
        self.pos = 0
        self.end = end  # position just past the input, for EOF errors
        self.variables = 0  # occurrences of the variable parsed so far

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str) -> Token:
        tok = self.next()
        if tok.kind != kind or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.position)
        return tok

    def parse_sum(self) -> Expression:
        node = self.parse_product()
        while (tok := self.peek()) and tok.kind == "operator" and tok.text in "+-":
            self.next()
            rhs = self.parse_product()
            node = Binary(tok.text, node, rhs)
        return node

    def parse_product(self) -> Expression:
        node = self.parse_unary()
        while (tok := self.peek()) and tok.kind == "operator" and tok.text in "*/":
            self.next()
            rhs = self.parse_unary()
            node = Binary(tok.text, node, rhs)
        return node

    def parse_unary(self) -> Expression:
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.text == "-":
            self.next()
            inner = self.parse_unary()
            # negative literals parse to constants so rendering round-trips
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("neg", inner)
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.text == "^":
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
                raise ParseError("exponent must be a constant", exp_tok.position if exp_tok else self.end) from None
            return Binary("^", base, Const(value))
        return base

    def parse_atom(self) -> Expression:
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "paren" and tok.text == "(":
            inner = self.parse_sum()
            self.expect("paren", ")")
            return inner
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt and nxt.kind == "paren" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.position)
                self.next()
                arg = self.parse_sum()
                self.expect("paren", ")")
                return Unary(tok.text, arg)
            if tok.text == self.variable:
                self.variables += 1
                return Var(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.position)
        raise ParseError(f"unexpected token {tok.text!r}", tok.position)


def parse(src: str, variable: str = "x") -> Expression:
    """Parse ``src`` into an expression tree with one free variable."""
    tokens = tokenize(src)
    if not tokens:
        raise ParseError("empty expression", 1)
    parser = _Parser(tokens, variable, len(src) + 1)
    tree = parser.parse_sum()
    tail = parser.peek()
    if tail is not None:
        raise ParseError(f"trailing input {tail.text!r}", tail.position)
    return tree
