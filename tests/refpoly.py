"""Reference polynomial parser, written as recursive descent as the grammar
reads:

    expr   = sign* term (("+" | "-") term)*
    term   = factor ("*" factor)*
    factor = base ("^" numeral)?
    base   = numeral ("/" numeral)? | name | "(" expr ")"

``betabern.poly.parse_poly`` reads the same grammar in one loop with an
explicit stack, so its nesting is not bounded by the interpreter's stack.
The reference here takes four frames per parenthesis.  Tests compare the
two on texts shallow enough for the recursion: values and ``PolyError``
messages, token positions included.
"""

from __future__ import annotations

from fractions import Fraction

from betabern.poly import Poly, _poly_tokens
from betabern.terms import PolyError


def parse_poly(src: str, allowed_vars=None) -> Poly:
    tokens = _poly_tokens(src)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def fail(msg):
        raise PolyError(f"{msg} (at token {pos}: {peek()[1]!r})")

    def parse_expr() -> Poly:
        sign = 1
        while peek()[0] == "op" and peek()[1] in "+-":
            if advance()[1] == "-":
                sign = -sign
        acc = parse_term().scale(sign)
        while peek()[0] == "op" and peek()[1] in "+-":
            op = advance()[1]
            term = parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term() -> Poly:
        acc = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            advance()
            acc = acc * parse_factor()
        return acc

    def parse_factor() -> Poly:
        base = parse_base()
        if peek()[0] == "op" and peek()[1] == "^":
            advance()
            if peek()[0] != "nat":
                fail("expected an exponent")
            text = advance()[1]
            e = int(text)
            if e >> 32:
                raise PolyError(f"exponent {text} is 2^32 or more")
            out = Poly.const(1)
            while e:  # by repeated squaring
                if e & 1:
                    out = out * base
                e >>= 1
                if e:
                    base = base * base
            return out
        return base

    def parse_base() -> Poly:
        kind, text = peek()
        if kind == "nat":
            advance()
            if peek()[0] == "op" and peek()[1] == "/":
                advance()
                if peek()[0] != "nat":
                    fail("expected a denominator")
                den = int(advance()[1])
                if den == 0:
                    fail("zero denominator")
                return Poly.const(Fraction(int(text), den))
            return Poly.const(int(text))
        if kind == "ident":
            advance()
            if allowed_vars is not None and text not in allowed_vars:
                raise PolyError(f"unknown polynomial variable {text!r}")
            return Poly.var(text)
        if kind == "op" and text == "(":
            advance()
            inner = parse_expr()
            if not (peek()[0] == "op" and peek()[1] == ")"):
                fail("expected ')'")
            advance()
            return inner
        fail("expected a number, variable, or '('")

    out = parse_expr()
    if peek()[0] != "end":
        fail("trailing input")
    return out
