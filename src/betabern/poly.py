"""Multivariate polynomials with exact rational coefficients.

The carrier for all denotational computations: values of terms under the
functional interpretation, Bernstein basis elements, and chain moment
matrices.  No floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .terms import MAX_NUMERAL_DIGITS, PolyError


class Poly:
    """Polynomial over named variables, as ``{exponent tuple: coefficient}``.

    Normal form invariants: variables are sorted and each occurs with a
    positive exponent in at least one monomial; no zero coefficients are
    stored.  Equality is therefore plain structural equality.

    Every operation returns a value already in normal form: it works on
    sorted, aligned variables, drops zero coefficients as it goes and then
    drops only the variables whose exponents all became 0.  :meth:`make`
    is the entry point for untrusted input (unsorted variables, repeated or
    zero terms, non-``Fraction`` coefficients).  Values are never mutated,
    so operations may return an operand unchanged.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]):
        self.vars = vars
        self.terms = terms

    @staticmethod
    def make(vars, terms) -> Poly:
        """Build and normalize from possibly unsorted/sparse data."""
        vars = tuple(vars)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff:
                _accumulate(cleaned, tuple(exps), coeff)
        if not cleaned:
            return Poly((), {})
        used = [any(column) for column in zip(*cleaned)]
        order = sorted((v, i) for i, v in enumerate(vars) if used[i])
        new_vars = tuple(v for v, _ in order)
        if new_vars == vars:
            return Poly(vars, cleaned)
        idx = [i for _, i in order]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in cleaned.items():
            _accumulate(out, tuple(exps[i] for i in idx), coeff)
        return Poly(new_vars, out)

    @staticmethod
    def const(value) -> Poly:
        value = Fraction(value)
        return Poly((), {(): value}) if value else Poly((), {})

    @staticmethod
    def var(name: str) -> Poly:
        return Poly((name,), {(1,): Fraction(1)})

    @staticmethod
    def zero() -> Poly:
        return Poly((), {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _aligned(self, other: Poly):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return union, _spread(self, union), _spread(other, union)

    def _plus(self, other: Poly, negate: bool) -> Poly:
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        union, a, b = self._aligned(other)
        out = dict(a)
        for exps, coeff in b.items():
            _accumulate(out, exps, -coeff if negate else coeff)
        return _drop_unused(union, out)

    def __add__(self, other: Poly) -> Poly:
        return self._plus(other, False)

    def __neg__(self) -> Poly:
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self._plus(other, True)

    def __mul__(self, other: Poly) -> Poly:
        if not self.terms or not other.terms:
            return Poly.zero()
        if not other.vars:
            return self.scale(other.terms[()])
        if not self.vars:
            return other.scale(self.terms[()])
        union, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                _accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        # Q[vars] has no zero divisors: the degree in each variable of the
        # product is the sum of the factors' degrees, so none drops out
        return Poly(union, out)

    def scale(self, factor) -> Poly:
        if not self.terms:
            return self
        if not isinstance(factor, Fraction):
            factor = Fraction(factor)
        if not factor:
            return Poly.zero()
        if factor == 1:
            return self
        return Poly(self.vars, {e: c * factor for e, c in self.terms.items()})

    def degree(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def eval(self, values: dict[str, Fraction]) -> Fraction:
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise PolyError(f"no value for {missing}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            prod = coeff
            for e, v in zip(exps, self.vars):
                if e:
                    prod *= Fraction(values[v]) ** e
            total += prod
        return total

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def _spread(p: Poly, union: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """The terms of ``p`` re-keyed over ``union``, a sorted superset of its vars."""
    if p.vars == union:
        return p.terms
    pos = [union.index(v) for v in p.vars]
    out = {}
    for exps, coeff in p.terms.items():
        key = [0] * len(union)
        for e, target in zip(exps, pos):
            key[target] = e
        out[tuple(key)] = coeff
    return out


def _accumulate(out: dict, key: tuple[int, ...], value: Fraction) -> None:
    """Add a nonzero ``value`` at ``key``, keeping ``out`` free of zero coefficients."""
    s = out.get(key)
    if s is None:
        out[key] = value
        return
    s += value
    if s:
        out[key] = s
    else:
        del out[key]


def _drop_unused(vars: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]) -> Poly:
    """The Poly of sorted ``vars`` and zero-free ``terms``, less the
    variables no monomial uses.  Keys stay distinct: only all-zero columns go."""
    if not terms:
        return Poly((), {})
    keep = [i for i, column in enumerate(zip(*terms)) if any(column)]
    if len(keep) == len(vars):
        return Poly(vars, terms)
    return Poly(tuple(vars[i] for i in keep),
                {tuple(exps[i] for i in keep): c for exps, c in terms.items()})


def monomial(vars_exps: dict[str, int]) -> Poly:
    """The monomial with the given variable exponents, coefficient 1."""
    items = sorted((v, e) for v, e in vars_exps.items() if e)
    return Poly(tuple(v for v, _ in items),
                {tuple(e for _, e in items): Fraction(1)}) if items else Poly.const(1)


def format_poly(p: Poly) -> str:
    """Canonical text: monomials in graded-lexicographic descending order."""
    if p.is_zero():
        return "0"
    keyed = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    parts = []
    for exps, coeff in keyed:
        factors = [f"{v}^{e}" if e > 1 else v
                   for v, e in zip(p.vars, exps) if e]
        if not factors:
            body = str(coeff)
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        sign = "-" if coeff < 0 else "+"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def parse_poly(src: str, allowed_vars=None) -> Poly:
    """Parse ``a*b^2 + 1/2 - q`` style polynomial text."""
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

    try:
        out = parse_expr()
    except RecursionError:
        raise PolyError(f"polynomial {src[:40]!r}... is nested too deeply") from None
    if peek()[0] != "end":
        fail("trailing input")
    return out


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_POLY_TOKEN_RE = re.compile(
    rf"(?P<ident>{NAME_RE.pattern})|(?P<nat>[0-9]+)|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _poly_tokens(src: str):
    tokens = []
    for m in _POLY_TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise PolyError(f"unexpected character {m.group()!r} in polynomial")
        if m.lastgroup == "nat" and len(m.group()) > MAX_NUMERAL_DIGITS:
            raise PolyError(f"numeral of {len(m.group())} digits exceeds the limit of "
                            f"{MAX_NUMERAL_DIGITS} in polynomial")
        tokens.append((m.lastgroup, m.group()))
    tokens.append(("end", ""))
    return tokens
