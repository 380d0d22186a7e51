"""Reference evaluator, written the long way as the semantics reads.

``betabern.semantics._Walk`` evaluates a term in one integer walk over its
shared nodes: a value is one int denominator and an int numerator per
packed monomial, and the exact sweep loads every monomial argument of a
variable at once, each under its own tag.  The reference here recurses
over the term on ``Poly`` values with ``Fraction`` coefficients, and its
sweep builds one argument vector per monomial.  Tests compare the two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from betabern.poly import Poly, monomial
from betabern.semantics import FuncArg, standard_formals, zero_args
from betabern.terms import Context, Nu, ParamChoice, RatioChoice, Term, TermError, VarApp


def interpret(t: Term, args: dict[str, FuncArg]) -> Poly:
    """Value of ``t`` on polynomial arguments, a polynomial in the free
    parameters."""
    return _interp(t, args, {})


def _interp(t: Term, args: dict[str, FuncArg], memo: dict[int, Poly]) -> Poly:
    # a node's value ignores its surroundings, so shared subterms are
    # evaluated once
    cached = memo.get(id(t))
    if cached is not None:
        return cached
    if isinstance(t, VarApp):
        arg = args[t.var]
        if len(arg.formals) != len(t.args):
            raise TermError(f"arity mismatch at {t}")
        out = arg.poly if not t.args else _compose(arg.poly, arg.formals, t.args)
    elif isinstance(t, RatioChoice):
        wl, wr = _ratio_weights(t.i, t.j)
        out = _interp(t.left, args, memo).scale(wl) + _interp(t.right, args, memo).scale(wr)
    elif isinstance(t, ParamChoice):
        right = _interp(t.right, args, memo)
        diff = _interp(t.left, args, memo) - right
        out = right + Poly.var(t.param) * diff if diff.terms else right
    elif isinstance(t, Nu):
        body = _interp(t.body, args, memo)
        out = _integrate_out(body, t.param, lambda e: _moment(t.i, t.j, e))
    else:
        raise TermError(f"not a term: {t!r}")
    memo[id(t)] = out
    return out


def _compose(p: Poly, formals: tuple[str, ...], actuals: tuple[str, ...]) -> Poly:
    """``p`` with formal number s renamed to actual number s; a repeated
    actual adds the exponents of its formals (the diagonal substitution)."""
    rename = dict(zip(formals, actuals))
    targets = sorted(set(actuals))
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        key = [0] * len(targets)
        for e, v in zip(exps, p.vars):
            key[targets.index(rename[v])] += e
        terms[tuple(key)] = terms.get(tuple(key), 0) + coeff
    return Poly.make(targets, terms)


def _integrate_out(p: Poly, name: str, moment) -> Poly:
    """``p`` with ``name^e`` replaced by ``moment(e)`` in every monomial."""
    if name not in p.vars:
        return p.scale(moment(0))
    i = p.vars.index(name)
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        key = exps[:i] + (0,) + exps[i + 1:]
        terms[key] = terms.get(key, 0) + coeff * moment(exps[i])
    return Poly.make(p.vars, terms)


def _ratio_weights(i: int, j: int) -> tuple[Fraction, Fraction]:
    return Fraction(i, i + j), Fraction(j, i + j)


def _moment(i: int, j: int, e: int) -> Fraction:
    """E[q^e] under Beta(i, j), as prod_{s<e} (i+s)/(i+j+s)."""
    out = Fraction(1)
    for s in range(e):
        out *= Fraction(i + s, i + j + s)
    return out


def sweep_degree(t: Term) -> int:
    """max(2, the largest binder level ``i + j`` in ``t``)."""
    if isinstance(t, Nu):
        return max(t.i + t.j, sweep_degree(t.body))
    if isinstance(t, (RatioChoice, ParamChoice)):
        return max(sweep_degree(t.left), sweep_degree(t.right))
    return 2


def functional_eq(ctx: Context, t: Term, u: Term, degree: int | None = None) -> bool:
    """Whether ``t`` and ``u`` agree on every argument vector that is one
    monomial, of exponents at most ``degree``, in one variable and zero in
    the others."""
    if degree is None:
        degree = max(sweep_degree(t), sweep_degree(u))
    for var, arity in ctx.vars:
        formals = standard_formals(arity)
        for exps in itertools.product(range(degree + 1), repeat=arity):
            args = zero_args(ctx)
            args[var] = FuncArg(formals, monomial(dict(zip(formals, exps))))
            if interpret(t, args) != interpret(u, args):
                return False
    return True
