"""Exact denotational semantics on polynomial arguments.

A term over variables ``x_i : m_i`` denotes a map sending one function per
variable to a function of the free parameters.  Restricted to polynomial
arguments everything stays inside exact rational arithmetic:

* variable application substitutes actual parameters into the argument,
* a ratio choice is the convex combination with weights i/(i+j), j/(i+j),
* a bias choice is the combination with weights p, 1-p,
* a binder integrates its parameter against the Beta(i, j) density.

The module also provides the Bernstein basis machinery used by normal
forms, a linear-independence check for chain functionals, and the inverse
direction: synthesizing a term from a nonnegative Bernstein coefficient
table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb, lcm

from .normalizer import Chain, NormalForm, TreeDiagram, level_and_depth, multichoice
from .poly import Poly, PolyError, monomial
from .terms import (
    Context,
    Nu,
    ParamChoice,
    RatioChoice,
    Term,
    TermError,
    VarApp,
)


def beta_moment(hyper: tuple[int, int], a: int, c: int = 0) -> Fraction:
    """Exact integral of q^a (1-q)^c against the Beta(i, j) distribution.

    Computed by the product form prod_{s<a} (i+s)/(i+j+s) extended with the
    (1-q) factors, avoiding large factorials.
    """
    i, j = hyper
    if i < 1 or j < 1:
        raise TermError(f"beta hyperparameters must be positive, got ({i},{j})")
    if a < 0 or c < 0:
        raise TermError("moment exponents must be nonnegative")
    num = 1
    for s in range(a):
        num *= i + s
    for s in range(c):
        num *= j + s
    den = 1
    for s in range(a + c):
        den *= i + j + s
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Bernstein basis: b[i,k](p) = C(k,i) p^(k-i) (1-p)^i, so index i counts the
# (1-p) factors and b[0,k] = p^k.


def bernstein(i: int, k: int, var: str = "p") -> Poly:
    if not 0 <= i <= k:
        raise PolyError(f"Bernstein index {i} out of range 0..{k}")
    coeff = comb(k, i)
    terms = {(k - i + s,): Fraction(coeff * comb(i, s) * (-1) ** s) for s in range(i + 1)}
    return Poly.make((var,), terms)


def bernstein_multi(index: tuple[int, ...], k: int, params: tuple[str, ...]) -> Poly:
    if len(index) != len(params):
        raise PolyError("multi-index length must match parameter count")
    out = Poly.const(1)
    for i, p in zip(index, params):
        out = out * bernstein(i, k, p)
    return out


def elevate(coeffs) -> list[Fraction]:
    """Degree-k Bernstein coefficients re-expressed at degree k+1."""
    coeffs = [Fraction(c) for c in coeffs]
    k = len(coeffs) - 1
    if k < 0:
        raise PolyError("empty coefficient vector")
    out = []
    for s in range(k + 2):
        value = Fraction(0)
        if s <= k:
            value += coeffs[s] * Fraction(k + 1 - s, k + 1)
        if s >= 1:
            value += coeffs[s - 1] * Fraction(s, k + 1)
        out.append(value)
    return out


def to_bernstein(p: Poly, k: int, params: tuple[str, ...]):
    """Coefficients of ``p`` in the degree-k tensor Bernstein basis.

    Returns ``(table, nonnegative)`` where ``table`` maps every multi-index
    in ``{0..k}^len(params)`` to its exact coefficient.  The change of basis
    uses the monomial expansion p^e = sum_i C(k-i, e)/C(k, e) b[i,k].
    """
    stray = set(p.vars) - set(params)
    if stray:
        raise PolyError(f"polynomial uses parameters {sorted(stray)} outside the basis")
    for v in p.vars:
        if p.degree(v) > k:
            raise PolyError(f"degree in {v!r} exceeds basis degree {k}")
    positions = [p.vars.index(q) if q in p.vars else None for q in params]
    table = {index: Fraction(0)
             for index in itertools.product(range(k + 1), repeat=len(params))}
    for exps, coeff in p.terms.items():
        es = [0 if pos is None else exps[pos] for pos in positions]
        axes = []
        for e in es:
            axes.append([(i, Fraction(comb(k - i, e), comb(k, e)))
                         for i in range(k - e + 1)])
        for combo in itertools.product(*axes):
            index = tuple(i for i, _ in combo)
            factor = coeff
            for _, f in combo:
                factor *= f
            table[index] += factor
    nonnegative = all(c >= 0 for c in table.values())
    return table, nonnegative


def bernstein_expand(table, k: int, params: tuple[str, ...]) -> Poly:
    """Inverse of :func:`to_bernstein`: assemble the polynomial."""
    out = Poly.zero()
    for index, coeff in table.items():
        if coeff:
            out = out + bernstein_multi(tuple(index), k, params).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# The interpreter.


@dataclass(frozen=True)
class FuncArg:
    """Polynomial argument for one variable, with explicit formals."""

    formals: tuple[str, ...]
    poly: Poly

    def __post_init__(self):
        repeated = sorted({f for f in self.formals if self.formals.count(f) > 1})
        if repeated:
            raise PolyError(f"argument repeats formals {repeated}")
        stray = set(self.poly.vars) - set(self.formals)
        if stray:
            raise PolyError(f"argument uses undeclared formals {sorted(stray)}")

    @staticmethod
    def constant(value) -> FuncArg:
        return FuncArg((), Poly.const(value))


def standard_formals(m: int) -> tuple[str, ...]:
    return tuple(f"r{s}" for s in range(1, m + 1))


def _check_args(ctx: Context, args: dict[str, FuncArg]) -> None:
    for name, arity in ctx.vars:
        if name not in args:
            raise TermError(f"missing argument for variable {name!r}")
        if len(args[name].formals) != arity:
            raise TermError(
                f"argument for {name!r} declares {len(args[name].formals)} "
                f"formals but the variable has arity {arity}")


def interpret(ctx: Context, t: Term, args: dict[str, FuncArg]) -> Poly:
    """Value of ``t`` on the given polynomial arguments, as a polynomial in
    the free parameters."""
    _check_args(ctx, args)
    return _interp(t, args, {})


def _interp(t: Term, args: dict[str, FuncArg], memo: dict[int, Poly]) -> Poly:
    # a node's value ignores its surroundings, so physically shared subterms
    # (diagrams built by reification share heavily) are evaluated once
    cached = memo.get(id(t))
    if cached is not None:
        return cached
    if isinstance(t, VarApp):
        arg = args[t.var]
        if len(arg.formals) != len(t.args):
            raise TermError(f"arity mismatch at {t}")
        out = arg.poly if not t.args else arg.poly.compose_monomials(arg.formals, t.args)
    elif isinstance(t, RatioChoice):
        wl, wr = _ratio_weights(t.i, t.j)
        left = _interp(t.left, args, memo).scale(wl)
        right = _interp(t.right, args, memo).scale(wr)
        out = left + right
    elif isinstance(t, ParamChoice):
        right = _interp(t.right, args, memo)
        diff = _interp(t.left, args, memo) - right
        out = right + Poly.var(t.param) * diff if diff.terms else right
    elif isinstance(t, Nu):
        body = _interp(t.body, args, memo)
        hyper = (t.i, t.j)
        out = body.integrate_out(t.param, lambda e: beta_moment(hyper, e))
    else:
        raise TermError(f"not a term: {t!r}")
    memo[id(t)] = out
    return out


@lru_cache(maxsize=None)
def _ratio_weights(i: int, j: int) -> tuple[Fraction, Fraction]:
    return Fraction(i, i + j), Fraction(j, i + j)


def zero_args(ctx: Context) -> dict[str, FuncArg]:
    return {name: FuncArg(standard_formals(m), Poly.zero()) for name, m in ctx.vars}


def indicator_args(ctx: Context, var: str) -> dict[str, FuncArg]:
    """All-zero arguments except constant 1 for ``var`` (arity-0 contexts)."""
    args = zero_args(ctx)
    arity = ctx.arity(var)
    args[var] = FuncArg(standard_formals(arity), Poly.const(1))
    return args


# ---------------------------------------------------------------------------
# Chain functionals and explicit normal-form semantics.


_BOUND_PREFIX = "_q"


def chain_functional(ctx: Context, chain: Chain, arg: FuncArg) -> Poly:
    """Value of a chain on one polynomial argument for its variable.

    Free argument positions stay symbolic; bound positions are integrated
    against their Beta distributions (repeated positions multiply first).
    """
    if len(arg.formals) != len(chain.argmap):
        raise TermError(
            f"argument has {len(arg.formals)} formals but the chain variable "
            f"takes {len(chain.argmap)}")
    actuals = tuple(
        ctx.params[idx - 1] if tag == "F" else f"{_BOUND_PREFIX}{idx}"
        for tag, idx in chain.argmap)
    if actuals:
        value = arg.poly.compose_monomials(arg.formals, actuals)
    else:
        value = arg.poly
    for b, hyper in enumerate(chain.binders, start=1):
        value = value.integrate_out(f"{_BOUND_PREFIX}{b}",
                                    lambda e, h=hyper: beta_moment(h, e))
    return value


def interpret_normalform(nf: NormalForm, args: dict[str, FuncArg]) -> Poly:
    """Explicit semantics of a normal form:

    sum over leaves I and chains j of  (w_Ij / w_I) * b[I,k] * value(c_j).
    """
    _check_args(nf.ctx, args)
    values = [chain_functional(nf.ctx, c, args[c.var]) for c in nf.chains]
    out = Poly.zero()
    for index in nf.indices():
        vec = nf.weights[index]
        total = sum(vec)
        basis = bernstein_multi(index, nf.k, nf.ctx.params)
        for value, w in zip(values, vec):
            if w:
                out = out + basis * value.scale(Fraction(w, total))
    return out


# ---------------------------------------------------------------------------
# Linear independence of chain functionals (exact rank computation).


def default_rank_points(ctx: Context) -> dict[str, Fraction]:
    """Reciprocals of the first primes: distinct by construction."""
    primes = []
    n = 2
    while len(primes) < len(ctx.params):
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return {p: Fraction(1, prime) for p, prime in zip(ctx.params, primes)}


def _rational_rank(rows: list[list[Fraction]]) -> int:
    """Gaussian elimination over the rationals; no pivoting subtleties."""
    if not rows:
        return 0
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col]:
                factor = m[r][col] / inv
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def monomial_grid(arity: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree at most ``degree``."""
    return [e for e in itertools.product(range(degree + 1), repeat=arity)
            if sum(e) <= degree]


def chain_rank_check(ctx: Context, chains, points: dict[str, Fraction] | None = None,
                     degree: int | None = None, *, require_distinct: bool = True) -> bool:
    """True iff the chain functionals are linearly independent.

    Builds the exact matrix of chain values on all monomial arguments of
    total degree at most ``degree`` (default ``2n``), evaluated at the given
    parameter points, and compares its rank with the number of chains.
    """
    chains = list(chains)
    if points is None:
        points = default_rank_points(ctx)
    values = [Fraction(v) for v in points.values()]
    if any(not 0 < v < 1 for v in values):
        raise TermError("rank-check points must lie strictly between 0 and 1")
    if require_distinct and len(set(values)) != len(values):
        raise TermError("rank-check points must be pairwise distinct")
    if degree is None:
        levels = {lvl for c in chains for lvl in c.levels()}
        degree = 2 * max(levels, default=2)
    columns = []
    for var, arity in ctx.vars:
        if any(c.var == var for c in chains):
            columns += [(var, arity, e) for e in monomial_grid(arity, degree)]
    rows = []
    for c in chains:
        row = []
        for var, arity, exps in columns:
            if c.var != var:
                row.append(Fraction(0))
                continue
            formals = standard_formals(arity)
            arg = FuncArg(formals, monomial(dict(zip(formals, exps))))
            row.append(chain_functional(ctx, c, arg).eval(points))
        rows.append(row)
    return _rational_rank(rows) == len(chains)


# ---------------------------------------------------------------------------
# Synthesis: from a nonnegative Bernstein coefficient table to a term.


def term_from_bernstein(ctx: Context, k: int, coeffs) -> Term:
    """Build the depth-k diagram whose leaf ``I`` is the multichoice over
    the (arity-0) variables with weights ``coeffs[I]``.

    Requires nonnegative rational coefficients with unit sums per leaf;
    interpreting the result reproduces sum_I w_Ij b[I,k] for each variable.
    """
    for name, arity in ctx.vars:
        if arity:
            raise TermError(f"variable {name!r} must have arity 0")
    names = ctx.var_names()
    leaves = {}
    for index in itertools.product(range(k + 1), repeat=len(ctx.params)):
        if index not in coeffs:
            raise TermError(f"missing coefficient vector for leaf {index}")
        vec = [Fraction(c) for c in coeffs[index]]
        if len(vec) != len(names):
            raise TermError(f"leaf {index} has {len(vec)} weights for {len(names)} variables")
        if any(c < 0 for c in vec):
            raise TermError(f"negative coefficient at leaf {index}")
        if sum(vec) != 1:
            raise TermError(f"leaf {index} weights sum to {sum(vec)}, expected 1")
        denom = 1
        for c in vec:
            denom = lcm(denom, c.denominator)
        ints = [int(c * denom) for c in vec]
        leaves[index] = multichoice(
            [(w, VarApp(name)) for w, name in zip(ints, names) if w])
    return TreeDiagram(ctx.params, k, leaves).to_term()


# ---------------------------------------------------------------------------
# Functional-equality oracle used to cross-check the decision procedure.
#
# The semantics is a sum of per-variable linear functionals, so two terms
# denote the same map iff they agree on every argument vector that is a
# single monomial in one variable and zero elsewhere.  Distinct chains at
# level n are separated by per-coordinate moments of degree about n, so the
# sweep degree defaults to max(2, max binder level); free parameters stay
# symbolic throughout.  Each argument vector gets a fresh memo, shared by
# both terms since a node's value depends only on the arguments.  Every
# value is a Poly in normal form, so ``!=`` compares the two polynomials in
# the free parameters exactly.


def oracle_degree(t: Term, u: Term) -> int:
    return max(2, level_and_depth(t)[0], level_and_depth(u)[0])


def functional_eq(ctx: Context, t: Term, u: Term, degree: int | None = None) -> bool:
    """Exhaustive monomial-basis comparison of the two denotations."""
    if degree is None:
        degree = oracle_degree(t, u)
    for var, arity in ctx.vars:
        formals = standard_formals(arity)
        for exps in itertools.product(range(degree + 1), repeat=arity):
            args = zero_args(ctx)
            args[var] = FuncArg(formals, monomial(dict(zip(formals, exps))))
            _check_args(ctx, args)
            memo: dict[int, Poly] = {}  # shared: rewrites reuse subterms
            if _interp(t, args, memo) != _interp(u, args, memo):
                return False
    return True


def random_poly_args(ctx: Context, rng, degree: int) -> dict[str, FuncArg]:
    """One random integer-coefficient polynomial per variable, dense on the
    per-coordinate degree grid."""
    args = {}
    for var, arity in ctx.vars:
        formals = standard_formals(arity)
        terms = {}
        for exps in itertools.product(range(degree + 1), repeat=arity):
            terms[exps] = Fraction(rng.randrange(1, 1 << 30))
        args[var] = FuncArg(formals, Poly.make(formals, terms))
    return args


def functional_eq_sampled(ctx: Context, t: Term, u: Term, rng,
                          degree: int | None = None) -> bool:
    """One-shot randomized variant: exact arithmetic on random dense
    polynomial arguments (a disagreement escapes detection only if the
    random coefficient vector lands in a fixed hyperplane)."""
    if degree is None:
        degree = oracle_degree(t, u)
    args = random_poly_args(ctx, rng, degree)
    _check_args(ctx, args)
    memo: dict[int, Poly] = {}
    return _interp(t, args, memo) == _interp(u, args, memo)
