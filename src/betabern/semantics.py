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
table, by :func:`~betabern.normalizer.reify`.

Both oracles, :func:`interpret` and, through it, the chain functionals
share one evaluator, ``_Walk``, over a post-order list of the shared
nodes; a value is one int denominator and an int numerator per monomial.
:func:`functional_eq` sweeps every monomial argument exactly, in one
tagged walk per variable, and carries the completeness argument.
:func:`functional_eq_sampled` is a Schwartz-Zippel test over GF(p) for a
uniform random prime p in [2^61, 2^62), drawn afresh (with new points and
coefficients) whenever p divides a denominator ``i+j`` or ``i+j+s``.
Reduction mod p is a ring homomorphism on the rationals with p-free
denominators, so equal terms are never reported unequal; a difference is
missed with probability below the 1/(2^30-1) of one draw over the
rationals (the bound is stated at the function).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .normalizer import Chain, NormalForm, reify
from .poly import Poly, PolyError, monomial
from .terms import (
    Context,
    Nu,
    ParamChoice,
    RatioChoice,
    Term,
    TermError,
    VarApp,
    postorder,
)


def beta_moment(hyper: tuple[int, int], a: int, c: int = 0) -> Fraction:
    """Exact integral of q^a (1-q)^c against the Beta(i, j) distribution."""
    i, j = hyper
    if i < 1 or j < 1:
        raise TermError(f"beta hyperparameters must be positive, got ({i},{j})")
    if a < 0 or c < 0:
        raise TermError("moment exponents must be nonnegative")
    return Fraction(*_moment(i, j, a, c))


def _moment(i: int, j: int, a: int, c: int = 0) -> tuple[int, int]:
    """E[q^a (1-q)^c] under Beta(i, j) as an unreduced ``(num, den)``.  Of
    rising(i, a) rising(j, c) / rising(i+j, a+c) and
    rising(i, j) rising(j, c) / rising(i+a, j+c), the shorter is taken, so a
    large ``a`` costs ``j + c`` factors, not ``a + c``."""
    if a <= j:
        return prod(range(i, i + a)) * prod(range(j, j + c)), prod(range(i + j, i + j + a + c))
    return prod(range(i, i + j)) * prod(range(j, j + c)), prod(range(i + a, i + a + j + c))


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
    padded = [Fraction(0)] + coeffs + [Fraction(0)]
    return [(padded[s] * s + padded[s + 1] * (k + 1 - s)) / (k + 1) for s in range(k + 2)]


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
        axes = [[(i, Fraction(comb(k - i, e), comb(k, e))) for i in range(k - e + 1)]
                for e in (0 if pos is None else exps[pos] for pos in positions)]
        for combo in itertools.product(*axes):
            table[tuple(i for i, _ in combo)] += coeff * prod(f for _, f in combo)
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
    walk = _Walk()
    walk.load(args)
    (den, nums), = walk.run(postorder(t), t)
    names = tuple(walk.slots)
    shifts = tuple(walk.slots.values())
    return Poly.make(names, {tuple(m >> s & _SLOT_MASK for s in shifts): Fraction(c, den)
                             for m, c in nums.items()})


# A value is ``(den, nums)``, the polynomial with coefficient nums[m] / den
# at packed monomial m; nums holds no zeros.  Slot s >= 1 of a monomial,
# bits [64s, 64s+64), holds the exponent of the parameter that got slot s
# on first use; an exponent is at most the arity times an argument exponent
# (below 2^32) plus the choices on one path, so it never spills over.  Slot
# 0 holds the sweep's tag (see functional_eq).  Over GF(p) a free parameter
# takes its point and den is 1.  Values are never mutated once stored, so
# an operation may return an operand.

_SLOT_BITS = 64
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_ZERO = (1, {})


class _Redraw(Exception):
    """A denominator of the term is 0 mod the drawn prime."""


class _Walk:
    """The evaluator, over the rationals (``p`` is 0) or over GF(p) with a
    point for each free parameter.  It runs through the nodes in post-order,
    so no recursion limit applies.

    Slots, ratio weights and Beta moments are kept across :meth:`load`, so
    one walk serves a whole sweep.
    """

    def __init__(self, p: int = 0, points: dict[str, int] | None = None):
        self.p = p
        # per free parameter the powers x^0, x^1, ... of its point, grown on use
        self.powers = {name: [1, x] for name, x in (points or {}).items()}
        self.slots: dict[str, int] = {}
        self.weights: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.moments: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        self.args: dict[str, tuple] = {}
        self.apps: dict[tuple, tuple] = {}

    def load(self, args: dict[str, FuncArg], coeff=None) -> None:
        """Take new arguments, kept per variable as its arity, the positions
        of the formals its polynomial uses, its largest exponent, its common
        denominator and ``(exponents, tag 0, numerator)`` triples; ``coeff``
        maps each coefficient to its numerator over 1 instead."""
        self.args, self.apps = {}, {}
        for var, arg in args.items():
            terms = arg.poly.terms
            top = max((max(exps, default=0) for exps in terms), default=0)
            if top >> 32:
                raise PolyError(f"argument for {var!r} has an exponent past 2^32")
            den = 1 if coeff else lcm(*(c.denominator for c in terms.values()))
            nums = [(exps, 0, coeff(c) if coeff else c.numerator * (den // c.denominator))
                    for exps, c in terms.items()]
            where = [arg.formals.index(v) for v in arg.poly.vars]
            self.args[var] = (len(arg.formals), where, top, den, nums)

    def slot(self, name: str) -> int:
        shift = self.slots.get(name)
        if shift is None:  # slot 0 is the tag's
            shift = self.slots[name] = (len(self.slots) + 1) * _SLOT_BITS
        return shift

    def run(self, order: list[Term], *roots: Term) -> list[tuple]:
        """The values of ``roots``, from one pass over the nodes under them
        in ``order`` (from :func:`postorder`).  A node's value ignores its
        surroundings, so a shared subterm is evaluated once."""
        memo: dict[int, tuple] = {}
        for node in order:
            kind = type(node)
            if kind is VarApp:
                memo[id(node)] = self.apply(node)
            elif kind is Nu:
                memo[id(node)] = self.integrate(node, memo[id(node.body)])
            else:
                memo[id(node)] = self.choose(node, memo[id(node.left)], memo[id(node.right)])
        return [memo[id(root)] for root in roots]

    def apply(self, node: VarApp) -> tuple:
        key = (node.var, node.args)
        value = self.apps.get(key)
        if value is None:
            if node.var not in self.args:
                raise TermError(f"no argument for variable {node.var!r}")
            arity, where, top, den, terms = self.args[node.var]
            if arity != len(node.args):
                raise TermError(f"arity mismatch at {node}")
            if not terms:  # a zero argument
                return _ZERO
            out: dict[int, int] = {}
            value = self.apps[key] = (den, out)
            p = self.p
            # per position used: the slot of a symbolic parameter, or the
            # powers of a free parameter's point up to the largest exponent
            plan = []
            for i in where:
                a = node.args[i]
                row = self.powers.get(a)
                if row is None:
                    plan.append((self.slot(a), None))
                    continue
                while len(row) <= top:
                    row.append(row[-1] * row[1] % p)
                plan.append((0, row))
            for exps, m, c in terms:
                for e, (shift, row) in zip(exps, plan):
                    if e:
                        if row is None:
                            m += e << shift
                        else:
                            c = c * row[e] % p
                _add(out, m, c, p)
        return value

    def choose(self, node, left: tuple, right: tuple) -> tuple:
        p = self.p
        (dl, nl), (dr, nr) = left, right
        if type(node) is RatioChoice:
            wl, wr, wd = self.ratio(node.i, node.j)
        elif node.param in self.powers:
            wl = self.powers[node.param][1]
            wr, wd = (1 - wl) % p, 1
        elif left == right:
            return right
        else:  # a symbolic parameter q: right + q * (left - right)
            den = dl
            if dl != dr:  # both over the lcm of their denominators
                den = lcm(dl, dr)
                nl, nr = _times(nl, den // dl, p), _times(nr, den // dr, p)
            unit = 1 << self.slot(node.param)
            out = dict(nr)
            for m, v in nl.items():
                _add(out, m + unit, v, p)
            for m, v in nr.items():
                _add(out, m + unit, -v, p)
            return den, out
        # left * wl / wd + right * wr / wd
        if not (nr and wr):
            if not (nl and wl):
                return _ZERO
            return left if wl == wd else (dl * wd, _times(nl, wl, p))
        if not (nl and wl):
            return right if wr == wd else (dr * wd, _times(nr, wr, p))
        den = dl
        if dl != dr:  # both over the lcm of their denominators
            den = lcm(dl, dr)
            wl, wr = wl * (den // dl), wr * (den // dr)
        out = _times(nl, wl, p)
        for m, v in nr.items():
            _add(out, m, v * wr, p)
        return den * wd, out

    def ratio(self, i: int, j: int) -> tuple[int, int, int]:
        """The weights ``(wl, wr, wd)`` of a ratio choice ``i : j``: over the
        rationals i, j, i+j in lowest terms, over GF(p) i/(i+j), j/(i+j), 1."""
        w = self.weights.get((i, j))
        if w is None:
            if i + j == 0:
                raise TermError("ratio choice needs total weight i+j > 0")
            p = self.p
            if not p:
                g = gcd(i, j)
                w = i // g, j // g, (i + j) // g
            elif (i + j) % p:
                inv = pow(i + j, -1, p)
                w = i * inv % p, j * inv % p, 1
            else:
                raise _Redraw
            self.weights[(i, j)] = w
        return w

    def integrate(self, node: Nu, body: tuple) -> tuple:
        i, j = node.i, node.j
        moments = self.moments.get((i, j))
        if moments is None:
            if i < 1 or j < 1:
                raise TermError(f"beta hyperparameters must be positive, got ({i},{j})")
            moments = self.moments[(i, j)] = {}
        den, nums = body
        shift = self.slots.get(node.param)
        exps = [m >> shift & _SLOT_MASK for m in nums] if shift else None
        if not exps or not max(exps):  # the parameter occurs nowhere in the body
            return body
        for e in exps:
            if e not in moments:
                moments[e] = self.moment(i, j, e)
        p = self.p  # over GF(p) every moment is over 1; else over their lcm
        scale = 1 if p else lcm(*{moments[e][1] for e in exps})
        out: dict[int, int] = {}
        for (m, v), e in zip(nums.items(), exps):
            num, d = moments[e]
            _add(out, m - (e << shift), v * num * (scale // d), p)
        return den * scale, out

    def moment(self, i: int, j: int, e: int) -> tuple[int, int]:
        """E[q^e] under Beta(i, j) as ``(num, den)`` in lowest terms; over
        GF(p) as a residue over 1."""
        num, den = _moment(i, j, e)
        p = self.p
        if not p:
            g = gcd(num, den)
            return num // g, den // g
        if den % p:
            return num * pow(den, -1, p) % p, 1
        raise _Redraw


def _add(out: dict, m: int, v, p: int) -> None:
    """Add ``v`` at monomial ``m`` (mod ``p`` if nonzero), keeping ``out``
    free of zero coefficients."""
    s = out.get(m)
    s = v if s is None else s + v
    if p:
        s %= p
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def _times(nums: dict, w: int, p: int) -> dict:
    """``nums`` times ``w`` (mod ``p`` if nonzero) as a new dict; w is not 0."""
    if p:
        return {m: v * w % p for m, v in nums.items()}
    return {m: v * w for m, v in nums.items()}


def _same(a: tuple, b: tuple) -> bool:
    """Whether two values are the same polynomial."""
    (da, na), (db, nb) = a, b
    if da == db:
        return na == nb
    return na.keys() == nb.keys() and all(v * db == nb[m] * da for m, v in na.items())


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


def chain_functional(ctx: Context, chain: Chain, arg: FuncArg) -> Poly:
    """Value of a chain on one polynomial argument for its variable: its
    term, interpreted with ``arg`` for the variable and zero elsewhere.

    Free argument positions stay symbolic; bound positions are integrated
    against their Beta distributions (repeated positions multiply first).
    """
    if len(arg.formals) != len(chain.argmap):
        raise TermError(
            f"argument has {len(arg.formals)} formals but the chain variable "
            f"takes {len(chain.argmap)}")
    return interpret(ctx, chain.to_term(ctx), {**zero_args(ctx), chain.var: arg})


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
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
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
    the (arity-0) variables with weights ``coeffs[I]``: the :func:`reify`
    of the normal form whose chains are the bare variables.  Each leaf's
    weights over the lcm of their reduced denominators are coprime.

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
        denom = lcm(*(c.denominator for c in vec))
        leaves[index] = tuple(int(c * denom) for c in vec)
    chains = tuple(Chain((), name, ()) for name in names)
    return reify(NormalForm(ctx, k, 2, chains, leaves))


# ---------------------------------------------------------------------------
# Functional-equality oracle used to cross-check the decision procedure.
#
# The semantics is a sum of per-variable linear functionals, so two terms
# denote the same map iff they agree on every argument vector that is a
# single monomial in one variable and zero elsewhere.  Distinct chains at
# level n are separated by per-coordinate moments of degree about n, so the
# sweep degree defaults to max(2, max binder level); free parameters stay
# symbolic throughout.
#
# One walk per variable covers all of its monomials: the variable gets
# their sum, monomial number e tagged e in slot 0 of the packed key, and
# the others get zero.  Every step after the application is linear in the
# argument and leaves slot 0 alone, so the tag-e part of a value is its
# value on monomial e, and the two tagged values are equal iff the terms
# agree on every monomial argument of the variable.  Values are exact
# ``(den, numerators)`` pairs, compared by cross-multiplying (:func:`_same`).


def _sweep_degree(order: list[Term]) -> int:
    """max(2, the largest binder level ``i + j`` among the nodes)."""
    return max([2] + [node.i + node.j for node in order if type(node) is Nu])


def functional_eq(ctx: Context, t: Term, u: Term, degree: int | None = None) -> bool:
    """Exhaustive monomial-basis comparison of the two denotations."""
    order = postorder(t, u)  # shared: rewrites reuse subterms
    if degree is None:
        degree = _sweep_degree(order)
    walk = _Walk()
    for var, arity in ctx.vars:
        walk.load(zero_args(ctx))
        monomials = itertools.product(range(degree + 1), repeat=arity)
        walk.args[var] = (arity, range(arity), degree, 1,
                          [(exps, e, 1) for e, exps in enumerate(monomials)])
        if not _same(*walk.run(order, t, u)):
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
            terms[exps] = rng.randrange(1, 1 << 30)
        args[var] = FuncArg(formals, Poly.make(formals, terms))
    return args


def functional_eq_sampled(ctx: Context, t: Term, u: Term, rng,
                          degree: int | None = None) -> bool:
    """One-shot randomized variant of :func:`functional_eq`, a
    Schwartz-Zippel test over a random prime field GF(p).

    The caller's ``rng`` makes exactly the draws of
    :func:`random_poly_args`.  Everything else comes from a child
    ``random.Random`` seeded with those draws: a uniform prime ``p`` in
    [2^61, 2^62) (deterministic Miller-Rabin, exact below 2^64), then a
    uniform draw from [0, 2^61) for each free parameter and for an offset
    added to each argument coefficient.  Values are polynomials in the
    bound parameters in scope with coefficients in GF(p); ratio weights and
    Beta moments use modular inverses.  If a denominator used is 0 mod p,
    the whole draw (prime, points, offsets) is made again, so every value
    is the image of the exact one: a ratio weight's ``i+j``, or a factor
    of the moment E[q^e] under Beta(i, j), which is ``i+j+s`` for ``s < e``
    when ``e <= j`` and ``i+e+s`` for ``s < j`` when ``e > j``.

    Equal terms are never reported unequal: with p-free denominators,
    reduction mod p is a ring homomorphism from those rationals onto GF(p),
    and it commutes with every step of the evaluation.  A difference ``D``
    (a nonzero polynomial in the argument coefficients and the free
    parameters) is missed with probability at most
    ``deg(D)/2^61 + B/(61 * 2^55)``.  The first term is Schwartz-Zippel
    with 2^61 values per variable, where ``deg(D) <= 1 + a*d + c`` for
    largest arity ``a``, sweep degree ``d`` and ``c`` choices on one path.
    The second bounds the chance that ``p`` divides the numerator, of ``B``
    bits, of a nonzero coefficient of ``D``: at most ``B/61`` of the more
    than 2^55 primes in range do, and a redraw removes only the few that
    divide a denominator.  While ``a*d + c < 2^29`` and
    ``B < 2^30`` this stays below the 1/(2^30-1) of one rational draw.
    Terms must be well-formed in ``ctx``: names not in ``ctx.params`` are
    taken for bound ones.
    """
    order = postorder(t, u)
    if degree is None:
        degree = _sweep_degree(order)
    args = random_poly_args(ctx, rng, degree)
    seed = 0
    for arg in args.values():
        for c in arg.poly.terms.values():
            seed = seed << 30 | c.numerator
    child = random.Random(seed)
    while True:
        p = _random_prime(child)
        walk = _Walk(p, {name: child.getrandbits(61) for name in ctx.params})
        walk.load(args, lambda c: (c.numerator + child.getrandbits(61)) % p)
        try:
            values = walk.run(order, t, u)
        except _Redraw:
            continue
        return _same(*values)


# ---------------------------------------------------------------------------
# Random primes for the sampled oracle.

# an odd candidate that shares a factor with this product of the odd primes
# below 300 is skipped before Miller-Rabin
_SMALL_PRODUCT = prod(q for q in range(3, 300, 2) if all(q % d for d in range(3, q, 2)))
# Miller-Rabin with these seven bases is exact for every n below 2^64
# (Sinclair's set), where the prime bases 2..37 need twelve.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with :data:`_MR_BASES`, exact for odd ``n`` between 3
    and 2^64."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        a %= n
        if not a:  # a multiple of n witnesses nothing
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng) -> int:
    """A uniform prime in [2^61, 2^62)."""
    while True:
        n = rng.getrandbits(61) | 1 << 61 | 1
        if gcd(n, _SMALL_PRODUCT) == 1 and _is_prime(n):
            return n
