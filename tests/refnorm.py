"""Reference stages 1-4, written the long way as the definitions read.

``betabern.normalizer._LeafWalk`` does stages 1-4 in one fold of the
checked term, building no term.  ``betabern.normalizer`` also keeps
stages 1 and 2 as term rewrites: ``push_nu_to_leaves`` pushes binders in
one top-down walk that carries them to the leaves, and ``raise_level``
expands every binder of the pushed term to level ``n``.

The reference push here works bottom-up: it pushes a binder's body first
and then the binder through it, asking at every step whether the binder's
parameter is still free below.  The reference stages 3-4 take the term
that ``raise_level`` builds, resolve every parameter's choices by each bit
vector, average the resolutions with ``s`` right branches into leaf ``s``
of a depth-``k`` tree diagram, hoist ratio choices above binders and sum
the chain masses as fractions.  Tests compare each pair.

``equal_by_forms`` is the dense comparison that ``betabern.decide.equal``
made before it compared the terms in the power basis: both joint normal
forms, leaf by leaf.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from betabern.decide import Witness
from betabern.normalizer import (
    Chain,
    TreeDiagram,
    _first_use,
    join_normalize,
    multichoice,
)
from betabern.terms import (
    Context,
    Nu,
    ParamChoice,
    RatioChoice,
    Term,
    TermError,
    VarApp,
    format_term,
    free_params,
)


def push_nu_to_leaves(t: Term) -> Term:
    """Rewrite until every binder body is another binder or the tip variable
    application that uses it; unused binders are discarded.

    Zero-weight ratio branches are pruned on the way (the zero-weight law),
    so the canonical level and depth downstream never depend on dead code.
    """
    if isinstance(t, VarApp):
        return t
    if isinstance(t, RatioChoice):
        if t.j == 0:
            return push_nu_to_leaves(t.left)
        if t.i == 0:
            return push_nu_to_leaves(t.right)
        return RatioChoice(t.i, t.j, push_nu_to_leaves(t.left), push_nu_to_leaves(t.right))
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, push_nu_to_leaves(t.left), push_nu_to_leaves(t.right))
    if isinstance(t, Nu):
        return _push_nu(t.i, t.j, t.param, push_nu_to_leaves(t.body))
    raise TermError(f"not a term: {t!r}")


def _push_nu(i: int, j: int, p: str, body: Term) -> Term:
    if p not in free_params(body):
        return body  # discard (D1)
    if isinstance(body, ParamChoice):
        if body.param == p:  # conjugate update (Conj)
            return RatioChoice(i, j,
                               _push_nu(i + 1, j, p, body.left),
                               _push_nu(i, j + 1, p, body.right))
        return ParamChoice(body.param,  # commute past a bias choice (C3)
                           _push_nu(i, j, p, body.left),
                           _push_nu(i, j, p, body.right))
    if isinstance(body, RatioChoice):  # commute past a ratio choice (C4)
        return RatioChoice(body.i, body.j,
                           _push_nu(i, j, p, body.left),
                           _push_nu(i, j, p, body.right))
    # VarApp using p, or a nested chain: a chain tip.
    return Nu(i, j, p, body)


def level_and_depth(t: Term, counts: dict[str, int] | None = None) -> tuple[int, int]:
    """The largest binder level ``i + j`` in ``t`` and the most choices on
    one parameter along a path, given ``counts`` choices above ``t``."""
    counts = counts or {}
    if isinstance(t, VarApp):
        return 0, max(counts.values(), default=0)
    if isinstance(t, Nu):
        n, k = level_and_depth(t.body, counts)
        return max(n, t.i + t.j), k
    if isinstance(t, ParamChoice):
        counts = {**counts, t.param: counts.get(t.param, 0) + 1}
    (n_l, k_l), (n_r, k_r) = level_and_depth(t.left, counts), level_and_depth(t.right, counts)
    return max(n_l, n_r), max(k_l, k_r)


def _resolve(t: Term, param: str, bits: tuple[int, ...], pos: int = 0) -> Term:
    """Resolve successive choices on ``param`` along each path by ``bits``."""
    if isinstance(t, ParamChoice) and t.param == param:
        if pos >= len(bits):
            raise TermError("stratification depth k too small")
        branch = t.left if bits[pos] == 0 else t.right
        return _resolve(branch, param, bits, pos + 1)
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, _resolve(t.left, param, bits, pos),
                           _resolve(t.right, param, bits, pos))
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, _resolve(t.left, param, bits, pos),
                           _resolve(t.right, param, bits, pos))
    return t  # chains are atomic


def stratify(ctx: Context, t: Term, k: int) -> TreeDiagram:
    """Average a nu-pushed, level-raised term into a depth-k diagram.

    Leaf ``s`` of each parameter's diagram is the uniform mixture of the
    ``C(k, s)`` resolutions whose bit vector has ``s`` right branches; the
    k! path permutations never get enumerated.
    """
    depth = level_and_depth(t)[1]
    if k < depth:
        raise TermError(f"depth k={k} below required {depth}")

    def go(params: tuple[str, ...], term: Term) -> dict[tuple[int, ...], Term]:
        if not params:
            return {(): term}
        p, rest = params[0], params[1:]
        out: dict[tuple[int, ...], Term] = {}
        for s in range(k + 1):
            picks = [bits for bits in itertools.product((0, 1), repeat=k)
                     if sum(bits) == s]
            averaged = multichoice([(1, _resolve(term, p, bits)) for bits in picks])
            for index, leaf in go(rest, averaged).items():
                out[(s,) + index] = leaf
        return out

    return TreeDiagram(ctx.params, k, go(ctx.params, t))


def _pull_ratios(t: Term) -> Term:
    """Hoist ratio choices above binders (C4) so leaves become ratio trees."""
    if isinstance(t, VarApp):
        return t
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, _pull_ratios(t.left), _pull_ratios(t.right))
    if isinstance(t, Nu):
        return _nu_over(t.i, t.j, t.param, _pull_ratios(t.body))
    raise TermError("leaf contains a parameter choice")


def _nu_over(i: int, j: int, p: str, body: Term) -> Term:
    if isinstance(body, RatioChoice):
        return RatioChoice(body.i, body.j,
                           _nu_over(i, j, p, body.left),
                           _nu_over(i, j, p, body.right))
    return Nu(i, j, p, body)


def chain_from_term(ctx: Context, node: Term) -> Chain:
    """Canonicalize a nu-run: drop unused binders, order by first use."""
    hyper = {}
    while isinstance(node, Nu):
        hyper[node.param] = (node.i, node.j)
        node = node.body
    if not isinstance(node, VarApp):
        raise TermError(f"chain tip must be a variable application, got {format_term(node)}")
    return Chain(*_first_use(ctx, node.var, node.args, hyper))


def chain_distribution(ctx: Context, leaf: Term) -> dict[Chain, Fraction]:
    """Exact chain distribution of a leaf (ratio choices over nu-runs)."""
    out: dict[Chain, Fraction] = {}

    def walk(node: Term, weight: Fraction) -> None:
        if isinstance(node, RatioChoice):
            total = node.i + node.j
            if total <= 0:
                raise TermError("ratio choice with zero total weight")
            if node.i:
                walk(node.left, weight * Fraction(node.i, total))
            if node.j:
                walk(node.right, weight * Fraction(node.j, total))
            return
        chain = chain_from_term(ctx, node)
        out[chain] = out.get(chain, Fraction(0)) + weight

    walk(_pull_ratios(leaf), Fraction(1))
    return out


def _primitive(fractions) -> tuple[int, ...]:
    """The primitive integer vector proportional to nonnegative fractions."""
    denom = lcm(*(f.denominator for f in fractions))
    ints = [int(f * denom) for f in fractions]
    g = gcd(*ints)
    return tuple(w // g for w in ints) if g else tuple(ints)


def collect_chains(ctx: Context, leaf: Term) -> tuple[tuple[Chain, ...], tuple[int, ...]]:
    """Distinct sorted chains of a leaf with primitive integer weights."""
    dist = chain_distribution(ctx, leaf)
    chains = tuple(sorted(dist, key=Chain.sort_key))
    weights = _primitive([dist[c] for c in chains])
    return chains, weights


def equal_by_forms(ctx: Context, t: Term, u: Term) -> tuple[bool, Witness | None]:
    """The verdict and witness from both joint normal forms: the first
    multi-index whose weight vectors differ, and the first column there."""
    nf_t, nf_u = join_normalize(ctx, t, u)
    assert nf_t.chains == nf_u.chains and nf_t.k == nf_u.k and nf_t.n == nf_u.n
    for index in nf_t.indices():
        vt, vu = nf_t.weights[index], nf_u.weights[index]
        if vt != vu:
            for column, (a, b) in enumerate(zip(vt, vu)):
                if a != b:
                    return False, Witness(index, column, nf_t.chains[column], a, b)
    return True, None
