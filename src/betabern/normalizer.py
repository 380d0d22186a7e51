"""Normalization of choice terms into unique canonical forms.

The pipeline has three stages, each a derivable-equality-preserving
transformation:

1. ``push_nu_to_leaves`` -- one top-down walk carries each binder down to
   the leaves: a choice on its parameter becomes a ratio choice with the
   binder's counts updated in each branch (conjugacy), other choices let
   it pass (commutativity), and at a variable application it is kept only
   if the application uses it (discard).  Binders then sit in *chains*:
   maximal nu-runs ending in a variable application.
2. Raising -- every binder is expanded until its hyperparameters sum to
   a common level ``n``: a ``nu[i,j]`` below level ``n`` becomes the
   beta-binomial mixture of the level-``n`` binders it refines to.  After
   stage 1 binders sit only in chains, so this is done per chain tip: each
   tip stands for a memoised distribution over level-``n`` canonical
   chains, read inside the walk of stage 3, and no raised term is built.
   ``raise_level`` stays available as the same rewrite, term to term.
3. ``_LeafWalk`` -- choices on each free parameter are averaged into a
   permutation-invariant depth-``k`` tree diagram whose leaves depend only
   on the number of right branches taken per parameter, and each leaf is
   collected into its distribution over alpha-canonical chains.  One walk
   over the paths of the pushed term computes every leaf in closed form,
   in integers, without building the raised or averaged terms;
   ``tests/refnorm.py`` builds them, as the reference.

Writing each leaf as a primitive-integer weighted multichoice over the
distinct chains yields a :class:`NormalForm`: two well-formed terms are
derivably equal exactly when their joined normal forms coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .terms import (
    Context,
    Nu,
    ParamChoice,
    RatioChoice,
    Term,
    TermError,
    VarApp,
    check_wellformed,
    format_term,
)

# argmap entries: ("F", g) is the g-th free parameter (1-based in the
# context), ("B", b) the b-th binder of the chain (1-based, outermost first).
ArgRef = tuple[str, int]


@dataclass(frozen=True)
class Chain:
    """Alpha-canonical nu-run applied to a single variable occurrence.

    Binders are listed outermost first and numbered by first use in the
    argument map, every binder is used, and (inside a normal form) each
    binder's hyperparameters sum to the common level ``n``.
    """

    binders: tuple[tuple[int, int], ...]
    var: str
    argmap: tuple[ArgRef, ...]

    @property
    def dimension(self) -> int:
        return len(self.binders)

    def sort_key(self):
        encoded = tuple((0, idx) if tag == "F" else (1, idx) for tag, idx in self.argmap)
        return (self.var, self.dimension, encoded, self.binders)

    def levels(self) -> set[int]:
        return {i + j for i, j in self.binders}

    def to_term(self, ctx: Context) -> Term:
        names = chain_binder_names(ctx, self.dimension)
        args = tuple(ctx.params[idx - 1] if tag == "F" else names[idx - 1]
                     for tag, idx in self.argmap)
        t: Term = VarApp(self.var, args)
        for (i, j), name in reversed(tuple(zip(self.binders, names))):
            t = Nu(i, j, name, t)
        return t

    def describe(self, ctx: Context) -> str:
        return format_term(self.to_term(ctx))


def chain_binder_names(ctx: Context, count: int) -> tuple[str, ...]:
    """Deterministic binder names for rebuilding chains as terms."""
    taken = ctx.all_names()
    names = []
    idx = 1
    while len(names) < count:
        candidate = f"b{idx}"
        if candidate not in taken:
            names.append(candidate)
        idx += 1
    return tuple(names)


def chain_from_term(ctx: Context, node: Term) -> Chain:
    """Canonicalize a nu-run: drop unused binders, order by first use."""
    binders: list[tuple[int, int, str]] = []
    while isinstance(node, Nu):
        binders.append((node.i, node.j, node.param))
        node = node.body
    if not isinstance(node, VarApp):
        raise TermError(f"chain tip must be a variable application, got {format_term(node)}")
    hyper = {name: (i, j) for i, j, name in binders}
    order: dict[str, int] = {}
    argmap: list[ArgRef] = []
    for a in node.args:
        if a in hyper:
            if a not in order:
                order[a] = len(order) + 1
            argmap.append(("B", order[a]))
        else:
            argmap.append(("F", ctx.param_position(a)))
    reordered = [None] * len(order)
    for name, pos in order.items():
        reordered[pos - 1] = hyper[name]
    return Chain(tuple(reordered), node.var, tuple(argmap))


@dataclass(eq=True)
class NormalForm:
    """Stratified tree-diagram depth ``k``, chain level ``n``, ordered
    distinct chains, and one primitive integer weight vector per multi-index.

    ``weights`` maps every multi-index in ``{0..k}^len(params)`` to a vector
    over ``chains``.  Forms produced by :func:`join_normalize` may carry
    all-zero columns for chains contributed only by the partner term.
    """

    ctx: Context
    k: int
    n: int
    chains: tuple[Chain, ...]
    weights: dict[tuple[int, ...], tuple[int, ...]]

    def indices(self):
        return itertools.product(range(self.k + 1), repeat=len(self.ctx.params))

    def leaf_fractions(self, index) -> dict[Chain, Fraction]:
        vec = self.weights[tuple(index)]
        total = sum(vec)
        return {c: Fraction(w, total) for c, w in zip(self.chains, vec) if w}

    def __str__(self):
        return format_normal_form(self)


def validate_normal_form(nf: NormalForm, allow_zero_columns: bool = False) -> list[str]:
    """Invariant checks; returns human-readable defects (empty = valid)."""
    defects = []
    if nf.n < 2:
        defects.append(f"level n={nf.n} below 2")
    if nf.k < 0:
        defects.append("negative depth k")
    if list(nf.chains) != sorted(nf.chains, key=Chain.sort_key):
        defects.append("chains not in canonical order")
    if len(set(nf.chains)) != len(nf.chains):
        defects.append("duplicate chains")
    for c in nf.chains:
        if c.levels() - {nf.n}:
            defects.append(f"chain {c.describe(nf.ctx)} not at level {nf.n}")
        used = {idx for tag, idx in c.argmap if tag == "B"}
        if used != set(range(1, c.dimension + 1)):
            defects.append(f"chain {c.describe(nf.ctx)} has unused binders")
        firsts = [idx for tag, idx in c.argmap if tag == "B"]
        seen: list[int] = []
        for idx in firsts:
            if idx not in seen:
                seen.append(idx)
        if seen != sorted(seen):
            defects.append(f"chain {c.describe(nf.ctx)} binders not in first-use order")
    expected = set(nf.indices())
    if set(nf.weights) != expected:
        defects.append("weight table does not cover the multi-index grid")
    nonzero = [False] * len(nf.chains)
    for index, vec in nf.weights.items():
        if len(vec) != len(nf.chains):
            defects.append(f"weight vector at {index} has wrong length")
            continue
        if any(w < 0 for w in vec):
            defects.append(f"negative weight at {index}")
        if not any(vec):
            defects.append(f"zero weight vector at {index}")
        elif gcd(*vec) != 1:
            defects.append(f"weight vector at {index} not primitive")
        for pos, w in enumerate(vec):
            if w:
                nonzero[pos] = True
    if not allow_zero_columns and not all(nonzero):
        defects.append("dead chain column")
    return defects


# ---------------------------------------------------------------------------
# Stage 1: push binders to the leaves.


def push_nu_to_leaves(t: Term) -> Term:
    """Rewrite until every binder body is another binder or the tip variable
    application that uses it; unused binders are discarded.

    One top-down walk carries the binders met so far as ``(param, i, j)``,
    outermost first.  A choice on a pending parameter becomes the ratio
    choice ``i : j`` whose branches continue with that binder updated to
    ``(i+1, j)`` and ``(i, j+1)`` (Conj); any other choice passes the
    binders to both branches (C3, C4); a variable application is wrapped
    in the binders its arguments use, in nesting order, and the others are
    dropped (D1).  Zero-weight ratio branches are pruned on the way (the
    zero-weight law), so the canonical level and depth downstream never
    depend on dead code.

    The term must be well-formed: no binder shadows another.
    """
    def go(t: Term, pending: tuple[tuple[str, int, int], ...]) -> Term:
        if isinstance(t, VarApp):
            out: Term = t
            for p, i, j in reversed(pending):
                if p in t.args:
                    out = Nu(i, j, p, out)
            return out
        if isinstance(t, RatioChoice):
            if t.j == 0:
                return go(t.left, pending)
            if t.i == 0:
                return go(t.right, pending)
            return RatioChoice(t.i, t.j, go(t.left, pending), go(t.right, pending))
        if isinstance(t, ParamChoice):
            for pos in range(len(pending) - 1, -1, -1):
                p, i, j = pending[pos]
                if p == t.param:  # Conj
                    before, after = pending[:pos], pending[pos + 1:]
                    return RatioChoice(i, j, go(t.left, before + ((p, i + 1, j),) + after),
                                       go(t.right, before + ((p, i, j + 1),) + after))
            return ParamChoice(t.param, go(t.left, pending), go(t.right, pending))  # C3
        if isinstance(t, Nu):
            return go(t.body, pending + ((t.param, t.i, t.j),))
        raise TermError(f"not a term: {t!r}")

    return go(t, ())


# ---------------------------------------------------------------------------
# Stage 2 as a term rewrite: raise all binders to a common level n.


_UNDO = object()  # level_and_depth's stack marker: leave a parameter's choice


def level_and_depth(t: Term) -> tuple[int, int]:
    """The largest binder level ``i + j`` in ``t`` and the most choices on
    one parameter along a path: the least ``n`` (before the floor of 2) and
    ``k`` of a pushed term's normal form.  A parameter's count rises on
    entering a choice on it, and a stack marker lowers it again."""
    n = k = 0
    counts: dict[str, int] = {}
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, RatioChoice):
            stack += (node.left, node.right)
        elif isinstance(node, ParamChoice):
            c = counts[node.param] = counts.get(node.param, 0) + 1
            k = max(k, c)
            stack += (node.param, _UNDO, node.left, node.right)
        elif isinstance(node, Nu):
            n = max(n, node.i + node.j)
            stack.append(node.body)
        elif node is _UNDO:
            counts[stack.pop()] -= 1
        elif not isinstance(node, VarApp):
            raise TermError(f"not a term: {node!r}")
    return n, k


def _rising(x: int, a: int) -> int:
    out = 1
    for s in range(a):
        out *= x + s
    return out


def _binder_weights(i: int, j: int, n: int) -> list[tuple[int, int, int]]:
    """The beta-binomial mixture that raises ``nu[i,j]`` to level ``n``:
    ``(weight, i + a, j + m - a)`` for ``a = m..0`` with ``m = n - i - j``,
    zero weights dropped.  The weights sum to ``rising(i + j, m)``."""
    m = n - i - j
    out = []
    for a in range(m, -1, -1):
        w = comb(m, a) * _rising(i, a) * _rising(j, m - a)
        if w:
            out.append((w, i + a, j + m - a))
    return out


def multichoice(pairs) -> Term:
    """Right-nested ratio choice realizing integer weights; zeros dropped."""
    pairs = [(int(w), t) for w, t in pairs if w]
    if not pairs:
        raise TermError("multichoice needs a positive total weight")
    term = pairs[-1][1]
    tail = pairs[-1][0]
    for w, u in reversed(pairs[:-1]):
        term = RatioChoice(w, tail, u, term)
        tail += w
    return term


def raise_level(t: Term, n: int) -> Term:
    """Expand every binder of a nu-pushed term so hyperparameters sum to n."""
    lvl = level_and_depth(t)[0]
    if n < 2 or n < lvl:
        raise TermError(f"target level {n} below minimum {max(2, lvl)}")
    return _raise(t, n)


def _raise(t: Term, n: int) -> Term:
    if isinstance(t, VarApp):
        return t
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, _raise(t.left, n), _raise(t.right, n))
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, _raise(t.left, n), _raise(t.right, n))
    assert isinstance(t, Nu)
    return _nu_expand(t.i, t.j, t.param, _raise(t.body, n), n)


def _nu_expand(i: int, j: int, p: str, body: Term, n: int) -> Term:
    if isinstance(body, RatioChoice):
        # hoist mixture out of the binder (C4), then expand each branch
        return RatioChoice(body.i, body.j,
                           _nu_expand(i, j, p, body.left, n),
                           _nu_expand(i, j, p, body.right, n))
    if isinstance(body, ParamChoice):
        raise TermError("term is not in nu-pushed form")
    return multichoice([(w, Nu(ri, rj, p, body)) for w, ri, rj in _binder_weights(i, j, n)])


# ---------------------------------------------------------------------------
# Stages 2-4: the chain distribution at every leaf of the depth-k diagrams.


class _LeafWalk:
    """Stages 2-4 over pushed terms, in integers.

    A path that consumes ``d`` choices on a parameter, ``r`` of them right
    branches, lands in leaf ``s`` of that parameter's depth-k diagram with
    probability C(k-d, s-r)/C(k, s); contributions multiply across
    parameters, and the path ends at a chain tip that stands for its
    level-``n`` raising.  This is the composition of raising, averaging
    each parameter's choices into its diagram and collecting every leaf
    over its chains, without building the raised or averaged terms
    (``tests/refnorm.py`` builds them, as a reference).

    Each path's probability is carried as an unreduced ``num/den`` of ints
    and all paths are brought to one common denominator.  The factor
    ``1/prod C(k, s)`` is the same for every path into leaf ``s`` and the
    leaf is scaled to a primitive vector anyway, so it is left out: leaf
    ``s`` then sums to ``common * prod C(k, s)``.  Chains get integer ids,
    shared by every term walked, in order of first appearance.
    """

    def __init__(self, ctx: Context, k: int, n: int):
        self.ctx, self.k, self.n = ctx, k, n
        self.chain_ids: dict[Chain, int] = {}
        self.tips: dict[Term, tuple[int, list[tuple[int, int]]]] = {}

    def tip(self, node: Term) -> tuple[int, list[tuple[int, int]]]:
        """A chain tip raised to level ``n``: the total weight and the
        ``(chain id, weight)`` pairs of its canonical level-``n`` chains,
        one binder mixture per binder, multiplied."""
        dist = self.tips.get(node)
        if dist is not None:
            return dist
        binders = []
        app = node
        while isinstance(app, Nu):
            binders.append(app)
            app = app.body
        # raising changes hyperparameters only: the canonical chain of the
        # tip fixes the argument map, and the binder behind each position
        base = chain_from_term(self.ctx, node)
        position = {b.param: pos for pos, b in enumerate(binders)}
        slots = [position[a] for a in dict.fromkeys(app.args) if a in position]
        ids = self.chain_ids
        pairs = []
        for combo in itertools.product(*(_binder_weights(b.i, b.j, self.n) for b in binders)):
            chain = Chain(tuple(combo[pos][1:] for pos in slots), base.var, base.argmap)
            pairs.append((ids.setdefault(chain, len(ids)), prod([w for w, _, _ in combo])))
        dist = self.tips[node] = (sum(w for _, w in pairs), pairs)
        return dist

    def leaves(self, pushed: Term) -> tuple[int, dict[tuple[int, ...], dict[int, int]]]:
        """The common denominator and, per multi-index, chain id to weight."""
        ell = len(self.ctx.params)
        axis_of = {p: a for a, p in enumerate(self.ctx.params)}
        # (consumed, rights, den) -> chain id -> numerator over den
        by_den: dict[tuple, dict[int, int]] = {}
        stack = [(pushed, 1, 1, (0,) * ell, (0,) * ell)]
        while stack:
            node, num, den, consumed, rights = stack.pop()
            if isinstance(node, RatioChoice):
                total = node.i + node.j
                if node.i:
                    stack.append((node.left, num * node.i, den * total, consumed, rights))
                if node.j:
                    stack.append((node.right, num * node.j, den * total, consumed, rights))
            elif isinstance(node, ParamChoice):
                a = axis_of[node.param]
                bumped = consumed[:a] + (consumed[a] + 1,) + consumed[a + 1:]
                stack.append((node.left, num, den, bumped, rights))
                stack.append((node.right, num, den, bumped,
                              rights[:a] + (rights[a] + 1,) + rights[a + 1:]))
            else:
                total, pairs = self.tip(node)
                bucket = by_den.setdefault((consumed, rights, den * total), {})
                for cid, w in pairs:
                    bucket[cid] = bucket.get(cid, 0) + num * w
        common = lcm(*(den for _, _, den in by_den))
        by_sig: dict[tuple, dict[int, int]] = {}
        for (consumed, rights, den), bucket in by_den.items():
            scale = common // den
            acc = by_sig.setdefault((consumed, rights), {})
            for cid, v in bucket.items():
                acc[cid] = acc.get(cid, 0) + v * scale
        k = self.k
        leaves: dict[tuple[int, ...], dict[int, int]] = {}
        for (consumed, rights), acc in by_sig.items():
            cells = [((), 1)]
            for d, r in zip(consumed, rights):
                cells = [(index + (s,), f * comb(k - d, s - r))
                         for index, f in cells for s in range(r, r + k - d + 1)]
            for index, f in cells:
                leaf = leaves.setdefault(index, {})
                for cid, v in acc.items():
                    leaf[cid] = leaf.get(cid, 0) + f * v
        return common, leaves

    def forms(self, pushed: list[Term]) -> list[NormalForm]:
        """Normal forms of the pushed terms over the chains of all of them."""
        tables = [self.leaves(t) for t in pushed]
        chains = tuple(sorted(self.chain_ids, key=Chain.sort_key))
        cols = [self.chain_ids[c] for c in chains]
        ctx, k = self.ctx, self.k
        binom = [comb(k, s) for s in range(k + 1)]
        forms = []
        for common, leaves in tables:
            weights = {}
            for index in itertools.product(range(k + 1), repeat=len(ctx.params)):
                leaf = leaves[index]
                vec = [leaf.get(cid, 0) for cid in cols]
                assert sum(vec) == common * prod([binom[s] for s in index]), \
                    "leaf mass must be 1"
                g = gcd(*vec)
                weights[index] = tuple([w // g for w in vec])
            forms.append(NormalForm(ctx, k, self.n, chains, weights))
        return forms


# ---------------------------------------------------------------------------
# The full pipeline.


def _stage12(ctx: Context, terms: tuple[Term, ...], k: int | None = None,
             n: int | None = None) -> tuple[list[Term], int, int]:
    """Check and push each term and fix one depth ``k`` and level ``n`` for
    all of them; returns the pushed terms with ``k`` and ``n``.  Raising
    changes no choice count, so ``k`` is read off the pushed terms."""
    pushed = []
    for t in terms:
        bad = check_wellformed(ctx, t)
        if bad:
            raise TermError(f"term ill-formed: {bad[0]}")
        pushed.append(push_nu_to_leaves(t))
    levels, depths = zip(*map(level_and_depth, pushed))
    n_min = max(2, *levels)
    if n is None:
        n = n_min
    elif n < n_min:
        raise TermError(f"level n={n} below minimum {n_min}")
    k_min = max(depths)
    if k is None:
        k = k_min
    elif k < k_min:
        raise TermError(f"depth k={k} below minimum {k_min}")
    return pushed, k, n


def normalize(ctx: Context, t: Term, k: int | None = None, n: int | None = None) -> NormalForm:
    """Unique normal form of ``t`` at the canonical (or given) depth and level."""
    pushed, k, n = _stage12(ctx, (t,), k, n)
    return _LeafWalk(ctx, k, n).forms(pushed)[0]


def join_normalize(ctx: Context, t: Term, u: Term) -> tuple[NormalForm, NormalForm]:
    """Normal forms of both terms at common depth/level over merged chains."""
    pushed, k, n = _stage12(ctx, (t, u))
    nf_t, nf_u = _LeafWalk(ctx, k, n).forms(pushed)
    return nf_t, nf_u


# ---------------------------------------------------------------------------
# Reification: a deterministic term for every normal form.


@dataclass(frozen=True)
class TreeDiagram:
    """Nested permutation-invariant diagrams: one leaf per multi-index."""

    params: tuple[str, ...]
    k: int
    leaves: dict[tuple[int, ...], Term]

    def to_term(self) -> Term:
        # memoized per level: the subdiagram depends only on the count of
        # right branches, so equal-count nodes share one term object
        def build(axis: int, prefix: tuple[int, ...]) -> Term:
            if axis == len(self.params):
                return self.leaves[prefix]
            memo: dict[tuple[int, int], Term] = {}

            def node(depth: int, rights: int) -> Term:
                key = (depth, rights)
                if key not in memo:
                    if depth == self.k:
                        memo[key] = build(axis + 1, prefix + (rights,))
                    else:
                        memo[key] = ParamChoice(self.params[axis],
                                                node(depth + 1, rights),
                                                node(depth + 1, rights + 1))
                return memo[key]

            return node(0, 0)

        return build(0, ())


def reify(nf: NormalForm) -> Term:
    """Deterministic term realizing a normal form: nested parameter diagrams
    in context order, each leaf a multichoice over chains in canonical
    order with zero-weight columns skipped."""
    ctx = nf.ctx
    chain_terms = [c.to_term(ctx) for c in nf.chains]
    leaves = {
        index: multichoice([(w, chain_terms[pos]) for pos, w in enumerate(vec) if w])
        for index, vec in nf.weights.items()
    }
    return TreeDiagram(ctx.params, nf.k, leaves).to_term()


# ---------------------------------------------------------------------------
# Serialization: stable across runs, used by golden tests and the CLI.


def _argref_text(ref: ArgRef) -> str:
    return f"{ref[0]}{ref[1]}"


def normal_form_to_dict(nf: NormalForm) -> dict:
    return {
        "k": nf.k,
        "n": nf.n,
        "params": list(nf.ctx.params),
        "vars": [[v, m] for v, m in nf.ctx.vars],
        "chains": [
            {
                "binders": [[i, j] for i, j in c.binders],
                "var": c.var,
                "args": [_argref_text(ref) for ref in c.argmap],
            }
            for c in nf.chains
        ],
        "weights": [list(nf.weights[index]) for index in nf.indices()],
    }


def format_normal_form(nf: NormalForm) -> str:
    lines = [f"k: {nf.k}", f"n: {nf.n}"]
    lines.append("chains:")
    for pos, c in enumerate(nf.chains):
        lines.append(f"  [{pos}] {c.describe(nf.ctx)}")
    lines.append("weights:")
    for index in nf.indices():
        key = ",".join(map(str, index))
        vec = " ".join(map(str, nf.weights[index]))
        lines.append(f"  I=({key}): {vec}")
    lines.append(f"reified: {format_term(reify(nf))}")
    return "\n".join(lines)
