"""Normalization of choice terms into unique canonical forms.

A normal form is reached in four derivable-equality-preserving stages:

1. Pushing -- each binder is carried down to the leaves: a choice on its
   parameter becomes a ratio choice with the binder's counts updated in
   each branch (conjugacy), other choices let it pass (commutativity), and
   at a variable application it is kept only if the application uses it
   (discard).  Binders then sit in *chains*: maximal nu-runs ending in a
   variable application.
2. Raising -- every binder is expanded until its hyperparameters sum to
   a common level ``n``: a ``nu[i,j]`` below level ``n`` becomes the
   beta-binomial mixture of the level-``n`` binders it refines to.
3. Averaging -- choices on each free parameter are averaged into a
   permutation-invariant depth-``k`` tree diagram whose leaves depend only
   on the number of right branches taken per parameter.
4. Collecting -- each leaf is collected into its distribution over
   alpha-canonical chains.

``_LeafWalk`` does all four in one explicit-stack walk of each checked
term, in integers: it carries the pending binders down every path, keys
the path by the choices it took and its chain tip, and raises the tips
and spreads the paths over the leaves once ``n`` and ``k`` are known.  No
pushed, raised or averaged term is built.  ``push_nu_to_leaves`` and
``raise_level`` are stages 1 and 2 written as term rewrites;
``tests/refnorm.py`` builds the reference on them.

Writing each leaf as a primitive-integer weighted multichoice over the
distinct chains yields a :class:`NormalForm`: two well-formed terms are
derivably equal exactly when their joined normal forms coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _first_use(ctx: Context, var: str, args, hyper) -> tuple:
    """The alpha-canonical ``(binders, var, argmap)`` of ``var(args)`` under
    the binders ``hyper`` (parameter name to ``(i, j)``): binders it does
    not use are dropped and the rest are numbered by first use."""
    order: dict[str, int] = {}
    argmap = tuple([("B", order.setdefault(a, len(order) + 1)) if a in hyper
                    else ("F", ctx.param_position(a)) for a in args])
    return tuple([hyper[a] for a in order]), var, argmap


def chain_from_term(ctx: Context, node: Term) -> Chain:
    """Canonicalize a nu-run: drop unused binders, order by first use."""
    hyper = {}
    while isinstance(node, Nu):
        hyper[node.param] = (node.i, node.j)
        node = node.body
    if not isinstance(node, VarApp):
        raise TermError(f"chain tip must be a variable application, got {format_term(node)}")
    return Chain(*_first_use(ctx, node.var, node.args, hyper))


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
        from fractions import Fraction  # imported here: decide never needs it

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
# Stages 1 and 2 as term rewrites.


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
    """Expand every binder of a nu-pushed term so hyperparameters sum to n;
    a binder already above level ``n`` is refused."""
    if n < 2:
        raise TermError(f"target level {n} below minimum 2")
    return _raise(t, n)


def _raise(t: Term, n: int) -> Term:
    if isinstance(t, VarApp):
        return t
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, _raise(t.left, n), _raise(t.right, n))
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, _raise(t.left, n), _raise(t.right, n))
    assert isinstance(t, Nu)
    if t.i + t.j > n:
        raise TermError(f"target level {n} below minimum {t.i + t.j}")
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
# Stages 1-4: the chain distribution at every leaf of the depth-k diagrams.


class _LeafWalk:
    """Stages 1-4 of checked terms, one explicit-stack walk per term, in
    integers.

    A stack entry is a subterm, the binders pending above it as a map from
    parameter to ``(i, j)``, and the state of its path.  The cases are
    those of ``push_nu_to_leaves``: a choice on a pending binder's
    parameter is the ratio choice ``i : j`` into branches that carry the
    binder updated to ``(i+1, j)`` and ``(i, j+1)`` (Conj), any other
    choice passes the binders to both branches (C3, C4), a zero-weight
    ratio branch is never entered, and at a variable application the
    binders it does not use are dropped (D1).  The rest make the path's
    chain tip, a plain ``(binders, var, argmap)`` tuple in first-use order.

    A path that consumes ``d`` choices on a free parameter, ``r`` of them
    right branches, lands in leaf ``s`` of that parameter's depth-k diagram
    with probability C(k-d, s-r)/C(k, s); contributions multiply across
    parameters, and the path ends at a chain tip that stands for its
    level-``n`` raising.  This is the composition of raising, averaging
    each parameter's choices into its diagram and collecting every leaf
    over its chains, without building the pushed, raised or averaged terms
    (``tests/refnorm.py`` builds them, as a reference).  The least ``n``
    and ``k`` are the largest binder level at a tip and the most choices
    on one parameter along a path, over all terms walked, so tips are
    raised and paths spread over the leaves only after every walk.

    Each path's probability is carried as an unreduced ``num/den`` of ints
    and all paths are brought to one common denominator.  The factor
    ``1/prod C(k, s)`` is the same for every path into leaf ``s`` and the
    leaf is scaled to a primitive vector anyway, so it is left out: leaf
    ``s`` then sums to ``common * prod C(k, s)``.  Chains get integer ids,
    shared by every term walked, in order of first appearance.
    """

    def __init__(self, ctx: Context, terms):
        self.ctx = ctx
        self.tables = [self.paths(t) for t in terms]
        self.tips = dict.fromkeys(tip for table in self.tables for _, _, _, tip in table)
        self.n_min = max([2] + [i + j for binders, _, _ in self.tips for i, j in binders])
        self.k_min = max([0] + [d for table in self.tables
                                for consumed, _, _, _ in table for d in consumed])

    def paths(self, t: Term) -> dict[tuple, int]:
        """Path numerators of ``t`` by ``(consumed, rights, den, tip)``:
        per free parameter, the choices taken on it and their right
        branches, then the path's denominator and chain tip."""
        ctx = self.ctx
        axis_of = {p: a for a, p in enumerate(ctx.params)}
        out: dict[tuple, int] = {}
        zero = (0,) * len(ctx.params)
        stack = [(t, {}, 1, 1, zero, zero)]
        while stack:
            node, pending, num, den, consumed, rights = stack.pop()
            if isinstance(node, VarApp):
                key = (consumed, rights, den, _first_use(ctx, node.var, node.args, pending))
                out[key] = out.get(key, 0) + num
            elif isinstance(node, Nu):
                stack.append((node.body, {**pending, node.param: (node.i, node.j)},
                              num, den, consumed, rights))
            elif isinstance(node, RatioChoice):
                i, j = node.i, node.j
                if i and j:
                    stack += ((node.left, pending, num * i, den * (i + j), consumed, rights),
                              (node.right, pending, num * j, den * (i + j), consumed, rights))
                else:
                    stack.append((node.left if i else node.right,
                                  pending, num, den, consumed, rights))
            elif node.param in pending:  # Conj
                p = node.param
                i, j = pending[p]
                stack += ((node.left, {**pending, p: (i + 1, j)},
                           num * i, den * (i + j), consumed, rights),
                          (node.right, {**pending, p: (i, j + 1)},
                           num * j, den * (i + j), consumed, rights))
            else:  # C3
                a = axis_of[node.param]
                consumed = consumed[:a] + (consumed[a] + 1,) + consumed[a + 1:]
                stack += ((node.left, pending, num, den, consumed, rights),
                          (node.right, pending, num, den, consumed,
                           rights[:a] + (rights[a] + 1,) + rights[a + 1:]))
        return out

    def forms(self, k: int, n: int) -> list[NormalForm]:
        """Normal forms of the walked terms at depth ``k`` and level ``n``,
        over the chains of all of them."""
        ids: dict[Chain, int] = {}
        raised = {tip: _raise_tip(tip, n, ids) for tip in self.tips}
        chains = tuple(sorted(ids, key=Chain.sort_key))
        cols = [ids[c] for c in chains]
        binom = [comb(k, s) for s in range(k + 1)]
        forms = []
        for table in self.tables:
            common = lcm(*(den * raised[tip][0] for _, _, den, tip in table))
            by_sig: dict[tuple, dict[int, int]] = {}
            for (consumed, rights, den, tip), num in table.items():
                total, pairs = raised[tip]
                scale = num * (common // (den * total))
                acc = by_sig.setdefault((consumed, rights), {})
                for cid, w in pairs:
                    acc[cid] = acc.get(cid, 0) + scale * w
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
            weights = {}
            for index in itertools.product(range(k + 1), repeat=len(self.ctx.params)):
                leaf = leaves[index]
                vec = [leaf.get(cid, 0) for cid in cols]
                assert sum(vec) == common * prod([binom[s] for s in index]), \
                    "leaf mass must be 1"
                g = gcd(*vec)
                weights[index] = tuple([w // g for w in vec])
            forms.append(NormalForm(self.ctx, k, n, chains, weights))
        return forms


def _raise_tip(tip: tuple, n: int, ids: dict[Chain, int]) -> tuple[int, list[tuple[int, int]]]:
    """A chain tip raised to level ``n``: the total weight and the
    ``(chain id, weight)`` pairs of its canonical level-``n`` chains, one
    binder mixture per binder, multiplied.  Raising changes hyperparameters
    only, so the argument map and the first-use order stay."""
    binders, var, argmap = tip
    pairs = []
    for combo in itertools.product(*(_binder_weights(i, j, n) for i, j in binders)):
        chain = Chain(tuple(c[1:] for c in combo), var, argmap)
        pairs.append((ids.setdefault(chain, len(ids)), prod([w for w, _, _ in combo])))
    return sum(w for _, w in pairs), pairs


# ---------------------------------------------------------------------------
# The full pipeline.


def _normal_forms(ctx: Context, terms: tuple[Term, ...], k: int | None = None,
                  n: int | None = None) -> list[NormalForm]:
    """Check and walk each term, then build all the forms at one depth
    ``k`` and level ``n``, by default the least that fit every term."""
    for t in terms:
        bad = check_wellformed(ctx, t)
        if bad:
            raise TermError(f"term ill-formed: {bad[0]}")
    walk = _LeafWalk(ctx, terms)
    for name, given, least in (("level n", n, walk.n_min), ("depth k", k, walk.k_min)):
        if given is not None and given < least:
            raise TermError(f"{name}={given} below minimum {least}")
    return walk.forms(walk.k_min if k is None else k, walk.n_min if n is None else n)


def normalize(ctx: Context, t: Term, k: int | None = None, n: int | None = None) -> NormalForm:
    """Unique normal form of ``t`` at the canonical (or given) depth and level."""
    return _normal_forms(ctx, (t,), k, n)[0]


def join_normalize(ctx: Context, t: Term, u: Term) -> tuple[NormalForm, NormalForm]:
    """Normal forms of both terms at common depth/level over merged chains."""
    nf_t, nf_u = _normal_forms(ctx, (t, u))
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
        # bottom-up from the last parameter: a row holds the subdiagrams of
        # one prefix by count of right branches, and each node is shared by
        # the two above it, so equal-count subdiagrams are one object
        level = self.leaves
        for axis in reversed(range(len(self.params))):
            subs = {}
            for prefix in itertools.product(range(self.k + 1), repeat=axis):
                row = [level[prefix + (rights,)] for rights in range(self.k + 1)]
                for _ in range(self.k):
                    row = [ParamChoice(self.params[axis], a, b) for a, b in zip(row, row[1:])]
                subs[prefix] = row[0]
            level = subs
        return level[()]


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
