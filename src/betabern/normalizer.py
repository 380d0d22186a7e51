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

``_LeafWalk`` does all four in one bottom-up fold of each checked term,
in integers: a node's value holds, per count of choices and of right
branches on each free parameter, the weights of the chain tips below it,
and a node shared by several parents is folded once per pending binders
it uses.  The tips are raised and the counts spread over the leaves once
``n`` and ``k`` are known.  No pushed, raised or averaged term is built.
``push_nu_to_leaves`` and ``raise_level`` are stages 1 and 2 written as
term rewrites; ``tests/refnorm.py`` builds the reference on them.

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
    format_term,
    postorder,
    require_wellformed,
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


# A fold value maps a *signature*, the counts of choices consumed and of
# right branches taken per free parameter, packed into one int, to a group
# ``(den, numerators)``: the numerators by chain tip id, over the group's
# own denominator.  Axis ``a`` keeps its consumed count at bit ``2a * _W``
# and its right branches ``_W`` bits higher.  A count never exceeds the
# number of nodes on a path, so ``_W`` bits hold it, and a free-parameter
# choice shifts a signature by one addition.  Values and groups are never
# changed once built, so a memoised value is shared as it is.
_W = 32
_MASK = (1 << _W) - 1
_MIX = object()  # fold stack marker: mix the two values on top (ratio, Conj)
_SHIFT = object()  # fold stack marker: join the two values on top (C3)
_STORE = object()  # fold stack marker: memoise the value on top
_SET = object()  # fold stack marker: set a pending binder's counts


class _Shared(Exception):
    """A choice node object was reached twice: fold with the memo."""


def _scan(t: Term) -> tuple[dict[int, frozenset], dict[int, int]]:
    """The free parameter names of every node of ``t``, by ``id``, and the
    number of parents of each node that has more than one."""
    free: dict[int, frozenset] = {}
    refs: dict[int, int] = {}
    empty: frozenset = frozenset()
    for node in postorder(t):
        cls = type(node)
        if cls is VarApp:
            free[id(node)] = frozenset(node.args) if node.args else empty
            continue
        kids = (node.body,) if cls is Nu else (node.left, node.right)
        for kid in kids:
            refs[id(kid)] = refs.get(id(kid), 0) + 1
        if cls is Nu:
            f = free[id(node.body)]
            free[id(node)] = f - {node.param} if node.param in f else f
            continue
        fl, fr = free[id(node.left)], free[id(node.right)]
        f = fl if fr <= fl else fr if fl <= fr else fl | fr
        free[id(node)] = f if cls is RatioChoice or node.param in f else f | {node.param}
    return free, {key: n for key, n in refs.items() if n > 1}


def _mix(left: tuple, right: tuple, wl: int, wr: int, total: int) -> tuple:
    """The group ``(wl * left + wr * right) / total`` over the lcm of the
    two denominators, times ``total``."""
    dl, nl = left
    dr, nr = right
    g = gcd(dl, dr)
    # coprime, as at each level of a ratio chain: skip dividing by 1,
    # which walks every digit of a big int (half the time of a
    # 100,000-deep rch[1,2] chain)
    ql, qr = (dl, dr) if g == 1 else (dl // g, dr // g)
    den, wl, wr = ql * dr, wl * qr, wr * ql
    if len(nl) < len(nr):
        nl, nr, wl, wr = nr, nl, wr, wl
    out = {tip: v * wl for tip, v in nl.items()}
    for tip, v in nr.items():
        out[tip] = out.get(tip, 0) + v * wr
    return den * total, out


class _LeafWalk:
    """Stages 1-4 of checked terms, one bottom-up fold per term, in
    integers.

    The fold walks depth first with an explicit stack.  The binders pending
    on the current path sit in one map from parameter to ``(i, j)``, set
    when a binder is entered, so no map is copied.  The cases are those of
    ``push_nu_to_leaves``: a choice on a pending binder's parameter is the
    ratio choice ``i : j`` into branches that see the binder updated to
    ``(i+1, j)`` and ``(i, j+1)`` (Conj), any other choice passes the
    binders on (C3, C4), a zero-weight ratio branch is never entered, and
    at a variable application the binders it does not use are dropped (D1)
    and the rest make its chain tip, a plain ``(binders, var, argmap)``
    tuple in first-use order.

    A node's value maps signatures (see ``_W``), counted from that node
    down, to groups.  A variable application is ``{0: (1, {tip: 1})}``; a
    ratio or Conj choice mixes its branches' groups of equal signature
    over the lcm of their denominators; a free-parameter choice joins them,
    the left shifted by one choice on its axis, the right by one choice and
    one right branch.  Denominators grow only where paths mix, so a deep
    chain pays one small merge per level and the leaves of a tree diagram
    keep their own.  A value is dropped once its parent has merged it.  A
    term that shares a choice node object, as a reified form shares its
    subdiagrams, is folded again with a memo keyed by the node and the
    pending binders it uses; an entry goes after the node's last use.

    A root group that consumes ``d`` choices on a free parameter, ``r`` of
    them right branches, lands in leaf ``s`` of that parameter's depth-k
    diagram with probability C(k-d, s-r)/C(k, s); contributions multiply
    across parameters, and each tip stands for its level-``n`` raising.
    This composes raising, averaging and collecting without building the
    pushed, raised or averaged terms (``tests/refnorm.py`` builds them, as
    a reference).  The least ``n`` and ``k`` are the largest binder level
    at a tip and the most choices on one parameter in a signature, over
    all terms walked, so tips are raised and groups spread over the leaves
    only after every fold.  The factor ``1/prod C(k, s)`` is the same for
    every group that reaches leaf ``s``, and the leaf is scaled to a
    primitive vector anyway, so it is left out.  Chain tips get integer
    ids, shared by every term walked, in order of first appearance.
    """

    def __init__(self, ctx: Context, terms):
        self.ctx = ctx
        self.tips: dict[tuple, int] = {}
        # per free parameter: one more choice, and one more right branch
        self.shifts = {p: (_SHIFT, 1 << (2 * a * _W), 1 << (2 * a * _W) | 1 << ((2 * a + 1) * _W))
                       for a, p in enumerate(ctx.params)}
        self.tables = [self.fold(t) for t in terms]
        self.n_min = max([2] + [i + j for binders, _, _ in self.tips for i, j in binders])
        self.k_min = max([0] + [sig >> (2 * a * _W) & _MASK for table in self.tables
                                for sig in table for a in range(len(ctx.params))])

    def fold(self, t: Term) -> dict[int, tuple[int, dict[int, int]]]:
        """The value of the root of ``t``.  A term whose choice nodes are
        all distinct objects, as every parsed term is, is folded once
        without the memo; on one that shares a choice node the fold starts
        over with it.  Folding every term with the memo adds ``_scan``'s
        pass over each node to every decide operation: the benchmark's
        ``decide-ground`` and ``decide-params`` medians rose by 38% and
        35% (2-core x86 VM, Python 3.11)."""
        try:
            return self._fold(t, None, {})
        except _Shared:
            return self._fold(t, *_scan(t))

    def _fold(self, t: Term, free: dict[int, frozenset] | None,
              shared: dict[int, int]) -> dict[int, tuple[int, dict[int, int]]]:
        ctx, tips, shifts = self.ctx, self.tips, self.shifts
        leaf: dict[int, dict] = {}  # the value of each tip id
        seen: set[int] = set()
        memo: dict[tuple, dict] = {}
        pending: dict[str, tuple[int, int]] = {}
        vals: list[dict[int, tuple[int, dict[int, int]]]] = []
        stack: list = [t]
        while stack:
            node = stack.pop()
            cls = type(node)
            if cls is tuple:
                op = node[0]
                if op is _MIX:
                    wl, wr = node[1], node[2]
                    right, left = vals.pop(), vals.pop()
                    total = wl + wr
                    out = {}
                    for sig, grp in left.items():
                        other = right.get(sig)
                        out[sig] = _mix(grp, other, wl, wr, total) if other else \
                            (grp[0] * total, {tip: v * wl for tip, v in grp[1].items()})
                    for sig, grp in right.items():
                        if sig not in left:
                            out[sig] = (grp[0] * total, {tip: v * wr for tip, v in grp[1].items()})
                    vals.append(out)
                elif op is _SHIFT:
                    _, sl, sr = node
                    right, left = vals.pop(), vals.pop()
                    out = {sig + sl: grp for sig, grp in left.items()}
                    for sig, grp in right.items():
                        sig += sr
                        other = out.get(sig)
                        out[sig] = _mix(other, grp, 1, 1, 1) if other else grp
                    vals.append(out)
                elif op is _SET:
                    pending[node[1]] = node[2]
                else:  # _STORE
                    memo[node[1]] = vals[-1]
                continue
            if cls is VarApp:
                tid = tips.setdefault(_first_use(ctx, node.var, node.args, pending), len(tips))
                value = leaf.get(tid)
                if value is None:
                    value = leaf[tid] = {0: (1, {tid: 1})}
                vals.append(value)
                continue
            if cls is Nu:
                # never removed: in a well-formed term a name is read only
                # inside its binder, which has set it on the current path
                pending[node.param] = (node.i, node.j)
                stack.append(node.body)
                continue
            if cls is RatioChoice and not (node.i and node.j):
                stack.append(node.left if node.i else node.right)
                continue
            key = id(node)
            if free is None:
                if key in seen:
                    raise _Shared
                seen.add(key)
            elif key in shared:
                mkey = (key, tuple([(p, pending[p]) for p in free[key] if p in pending]))
                left_over = shared[key] = shared[key] - 1
                if mkey in memo:
                    vals.append(memo.pop(mkey) if left_over <= 0 else memo[mkey])
                    continue
                if left_over > 0:
                    stack.append((_STORE, mkey))
            if cls is RatioChoice:
                stack += ((_MIX, node.i, node.j), node.right, node.left)
                continue
            p = node.param
            ij = pending.get(p)
            if ij is None:  # C3
                stack += (shifts[p], node.right, node.left)
            else:  # Conj
                i, j = ij
                pending[p] = (i + 1, j)
                stack += ((_SET, p, ij), (_MIX, i, j), node.right, (_SET, p, (i, j + 1)), node.left)
        return vals.pop()

    def forms(self, k: int, n: int) -> list[NormalForm]:
        """Normal forms of the walked terms at depth ``k`` and level ``n``,
        over the chains of all of them."""
        ids: dict[tuple, int] = {}
        raised = [_raise_tip(tip, n, ids) for tip in self.tips]
        chains = tuple(sorted([Chain(*key) for key in ids], key=Chain.sort_key))
        cols = [ids[c.binders, c.var, c.argmap] for c in chains]
        binom = [comb(k, s) for s in range(k + 1)]
        forms = []
        for table in self.tables:
            # per group, the lcm of its tips' raised totals; then one
            # denominator for all groups, as every leaf may mix several
            tops = {sig: lcm(*{raised[tip][0] for tip in nums})
                    for sig, (_, nums) in table.items()}
            common = lcm(*{den * tops[sig] for sig, (den, _) in table.items()})
            leaves: dict[tuple[int, ...], dict[int, int]] = {}
            for sig, (den, nums) in table.items():
                top = tops[sig]
                factor = common // (den * top)
                acc: dict[int, int] = {}
                for tip, num in nums.items():
                    total, pairs = raised[tip]
                    scale = num * factor * (top // total)
                    for cid, w in pairs:
                        acc[cid] = acc.get(cid, 0) + scale * w
                cells = [((), 1)]
                for a in range(len(self.ctx.params)):
                    d, r = sig >> (2 * a * _W) & _MASK, sig >> ((2 * a + 1) * _W) & _MASK
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


def _raise_tip(tip: tuple, n: int, ids: dict[tuple, int]) -> tuple[int, list[tuple[int, int]]]:
    """A chain tip raised to level ``n``: the total weight and the
    ``(chain id, weight)`` pairs of its canonical level-``n`` chains, one
    binder mixture per binder, multiplied.  Raising changes hyperparameters
    only, so the argument map and the first-use order stay.  ``ids`` is
    keyed by a chain's ``(binders, var, argmap)`` tuple."""
    binders, var, argmap = tip
    pairs = []
    for combo in itertools.product(*(_binder_weights(i, j, n) for i, j in binders)):
        key = (tuple([c[1:] for c in combo]), var, argmap)
        pairs.append((ids.setdefault(key, len(ids)), prod([w for w, _, _ in combo])))
    return sum(w for _, w in pairs), pairs


# ---------------------------------------------------------------------------
# The full pipeline.


def _normal_forms(ctx: Context, terms: tuple[Term, ...], k: int | None = None,
                  n: int | None = None) -> list[NormalForm]:
    """Check and walk each term, then build all the forms at one depth
    ``k`` and level ``n``, by default the least that fit every term.  The
    check is ``require_wellformed``: a root that ``parse_term`` returned for
    this ``ctx`` object is not walked again, any other term is walked by
    ``check_wellformed``."""
    for t in terms:
        require_wellformed(ctx, t)
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
