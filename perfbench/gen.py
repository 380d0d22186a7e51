"""Term generator and axiom rewriter of the benchmark's own.

Terms are nested tuples, independent of the program's classes:

* ``("v", name, args)``        variable application
* ``("r", i, j, left, right)``  ratio choice
* ``("p", param, left, right)`` bias choice
* ``("n", i, j, param, body)``  binder

Everything the program receives is term text from :func:`emit`.  Equal
pairs come from applying the paper's axioms here (Conj, D1, C3, C4,
ConvexSymm, ConvexIdem and integer scaling); unequal pairs from
``rch[1,1](t, w)`` with ``w`` an arity-0 variable that ``t`` never uses.
Nothing here imports the program or its tests.
"""

from __future__ import annotations

from math import gcd


def var(name, args=()):
    return ("v", name, tuple(args))


def emit(t) -> str:
    """Concrete syntax of a term, without recursion (chains run deep)."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node[0] == "v":
            out.append(f"{node[1]}({','.join(node[2])})" if node[2] else node[1])
        elif node[0] == "r":
            out.append(f"rch[{node[1]},{node[2]}](")
            stack += [")", node[4], ", ", node[3]]
        elif node[0] == "p":
            out.append(f"pch[{node[1]}](")
            stack += [")", node[3], ", ", node[2]]
        else:
            out.append(f"nu[{node[1]},{node[2]}]{node[3]}.")
            stack.append(node[4])
    return "".join(out)


def size(t) -> int:
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        if node[0] in ("r", "p"):
            stack += [node[-2], node[-1]]
        elif node[0] == "n":
            stack.append(node[4])
    return n


def free_params(t) -> frozenset:
    if t[0] == "v":
        return frozenset(t[2])
    if t[0] == "r":
        return free_params(t[3]) | free_params(t[4])
    if t[0] == "p":
        return free_params(t[2]) | free_params(t[3]) | {t[1]}
    return free_params(t[4]) - {t[3]}


def _live(node):
    """Children of a choice that the normalizer walks: it prunes ratio
    branches of weight 0."""
    if node[0] == "r":
        return [b for w, b in ((node[1], node[3]), (node[2], node[4])) if w]
    return [node[2], node[3]]


def choices_per_path(t, free) -> int:
    """Most choices on one free parameter along any path: the depth ``k``
    of the term's normal form."""
    def go(node):
        if node[0] == "v":
            return {}
        if node[0] == "n":
            return go(node[4])
        out = {}
        for side in map(go, _live(node)):
            for p, c in side.items():
                out[p] = max(out.get(p, 0), c)
        if node[0] == "p" and node[1] in free:
            out[node[1]] = out.get(node[1], 0) + 1
        return out

    return max(go(t).values(), default=0)


def oracle_degree(t) -> int:
    """The exact evaluator's sweep degree for ``t`` against its reified
    normal form: max(2, largest binder weight in ``t``, level ``n``), where
    ``n`` is the largest i+j+draws of a binder at a leaf that uses it."""
    best = 2

    def go(node, level):
        nonlocal best
        if node[0] == "v":
            for a in node[2]:
                best = max(best, level.get(a, 0))
        elif node[0] == "n":
            go(node[4], {**level, node[3]: node[1] + node[2]})
        else:
            if node[0] == "p" and node[1] in level:
                level = {**level, node[1]: level[node[1]] + 1}
            for child in _live(node):
                go(child, level)

    go(t, {})
    stack = [t]
    while stack:
        node = stack.pop()
        if node[0] == "n":
            best = max(best, node[1] + node[2])
            stack.append(node[4])
        elif node[0] in ("r", "p"):
            stack += [node[-2], node[-1]]
    return best


class Names:
    """Fresh binder names, unique within one pair of terms."""

    def __init__(self):
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        return f"q{self.count}"


def _weights(rng, wmax):
    while True:
        i, j = rng.randint(0, wmax), rng.randint(0, wmax)
        if i + j:
            return i, j


def random_term(rng, names, scope, vars_, size_, wmax=4, exact=True):
    """A well-formed term of exactly ``size_`` nodes, or of at most
    ``size_`` nodes with ``exact=False`` (leaves may come early, as in the
    tier-1 suite's generator).

    ``vars_`` lists (name, arity) pairs; variables of positive arity are
    only used where a parameter is in scope.
    """

    def leaf(scope):
        choices = [(v, m) for v, m in vars_ if m == 0 or scope]
        v, m = rng.choice(choices)
        return var(v, [rng.choice(scope) for _ in range(m)])

    def binder(scope, budget):
        p = names.fresh()
        return ("n", rng.randint(1, wmax), rng.randint(1, wmax), p,
                go(scope + (p,), budget - 1))

    def go(scope, budget):
        if budget == 1 or (budget == 2 and not exact):
            return leaf(scope)
        if budget == 2:
            return binder(scope, budget)
        kinds = ["rch", "rch", "nu", "nu"] + (["pch"] * 3 if scope else [])
        kind = rng.choice(kinds if exact else ["leaf"] + kinds)
        if kind == "leaf":
            return leaf(scope)
        if kind == "nu":
            return binder(scope, budget)
        split = rng.randint(1, budget - 2)
        left, right = go(scope, split), go(scope, budget - 1 - split)
        if kind == "rch":
            return ("r", *_weights(rng, wmax), left, right)
        return ("p", rng.choice(scope), left, right)

    return go(tuple(scope), size_)


def nested_draws(rng, names, draws, leaves=("y", "z")):
    """``draws`` successive choices on one bound parameter."""
    p = names.fresh()
    body = var(rng.choice(leaves))
    for _ in range(draws):
        other = var(rng.choice(leaves))
        body = ("p", p, body, other) if rng.random() < 0.5 else ("p", p, other, body)
    return ("n", rng.randint(1, 3), rng.randint(1, 3), p, body)


def balanced(rng, names, depth, binders=2, leaves=("x", "y", "z")):
    """A complete binary tree of bias choices on a few bound parameters."""
    ps = [names.fresh() for _ in range(binders)]

    def go(d):
        if d == 0:
            return var(rng.choice(leaves))
        return ("p", rng.choice(ps), go(d - 1), go(d - 1))

    t = go(depth)
    for p in reversed(ps):
        t = ("n", rng.randint(1, 3), rng.randint(1, 3), p, t)
    return t


def spine(rng, params, per_param, vars_):
    """A right comb of ``per_param`` bias choices on each free parameter,
    interleaved in random order, with a ratio choice every third node."""
    picks = [p for p in params for _ in range(per_param)]
    rng.shuffle(picks)

    def leaf():
        v, m = rng.choice(vars_)
        return var(v, [rng.choice(params) for _ in range(m)])

    t = leaf()
    for pos, p in enumerate(picks):
        t = ("p", p, leaf(), t) if rng.random() < 0.5 else ("p", p, t, leaf())
        if pos % 3 == 2:
            t = ("r", rng.randint(1, 3), rng.randint(1, 3), leaf(), t)
    return t


def ratio_chain_text(depth: int) -> tuple[str, str]:
    """A ``depth``-deep ``rch[1,2](z, .)`` chain ending in ``y`` and its
    closed form ``rch[2^d, 3^d-2^d](y, z)`` (y has mass (2/3)^d)."""
    chain = "rch[1,2](z, " * depth + "y" + ")" * depth
    return chain, f"rch[{2 ** depth},{3 ** depth - 2 ** depth}](y, z)"


# ---------------------------------------------------------------------------
# Rewriting with the axioms.  Each rule maps a subterm to a derivably equal
# one or returns None when it does not apply there.


def _symm(rng, names, t):
    if t[0] == "r":
        return ("r", t[2], t[1], t[4], t[3])


def _scale(rng, names, t):
    if t[0] != "r":
        return None
    g = gcd(t[1], t[2])
    if g > 1 and rng.random() < 0.5:
        return ("r", t[1] // g, t[2] // g, t[3], t[4])
    f = rng.randint(2, 3)
    return ("r", f * t[1], f * t[2], t[3], t[4])


def _idem(rng, names, t):
    if t[0] == "r" and t[3] == t[4]:
        return t[3]
    if size(t) <= 12:
        return ("r", *_weights(rng, 4), t, t)


def _d1(rng, names, t):
    if t[0] == "n" and t[3] not in free_params(t[4]):
        return t[4]
    return ("n", rng.randint(1, 4), rng.randint(1, 4), names.fresh(), t)


def _conj(rng, names, t):
    if t[0] == "n" and t[4][0] == "p" and t[4][1] == t[3]:
        i, j, p, (_, _, a, b) = t[1], t[2], t[3], t[4]
        return ("r", i, j, ("n", i + 1, j, p, a), ("n", i, j + 1, p, b))
    if t[0] == "r" and t[3][0] == "n" and t[4][0] == "n":
        i, j, left, right = t[1:]
        if (i >= 1 and j >= 1 and left[3] == right[3]
                and left[1:3] == (i + 1, j) and right[1:3] == (i, j + 1)):
            return ("n", i, j, left[3], ("p", left[3], left[4], right[4]))


def _commute(kind):
    """C3 (``kind`` "p") and C4 (``kind`` "r"): a binder past a choice."""

    def rule(rng, names, t):
        if t[0] == "n" and t[4][0] == kind and (kind == "r" or t[4][1] != t[3]):
            i, j, p, body = t[1:]
            return (*body[:-2], ("n", i, j, p, body[-2]), ("n", i, j, p, body[-1]))
        if t[0] == kind and t[-2][0] == "n" and t[-1][0] == "n":
            left, right = t[-2], t[-1]
            if left[1:4] == right[1:4] and (kind == "r" or t[1] != left[3]):
                return ("n", *left[1:4], (*t[:-2], left[4], right[4]))

    return rule


RULES = (_symm, _scale, _idem, _d1, _conj, _commute("p"), _commute("r"))


def _positions(t):
    out = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        out.append(path)
        if node[0] in ("r", "p"):
            stack += [(node[-2], path + (-2,)), (node[-1], path + (-1,))]
        elif node[0] == "n":
            stack.append((node[4], path + (-1,)))
    return out


def _at(t, path):
    for sel in path:
        t = t[sel]
    return t


def _replace(t, path, new):
    if not path:
        return new
    sel = path[0]
    inner = _replace(t[sel], path[1:], new)
    return t[:sel] + (inner,) if sel == -1 else t[:-2] + (inner, t[-1])


def rewrite(rng, names, t, steps):
    """Apply ``steps`` random axiom steps at random positions."""
    for _ in range(steps):
        paths = _positions(t)
        for _attempt in range(200):
            path = rng.choice(paths)
            new = rng.choice(RULES)(rng, names, _at(t, path))
            if new is not None:
                t = _replace(t, path, new)
                break
    return t


def unequal(t, w="w"):
    """Unequal by construction: ``rch[1,1](t, w)`` with ``w`` unused in ``t``."""
    return ("r", 1, 1, t, var(w))
