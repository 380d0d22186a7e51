"""Random well-formed terms, arguments, and rewrite steps for tests."""

from __future__ import annotations

import random
import re

from betabern import (
    AXIOM_NAMES,
    AxiomError,
    Context,
    Nu,
    ParamChoice,
    RatioChoice,
    RewriteStep,
    Term,
    VarApp,
    apply_axiom,
    parse_context,
)
from betabern.terms import subterm_at

# Contexts that randomized tests draw terms over: ground variables only,
# one parameter with a unary variable, and two parameters with mixed
# arities.
CONTEXTS = tuple(parse_context(text) for text in (
    "params: - ; vars: y:0, z:0, w:0",
    "params: p ; vars: x:1, y:0",
    "params: p, q ; vars: x:2, y:0, z:1",
))


def spine(ell: int, per_param: int = 4) -> tuple[Context, Term]:
    """A seeded right comb of ``per_param`` bias choices on each of ``ell``
    parameters, interleaved, with a ratio choice every third node.  The
    ``reify`` of its normal form shares subterms."""
    params = tuple(f"p{a + 1}" for a in range(ell))
    ctx = parse_context(f"params: {', '.join(params)} ; vars: x:2, y:1, z:0")
    rng = random.Random(5)

    def leaf():
        var = rng.choice("xyz")
        return VarApp(var, tuple(rng.choice(params) for _ in range("zyx".index(var))))

    picks = [p for p in params for _ in range(per_param)]
    rng.shuffle(picks)
    t = leaf()
    for pos, p in enumerate(picks):
        t = ParamChoice(p, leaf(), t) if pos % 2 else ParamChoice(p, t, leaf())
        if pos % 3 == 2:
            t = RatioChoice(1 + pos % 3, 2, leaf(), t)
    return ctx, t


SHARED_BINDERS_CTX = parse_context("params: - ; vars: x:1, y:0")


def shared_binders(depth: int, prefix: str = "p") -> Term:
    """``t_k = nu[1,1]p_k.pch[p_k](t_{k-1}, rch[1,1](t_{k-1}, x(p_k)))`` for
    ``k = depth``, with ``t_0 = y``, over ``SHARED_BINDERS_CTX``.  Both uses
    of ``t_{k-1}`` are one node object, a binder, so as a tree the term has
    about ``2^depth`` nodes."""
    t: Term = VarApp("y")
    for k in range(1, depth + 1):
        p = f"{prefix}{k}"
        t = Nu(1, 1, p, ParamChoice(p, t, RatioChoice(1, 1, t, VarApp("x", (p,)))))
    return t


def term_size(t: Term) -> int:
    if isinstance(t, VarApp):
        return 1
    if isinstance(t, (RatioChoice, ParamChoice)):
        return 1 + term_size(t.left) + term_size(t.right)
    return 1 + term_size(t.body)


def gen_term(rng: random.Random, ctx: Context, size: int, weight_max: int = 4,
             scope: tuple[str, ...] | None = None) -> Term:
    """A well-formed term with at most ``size`` nodes."""
    fresh_counter = [0]
    taken = set(ctx.all_names())

    def fresh_name() -> str:
        while True:
            fresh_counter[0] += 1
            name = f"q{fresh_counter[0]}"
            if name not in taken:
                taken.add(name)
                return name

    def leaf(scope: tuple[str, ...]) -> Term:
        candidates = [(v, m) for v, m in ctx.vars if m == 0 or scope]
        var, arity = rng.choice(candidates)
        args = tuple(rng.choice(scope) for _ in range(arity))
        return VarApp(var, args)

    def positive_pair() -> tuple[int, int]:
        while True:
            i, j = rng.randint(0, weight_max), rng.randint(0, weight_max)
            if i + j > 0:
                return i, j

    def go(scope: tuple[str, ...], budget: int) -> Term:
        if budget < 3:
            return leaf(scope)
        kinds = ["leaf", "rch", "rch", "nu", "nu"]
        if scope:
            kinds += ["pch", "pch", "pch"]
        kind = rng.choice(kinds)
        if kind == "leaf":
            return leaf(scope)
        if kind == "nu":
            name = fresh_name()
            i = rng.randint(1, weight_max)
            j = rng.randint(1, weight_max)
            return Nu(i, j, name, go(scope + (name,), budget - 1))
        split = rng.randint(1, budget - 2)
        left = go(scope, split)
        right = go(scope, budget - 1 - split)
        if kind == "rch":
            i, j = positive_pair()
            return RatioChoice(i, j, left, right)
        return ParamChoice(rng.choice(scope), left, right)

    return go(scope if scope is not None else ctx.params, size)


def gen_ground_term(rng: random.Random, ctx: Context, size: int,
                    weight_max: int = 3) -> Term:
    """Closed ground term: binders and choices over arity-0 variables."""
    return gen_term(rng, ctx, size, weight_max, scope=())


def scope_at(ctx: Context, t: Term, path) -> tuple[str, ...]:
    scope = ctx.params
    node = t
    for sel in path:
        if sel == "b":
            scope = scope + (node.param,)
            node = node.body
        elif sel == "l":
            node = node.left
        else:
            node = node.right
    return scope


def all_paths(t: Term, prefix=()):
    yield prefix
    if isinstance(t, (RatioChoice, ParamChoice)):
        yield from all_paths(t.left, prefix + ("l",))
        yield from all_paths(t.right, prefix + ("r",))
    elif isinstance(t, Nu):
        yield from all_paths(t.body, prefix + ("b",))


def random_rewrite(rng: random.Random, ctx: Context, t: Term,
                   size_cap: int = 90) -> tuple[Term, RewriteStep]:
    """Apply one random applicable axiom step (either direction)."""
    paths = list(all_paths(t))
    growing = term_size(t) >= size_cap
    attempts = 0
    while True:
        attempts += 1
        if attempts > 500:
            raise AssertionError("no applicable rewrite found")
        path = rng.choice(paths)
        mode = rng.randrange(8)
        if mode < 5:
            axiom = rng.choice(AXIOM_NAMES)
            direction = rng.choice(("lr", "rl"))
            step = RewriteStep(axiom, direction, path)
        elif mode == 5 and not growing:
            step = RewriteStep("ConvexIdem", "rl", path,
                               {"i": rng.randint(1, 4), "j": rng.randint(0, 4)})
        elif mode == 6:
            scope = scope_at(ctx, t, path)
            if not scope and not growing:
                step = RewriteStep("D1", "rl", path,
                                   {"i": rng.randint(1, 4), "j": rng.randint(1, 4),
                                    "p": "w1"})
            elif scope:
                step = RewriteStep("D2", "rl", path, {"p": rng.choice(scope)})
            else:
                continue
        else:
            if growing:
                continue
            y = subterm_at(t, path) if rng.random() < 0.5 else None
            if y is None:
                zero_vars = [v for v, m in ctx.vars if m == 0]
                if not zero_vars:
                    continue
                y = VarApp(rng.choice(zero_vars))
            step = RewriteStep("ConvexZero", "rl", path, {"i": rng.randint(1, 4), "y": y})
        try:
            return apply_axiom(t, step), step
        except AxiomError:
            continue


def rewrite_chain(rng: random.Random, ctx: Context, t: Term, steps: int) -> Term:
    for _ in range(steps):
        t, _ = random_rewrite(rng, ctx, t)
    return t


# What ``mutate`` inserts: every kind of token, names that are reserved or
# out of scope, characters outside the grammar, other whitespace, and
# numerals at and over the digit limit, alone and inside an identifier.
MUTATION_PIECES = (
    "rch", "pch", "nu", "params", "vars", "x", "y", "z", "p", "q1", "w", "[", "]", "(", ")",
    ",", ".", ";", ":", "-", "0", "1", "7", "42", "_", "1_", "x_1", "@", "#", "\u00e9", "\u00b2",
    "\t", "\n ", "\u00a0", "1" * 4300, "9" * 4301, "z" + "0" * 4301,
)
_PIECE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|\S")


def mutate(rng: random.Random, text: str, edits: int) -> str:
    """``text`` after ``edits`` random edits, each inserting or deleting a
    token or a character, or inserting a piece of ``MUTATION_PIECES``."""
    for _ in range(edits):
        kind = rng.randrange(5)
        spans = [m.span() for m in _PIECE_RE.finditer(text)] or [(0, 0)]
        if kind == 0:  # delete a token
            a, b = rng.choice(spans)
            text = text[:a] + text[b:]
        elif kind == 1:  # insert a copy of a token of the text
            a, b = rng.choice(spans)
            at = rng.choice(spans)[rng.randrange(2)]
            text = text[:at] + text[a:b] + text[at:]
        elif kind == 2:  # delete a character
            at = rng.randrange(len(text) + 1)
            text = text[:at] + text[at + 1:]
        elif kind == 3:  # insert a copy of a character of the text
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(text or " ") + text[at:]
        else:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(MUTATION_PIECES) + text[at:]
    return text
