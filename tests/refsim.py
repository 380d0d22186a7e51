"""Reference samplers, written the long way as the semantics reads.

``betabern.simulate`` compiles a term once per call into a table of plain
tuples, gives every binder name an integer slot in one preallocated list,
and runs both samplers in one loop over the rows.  The reference here
walks the term objects themselves, dispatching on each node's type, and
keeps a fresh dict of urns or biases per trial.  Both must call
``rng.random()`` equally often, in the same order, and compare with the
same expressions, so their seeded counts agree exactly.  Tests compare the
two.
"""

from __future__ import annotations

import random

from betabern.terms import Context, Nu, ParamChoice, RatioChoice, Term, VarApp


def run_polya(t: Term, rng: random.Random) -> str:
    """One run, drawing from evolving urns; returns the leaf variable."""
    urns: dict[str, list[int]] = {}
    while not isinstance(t, VarApp):
        if isinstance(t, RatioChoice):
            t = t.left if rng.random() * (t.i + t.j) < t.i else t.right
        elif isinstance(t, ParamChoice):
            urn = urns[t.param]
            if rng.random() * (urn[0] + urn[1]) < urn[0]:
                urn[0] += 1
                t = t.left
            else:
                urn[1] += 1
                t = t.right
        else:
            assert isinstance(t, Nu)
            urns[t.param] = [t.i, t.j]
            t = t.body
    return t.var


def _sample_beta(i: int, j: int, rng: random.Random) -> float:
    """Beta(i, j) as the i-th smallest of i+j-1 uniforms."""
    draws = sorted(rng.random() for _ in range(i + j - 1))
    return draws[i - 1]


def run_betabern(t: Term, rng: random.Random) -> str:
    """One run, sampling each binder's bias once; returns the leaf variable."""
    bias: dict[str, float] = {}
    while not isinstance(t, VarApp):
        if isinstance(t, RatioChoice):
            t = t.left if rng.random() * (t.i + t.j) < t.i else t.right
        elif isinstance(t, ParamChoice):
            t = t.left if rng.random() < bias[t.param] else t.right
        else:
            assert isinstance(t, Nu)
            bias[t.param] = _sample_beta(t.i, t.j, rng)
            t = t.body
    return t.var


RUNNERS = {"polya": run_polya, "betabern": run_betabern}


def estimate(ctx: Context, t: Term, trials: int, seed: int, impl: str) -> dict[str, int]:
    """Leaf counts over seeded trials of the reference runner."""
    run = RUNNERS[impl]
    rng = random.Random(seed)
    counts = {name: 0 for name, _ in ctx.vars}
    for _ in range(trials):
        counts[run(t, rng)] += 1
    return counts
