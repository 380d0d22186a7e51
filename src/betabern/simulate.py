"""Operational Monte-Carlo semantics for closed ground terms.

Two interchangeable samplers:

* ``polya`` keeps a mutable urn per live binder: a draw returns the drawn
  ball together with a duplicate, so the counts evolve;
* ``betabern`` samples the binder's bias once from Beta(i, j) (as the i-th
  smallest of i+j-1 uniforms, exact for integer hyperparameters) and flips
  that coin for every use.

Both run one loop over a table of the term's nodes, compiled once per call.
``compare`` runs either sampler against the exact leaf distribution read
off the term's normal form, with a Pearson chi-square test at the 0.1%
significance level.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .normalizer import normalize
from .terms import Context, Nu, RatioChoice, Term, TermError, VarApp, postorder, require_wellformed

SIGNIFICANCE = 0.001
MIN_EXPECTED = 5.0


class _ChiSquare:
    """Chi-square distribution for integer degrees of freedom.

    The survival function has a closed form: with ``h = x/2`` it is
    ``exp(-h)`` times a sum of ``h^a / Gamma(a+1)`` over ``a = 0..dof/2-1``
    for even ``dof`` (a Poisson tail), and ``erfc(sqrt(h))`` plus the same
    sum over ``a = 1/2..(dof-2)/2`` for odd ``dof``.  Terms are formed in
    log space so ``exp(-h)`` cannot underflow at large ``dof``.
    """

    @staticmethod
    def sf(x: float, dof: int) -> float:
        if x <= 0:
            return 1.0
        h = x / 2
        log_h = math.log(h)
        head = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
        offset = (dof % 2) / 2
        return head + sum(math.exp((a + offset) * log_h - h - math.lgamma(a + offset + 1))
                          for a in range(dof // 2))

    def ppf(self, q: float, dof: int) -> float:
        """The ``q`` quantile, by bisection down to float resolution."""
        target = 1 - q
        lo, hi = 0.0, float(dof)
        while self.sf(hi, dof) > target:
            lo, hi = hi, 2 * hi
        while True:
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                return hi
            if self.sf(mid, dof) > target:
                lo = mid
            else:
                hi = mid


chi2 = _ChiSquare()


def check_ground(ctx: Context, t: Term) -> None:
    """Well-formed closed ground terms: the context has no parameters, so
    none is free in the term, and every variable has arity 0."""
    if ctx.params:
        raise TermError("ground simulation needs a parameter-free context")
    for name, arity in ctx.vars:
        if arity:
            raise TermError(f"ground simulation needs arity 0, but {name}:{arity}")
    require_wellformed(ctx, t)


def _check_run(trials: int, impl: str) -> None:
    if trials < 1:
        raise TermError("trials must be at least 1")
    if impl not in ("polya", "betabern"):
        raise TermError(f"unknown implementation {impl!r}")


def _compile(t: Term) -> tuple[list[tuple], list[str], int]:
    """Rows ``(kind, x, y, left, right)`` of the term's node objects in
    :func:`postorder`, so the root's row is last, branches as row indices;
    the leaf names; the number of state cells.

    Kinds: 0 a leaf, ``x`` indexing the names; 1 ``rch[i,j]``, ``x, y = i,
    i + j``; 2 ``pch[p]``, ``x, y`` the two cells of ``p``; 3 ``nu[i,j]p``,
    ``x, y = i, j``, body at ``left``, first cell of ``p`` at ``right``.  The
    cells hold an urn's two counts or a bias.  A well-formed term binds a
    name once along a path, so one cell pair per name serves its binders."""
    nodes = postorder(t)
    row_of = {id(node): n for n, node in enumerate(nodes)}
    rows = []
    leaves, slots = {}, {}  # variable -> leaf index, binder name -> slot
    for node in nodes:
        kind = type(node)
        if kind is VarApp:
            rows.append((0, leaves.setdefault(node.var, len(leaves)), 0, 0, 0))
        elif kind is Nu:
            cell = 2 * slots.setdefault(node.param, len(slots))
            rows.append((3, node.i, node.j, row_of[id(node.body)], cell))
        elif kind is RatioChoice:
            rows.append((1, node.i, node.i + node.j, row_of[id(node.left)], row_of[id(node.right)]))
        else:
            cell = 2 * slots.setdefault(node.param, len(slots))
            rows.append((2, cell, cell + 1, row_of[id(node.left)], row_of[id(node.right)]))
    return rows, list(leaves), 2 * len(slots)


def _tally(t: Term, rng, trials: int, polya: bool) -> dict[str, int]:
    """Counts of the leaves hit in ``trials`` runs.  A run calls ``rnd()`` once
    per choice and ``i + j - 1`` times per Beta binder, in path order."""
    rows, leaves, size = _compile(t)
    rnd = rng.random
    state = [0] * size
    hits = [0] * len(leaves)
    for _ in range(trials):
        kind, x, y, left, right = rows[-1]
        while kind:
            if kind == 2:
                if not polya:
                    kind, x, y, left, right = rows[left if rnd() < state[x] else right]
                    continue
                a, b = state[x], state[y]
                if rnd() * (a + b) < a:
                    state[x] = a + 1
                    kind, x, y, left, right = rows[left]
                else:
                    state[y] = b + 1
                    kind, x, y, left, right = rows[right]
            elif kind == 1:
                kind, x, y, left, right = rows[left if rnd() * y < x else right]
            else:
                if polya:
                    state[right], state[right + 1] = x, y
                elif x + y == 2:
                    state[right] = rnd()
                else:
                    state[right] = sorted([rnd() for _ in range(x + y - 1)])[x - 1]
                kind, x, y, left, right = rows[left]
        hits[x] += 1
    return {name: n for name, n in zip(leaves, hits) if n}


def run_polya(t: Term, rng: random.Random) -> str:
    """One run, drawing from evolving urns; returns the leaf variable."""
    return next(iter(_tally(t, rng, 1, True)))


def run_betabern(t: Term, rng: random.Random) -> str:
    """One run, sampling each binder's bias once; returns the leaf variable."""
    return next(iter(_tally(t, rng, 1, False)))


def estimate(ctx: Context, t: Term, trials: int, seed: int, impl: str) -> dict[str, int]:
    """Leaf counts over seeded trials; deterministic given the inputs."""
    check_ground(ctx, t)
    _check_run(trials, impl)
    hits = _tally(t, random.Random(seed), trials, impl == "polya")
    return {name: hits.get(name, 0) for name, _ in ctx.vars}


def exact_distribution(ctx: Context, t: Term) -> dict[str, Fraction]:
    """Leaf probabilities from the normal form: a ground term normalizes to
    a single multichoice over the arity-0 variables."""
    check_ground(ctx, t)
    nf = normalize(ctx, t)
    leaf = nf.leaf_fractions(())
    out = {name: Fraction(0) for name, _ in ctx.vars}
    for chain, mass in leaf.items():
        assert chain.dimension == 0 and not chain.argmap
        out[chain.var] += mass
    return out


@dataclass
class TrialReport:
    counts: dict[str, int]
    expected: dict[str, Fraction]
    trials: int
    impl: str
    seed: int
    chi_square: float
    dof: int
    passed: bool

    def lines(self) -> list[str]:
        out = [
            f"impl: {self.impl}  trials: {self.trials}  seed: {self.seed}",
            f"chi-square: {self.chi_square:.6f}  dof: {self.dof}  "
            f"pass: {'yes' if self.passed else 'no'}",
        ]
        for name in self.counts:
            out.append(f"leaf {name} {self.counts[name]} {self.expected[name]}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def chi_square_stat(counts: dict[str, int], expected: dict[str, Fraction],
                    trials: int) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom after merging small cells.

    Cells with expected count below 5 are merged smallest-first until every
    remaining cell is large enough; zero-probability cells always merge.
    """
    cells = [(float(expected[name]) * trials, counts.get(name, 0))
             for name in expected]
    cells.sort()
    merged: list[tuple[float, int]] = []
    carry_exp, carry_obs = 0.0, 0
    for exp, obs in cells:
        carry_exp += exp
        carry_obs += obs
        if carry_exp >= MIN_EXPECTED:
            merged.append((carry_exp, carry_obs))
            carry_exp, carry_obs = 0.0, 0
    if carry_exp or carry_obs:
        if merged:
            exp, obs = merged.pop()
            merged.append((exp + carry_exp, obs + carry_obs))
        else:
            merged.append((carry_exp, carry_obs))
    stat = sum((obs - exp) ** 2 / exp for exp, obs in merged if exp > 0)
    return stat, max(len(merged) - 1, 0)


def compare_counts(counts: dict[str, int], expected: dict[str, Fraction],
                   trials: int, impl: str, seed: int) -> TrialReport:
    stat, dof = chi_square_stat(counts, expected, trials)
    threshold = float(chi2.ppf(1 - SIGNIFICANCE, dof)) if dof > 0 else 0.0
    passed = stat <= threshold if dof > 0 else stat == 0.0
    return TrialReport(counts, expected, trials, impl, seed, stat, dof, passed)


def compare(ctx: Context, t: Term, trials: int, seed: int, impl: str) -> TrialReport:
    """Sample the term and test the counts against its exact distribution."""
    _check_run(trials, impl)
    expected = exact_distribution(ctx, t)
    # merging small cells handles the rest, but refuse hopeless sample sizes
    if trials * max(expected.values()) < MIN_EXPECTED and sum(map(bool, expected.values())) > 1:
        raise TermError(f"trials={trials} too small for this distribution")
    counts = estimate(ctx, t, trials, seed, impl)
    return compare_counts(counts, expected, trials, impl, seed)
