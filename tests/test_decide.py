"""Decision procedure: golden verdicts, relational laws, oracle agreement."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from betabern import (
    Nu,
    ParamChoice,
    RatioChoice,
    Term,
    VarApp,
    equal,
    parse_context,
    parse_term,
    substitute,
)
import test_axioms
from betabern import apply_axiom
from betabern.decide import _power
from betabern.normalizer import _MASK, _W, _LeafWalk, join_normalize, normalize
from betabern.papersuite import von_neumann_term
from betabern.poly import Poly
from betabern.semantics import functional_eq, to_bernstein
from betabern.terms import TermError, format_term
from refnorm import equal_by_forms
from termgen import CONTEXTS, gen_term, rewrite_chain, spine

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

XY = parse_context("params: p ; vars: x:0, y:0")


def von_neumann_round(ctx, t: Term) -> Term:
    """(t ?p x) ?p (y ?p t)"""
    x, y = VarApp("x"), VarApp("y")
    return ParamChoice("p", ParamChoice("p", t, x), ParamChoice("p", y, t))


class TestGoldenVerdicts:
    def test_von_neumann_fixed_point(self):
        fair = parse_term("rch[1,1](x,y)", XY)
        verdict = equal(XY, fair, von_neumann_term(XY))
        assert verdict.equal and verdict.witness is None

    def test_von_neumann_uniqueness(self):
        # no other primitive weighting is fixed by the biased-coin round
        from math import gcd

        for w1 in range(0, 7):
            for w2 in range(0, 7 - w1):
                if (w1, w2) in ((0, 0), (1, 1)) or w1 == w2 or gcd(w1, w2) != 1:
                    continue
                candidate = RatioChoice(w1, w2, VarApp("x"), VarApp("y"))
                verdict = equal(XY, candidate, von_neumann_round(XY, candidate))
                assert not verdict.equal, (w1, w2)

    def test_diagonal_vs_independent(self):
        ctx = parse_context("params: - ; vars: x:2")
        verdict = equal(ctx, parse_term("nu[1,1]p.x(p,p)", ctx),
                        parse_term("nu[1,1]p.nu[1,1]q.x(p,q)", ctx))
        assert not verdict.equal
        assert verdict.witness is not None
        assert verdict.witness.left_weight != verdict.witness.right_weight

    def test_witness_is_first_difference(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        verdict = equal(ctx, parse_term("pch[p](x, y)", ctx),
                        parse_term("pch[p](y, x)", ctx))
        assert not verdict.equal
        assert verdict.witness.index == (0,)
        assert verdict.witness.column == 0

    def test_reflexivity(self):
        rng = random.Random(2)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        for _ in range(10):
            t = gen_term(rng, ctx, 15, weight_max=3)
            assert equal(ctx, t, t).equal

    def test_ill_formed_propagates(self):
        with pytest.raises(TermError):
            equal(XY, VarApp("bogus"), VarApp("x"))


class TestRelationalLaws:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_symmetry(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = gen_term(rng, ctx, 10, weight_max=3)
        u = gen_term(rng, ctx, 10, weight_max=3)
        assert equal(ctx, t, u).equal == equal(ctx, u, t).equal

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_transitivity_on_rewrite_chains(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = gen_term(rng, ctx, 10, weight_max=3)
        u = rewrite_chain(rng, ctx, t, 3)
        v = rewrite_chain(rng, ctx, u, 3)
        assert equal(ctx, t, u).equal and equal(ctx, u, v).equal
        assert equal(ctx, t, v).equal

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_congruence(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = gen_term(rng, ctx, 8, weight_max=3)
        u = rewrite_chain(rng, ctx, t, rng.randint(1, 5))
        hole_ctx = rng.choice(["rch", "pch", "nu"])
        filler = gen_term(rng, ctx, 6, weight_max=3)
        if hole_ctx == "rch":
            wrap = lambda s: RatioChoice(2, 3, filler, s)
        elif hole_ctx == "pch":
            wrap = lambda s: ParamChoice("p", s, filler)
        else:
            wrap = lambda s: Nu(1, 2, "w", s)
        assert equal(ctx, wrap(t), wrap(u)).equal

    def test_substitutivity_instance(self):
        # substituting equals into the same template keeps equality
        tpl_ctx = parse_context("params: p ; vars: h:0, x:0, y:0")
        template = parse_term("pch[p](h, rch[1,2](h, x))", tpl_ctx)
        target = parse_context("params: p ; vars: x:0, y:0")
        a = parse_term("rch[2,4](x, y)", target)
        b = parse_term("rch[1,2](x, y)", target)
        assert equal(target, substitute(template, {"h": ((), a)}),
                     substitute(template, {"h": ((), b)})).equal


class TestAxiomClosure:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_axiom_instances_decide_equal(self, seed):
        rng = random.Random(seed)
        axiom = rng.choice(test_axioms.AXIOM_NAMES)
        lhs = test_axioms.random_instance(rng, axiom, size=7, wmax=4)
        rhs = apply_axiom(lhs, test_axioms.rs(axiom))
        assert equal(test_axioms.SCHEME_CTX, lhs, rhs).equal


class TestOracleAgreement:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_independent_pairs(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p, q ; vars: x:2, y:0")
        t = gen_term(rng, ctx, 11, weight_max=3)
        u = gen_term(rng, ctx, 11, weight_max=3)
        assert equal(ctx, t, u).equal == functional_eq(ctx, t, u)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_rewritten_pairs(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = gen_term(rng, ctx, 10, weight_max=3)
        u = rewrite_chain(rng, ctx, t, rng.randint(1, 6))
        assert equal(ctx, t, u).equal
        assert functional_eq(ctx, t, u)


PARAM_CONTEXTS = [ctx for ctx in CONTEXTS if ctx.params]


def random_pair(rng, ctx, kind):
    """Two terms over ``ctx``: drawn independently, one a rewrite of the
    other, or ``pch[p](t, a)`` against ``pch[p](t, b)``, which agree where
    ``p`` is 1, so at every leaf whose count for ``p`` is 0."""
    t = gen_term(rng, ctx, rng.randint(1, 25), weight_max=3)
    if kind == "rewritten":
        return t, rewrite_chain(rng, ctx, t, rng.randint(1, 4))
    if kind == "independent":
        return t, gen_term(rng, ctx, rng.randint(1, 25), weight_max=3)
    p = rng.choice(ctx.params)
    a, b = (gen_term(rng, ctx, rng.randint(1, 12), weight_max=3) for _ in range(2))
    return ParamChoice(p, t, a), ParamChoice(p, t, b)


class TestPowerBasis:
    """``equal`` compares the terms' polynomials in the power basis and
    scans the leaves only for a witness; the dense comparison of both
    joint normal forms is the reference."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["independent", "rewritten", "late"]))
    def test_same_verdict_and_witness_as_the_dense_forms(self, seed, kind):
        rng = random.Random(seed)
        ctx = rng.choice(PARAM_CONTEXTS)
        t, u = random_pair(rng, ctx, kind)
        for a, b in ((t, u), (u, t)):
            verdict = equal(ctx, a, b)
            assert (verdict.equal, verdict.witness) == equal_by_forms(ctx, a, b)
            if kind == "rewritten":
                assert verdict.equal
            if kind == "late" and not verdict.equal:
                assert any(verdict.witness.index)
            left, right = join_normalize(ctx, a, b)
            assert (verdict.k, verdict.n) == (left.k, left.n)
            assert (verdict.left, verdict.right) == (left, right)

    def test_first_difference_past_the_first_leaf(self):
        # the forms agree at I=(0) and I=(3) and differ at I=(1) and I=(2)
        ctx = parse_context("params: p ; vars: x:0, y:0, z:0")
        t = parse_term("pch[p](pch[p](pch[p](x, x), x), pch[p](y, x))", ctx)
        u = parse_term("pch[p](pch[p](pch[p](x, x), x), pch[p](z, x))", ctx)
        verdict = equal(ctx, t, u)
        assert (verdict.equal, verdict.witness) == equal_by_forms(ctx, t, u)
        assert verdict.witness.index == (1,) and verdict.k == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_power_basis_is_the_normal_form(self, seed):
        # each chain's power-basis polynomial, changed to the degree-k
        # Bernstein basis, gives that chain's leaf fractions
        rng = random.Random(seed)
        ctx = rng.choice(PARAM_CONTEXTS)
        t = gen_term(rng, ctx, rng.randint(1, 25), weight_max=3)
        walk = _LeafWalk(ctx, (t,))
        ids, ((common, groups),) = walk.groups(walk.n_min)
        poly = _power(common, groups, len(ctx.params))
        nf = normalize(ctx, t)
        axes = range(len(ctx.params))
        for chain in nf.chains:
            cid = ids[chain.binders, chain.var, chain.argmap]
            p = Poly.make(ctx.params, {tuple(e >> (2 * a * _W) & _MASK for a in axes):
                                       Fraction(vec.get(cid, 0), common)
                                       for e, vec in poly.items()})
            table, _ = to_bernstein(p, nf.k, ctx.params)
            assert table == {index: nf.leaf_fractions(index).get(chain, 0)
                             for index in nf.indices()}

    def test_leaf_mass_in_the_power_basis(self):
        # summed over the chains, every monomial but the constant one is 0
        ctx = parse_context("params: p ; vars: x:0, y:0")
        walk = _LeafWalk(ctx, (parse_term("pch[p](x, rch[1,2](x, y))", ctx),))
        _, ((common, groups),) = walk.groups(walk.n_min)
        assert common == 3
        # x is 3p + (1-p), y is 2(1-p), over 3
        assert _power(common, groups, 1) == {0: {0: 1, 1: 2}, 1: {0: 2, 1: -2}}
        sig, acc = groups[0]
        with pytest.raises(AssertionError, match="leaf mass must be 1"):
            _power(common, [(sig, {cid: 2 * v for cid, v in acc.items()}), *groups[1:]], 1)

    def test_equal_pair_builds_no_grid(self, monkeypatch):
        def no_grid(*_):
            raise AssertionError("equal built the dense normal forms")

        ctx, t = spine(5)
        monkeypatch.setattr(_LeafWalk, "forms", no_grid)
        verdict = equal(ctx, t, parse_term(format_term(t), ctx))
        assert verdict.equal and verdict.witness is None and verdict.k == 4

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_seven_parameter_spine_in_budget(self):
        # the dense grid has 5^7 cells; the power basis a few thousand terms
        code = """if True:
            import sys, time
            sys.path.insert(0, "tests")
            from betabern import equal, parse_term
            from betabern.terms import format_term
            from termgen import spine
            ctx, t = spine(7)
            u = parse_term(format_term(t), ctx)
            started = time.time()
            verdict = equal(ctx, t, u)
            elapsed = time.time() - started
            assert verdict.equal and verdict.k == 4
            with open("/proc/self/status") as status:
                peak_kb = next(int(line.split()[1]) for line in status
                               if line.startswith("VmHWM:"))
            print(elapsed, peak_kb / 1024)
        """
        root = os.path.dirname(SRC)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=root, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        elapsed, peak_mb = map(float, proc.stdout.split())
        # the interpreter and betabern take about 16 MB of it
        assert peak_mb < 40, f"peak RSS {peak_mb:.0f} MB"
        assert elapsed < 0.5, f"equal took {elapsed:.2f}s"
