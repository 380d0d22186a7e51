"""Normalization stages, golden forms, uniqueness, and serialization."""

import copy
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from betabern import (
    Nu,
    ParamChoice,
    RatioChoice,
    VarApp,
    alpha_eq,
    join_normalize,
    normal_form_to_dict,
    normalize,
    parse_context,
    parse_term,
    reify,
)
from betabern.normalizer import (
    format_normal_form,
    multichoice,
    push_nu_to_leaves,
    raise_level,
    validate_normal_form,
)
from betabern.semantics import functional_eq, functional_eq_sampled
from betabern.terms import TermError, check_wellformed, format_term, free_params
from refnorm import (chain_distribution, chain_from_term, collect_chains, level_and_depth,
                     stratify)
from refnorm import push_nu_to_leaves as reference_push
from termgen import (CONTEXTS, SHARED_BINDERS_CTX, gen_term, rewrite_chain, shared_binders,
                     spine)

YZ = parse_context("params: - ; vars: y:0, z:0")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def nu_free(t):
    if isinstance(t, VarApp):
        return True
    if isinstance(t, (RatioChoice, ParamChoice)):
        return nu_free(t.left) and nu_free(t.right)
    return False


def chains_at_leaves(t):
    """After pushing: no binder has a choice inside its body."""
    if isinstance(t, VarApp):
        return True
    if isinstance(t, (RatioChoice, ParamChoice)):
        return chains_at_leaves(t.left) and chains_at_leaves(t.right)
    body = t.body
    while isinstance(body, Nu):
        body = body.body
    return isinstance(body, VarApp)


class TestPushNu:
    def test_two_draws_unfold(self):
        t = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        out = push_nu_to_leaves(t)
        assert out == parse_term("rch[1,1](rch[2,1](y,z), z)", YZ)

    def test_chain_is_fixed_point(self):
        ctx = parse_context("params: - ; vars: x:1")
        t = parse_term("nu[1,1]p.x(p)", ctx)
        assert push_nu_to_leaves(t) == t

    def test_unused_binder_dropped(self):
        t = parse_term("nu[1,1]p.y", YZ)
        assert push_nu_to_leaves(t) == VarApp("y")

    def test_foreign_choice_hoisted(self):
        ctx = parse_context("params: q ; vars: x:1, y:1")
        t = parse_term("nu[2,2]p.pch[q](x(p), y(p))", ctx)
        out = push_nu_to_leaves(t)
        assert alpha_eq(out, parse_term("pch[q](nu[2,2]p.x(p), nu[2,2]p.y(p))", ctx))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_shape_and_semantics(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p, q ; vars: x:2, y:1, z:0")
        t = gen_term(rng, ctx, 18, weight_max=3)
        out = push_nu_to_leaves(t)
        assert chains_at_leaves(out)
        assert check_wellformed(ctx, out) == []
        assert functional_eq_sampled(ctx, t, out, rng)


class TestPushMatchesReference:
    """The top-down push builds exactly the bottom-up reference's term."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(3, 60))
    def test_random_terms(self, seed, size):
        rng = random.Random(seed)
        for ctx in CONTEXTS:
            # weights 0-4: ratio choices with a zero-weight branch occur
            t = gen_term(rng, ctx, size, weight_max=4)
            assert push_nu_to_leaves(t) == reference_push(t)

    def test_long_one_parameter_spine(self):
        t = VarApp("y")
        for _ in range(500):
            t = ParamChoice("q", VarApp("z"), t)
        t = Nu(1, 1, "q", t)
        out = push_nu_to_leaves(t)
        assert (out.i, out.j) == (1, 1)
        # dataclass ``==`` takes two stack frames per level of the result
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 3000))
        try:
            assert out == reference_push(t)
        finally:
            sys.setrecursionlimit(limit)

    def test_nested_two_binder_spine(self):
        # the spine runs on both sides of the choices, past leaves that
        # use both binders, one of them, or neither
        t = VarApp("x", ("p", "q"))
        for step in range(60):
            leaf = (VarApp("x", ("q", "p")), VarApp("y", ("q",)), VarApp("z"))[step % 3]
            param = "pq"[step % 2]
            t = ParamChoice(param, leaf, t) if step % 4 < 2 else ParamChoice(param, t, leaf)
            t = RatioChoice(2, step % 3, t, VarApp("x", ("q", "p")))
        t = Nu(2, 1, "p", Nu(1, 3, "q", t))
        assert push_nu_to_leaves(t) == reference_push(t)


class TestRaiseLevel:
    def test_no_binders_fixed_point(self):
        t = parse_term("rch[1,2](y, z)", YZ)
        assert raise_level(t, 5) == t

    def test_already_at_level(self):
        ctx = parse_context("params: - ; vars: x:1")
        t = parse_term("nu[2,1]p.x(p)", ctx)
        assert raise_level(t, 3) == t

    def test_below_minimum_rejected(self):
        ctx = parse_context("params: - ; vars: x:1")
        t = parse_term("nu[2,2]p.x(p)", ctx)
        with pytest.raises(TermError, match="below minimum"):
            raise_level(t, 3)
        with pytest.raises(TermError, match="below minimum"):
            raise_level(parse_term("y", YZ), 1)

    def test_all_binders_reach_level(self):
        def levels_ok(t, n):
            if isinstance(t, VarApp):
                return True
            if isinstance(t, Nu):
                return t.i + t.j == n and levels_ok(t.body, n)
            return levels_ok(t.left, n) and levels_ok(t.right, n)

        rng = random.Random(3)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        for _ in range(30):
            t = push_nu_to_leaves(gen_term(rng, ctx, 16, weight_max=3))
            n = max(2, level_and_depth(t)[0]) + rng.randint(0, 2)
            out = raise_level(t, n)
            assert levels_ok(out, n)
            assert functional_eq_sampled(ctx, t, out, rng)

    def test_beta_binomial_expansion_semantics(self):
        ctx = parse_context("params: - ; vars: x:1")
        t = parse_term("nu[1,1]p.x(p)", ctx)
        out = raise_level(t, 3)
        assert level_and_depth(out)[0] == 3
        assert functional_eq(ctx, t, out, degree=4)

    def test_flat_expansion_matches_stepwise_rewrites(self):
        # raising via the mixture weights agrees with repeatedly splitting
        # the binder one level at a time by the recorded axioms
        from betabern import RewriteStep, apply_axiom, equal

        ctx = parse_context("params: - ; vars: x:1")

        def binary_expand(term, n):
            if isinstance(term, RatioChoice):
                return RatioChoice(term.i, term.j,
                                   binary_expand(term.left, n),
                                   binary_expand(term.right, n))
            assert isinstance(term, Nu)
            if term.i + term.j == n:
                return term
            stepped = apply_axiom(term, RewriteStep("D2", "rl", ("b",),
                                                    {"p": term.param}))
            stepped = apply_axiom(stepped, RewriteStep("Conj", "lr", ()))
            return binary_expand(stepped, n)

        for src, n in [("nu[1,1]p.x(p)", 4), ("nu[2,1]p.x(p)", 5)]:
            t = parse_term(src, ctx)
            stepwise = binary_expand(t, n)
            flat = raise_level(push_nu_to_leaves(t), n)
            assert equal(ctx, stepwise, flat).equal


class TestStratify:
    def test_two_draw_example(self):
        ctx = parse_context("params: p ; vars: v:0, x:0, y:0")
        t = parse_term("pch[p](pch[p](v,x), pch[p](y,v))", ctx)
        diagram = stratify(ctx, t, 2)
        assert diagram.leaves[(0,)] == VarApp("v")
        assert diagram.leaves[(1,)] == RatioChoice(1, 1, VarApp("x"), VarApp("y"))
        assert diagram.leaves[(2,)] == VarApp("v")

    def test_no_choices_single_leaf(self):
        t = parse_term("rch[1,2](y, z)", YZ)
        diagram = stratify(YZ, t, 0)
        assert diagram.leaves == {(): t}

    def test_padding_keeps_semantics(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        t = parse_term("pch[p](x, y)", ctx)
        diagram = stratify(ctx, t, 2)
        assert functional_eq(ctx, t, diagram.to_term())

    def test_k_too_small(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        t = parse_term("pch[p](pch[p](x,y), y)", ctx)
        with pytest.raises(TermError, match="depth k"):
            stratify(ctx, t, 1)

    def test_leaves_depend_only_on_right_count(self):
        # equal-count paths in the built diagram share one leaf term
        ctx = parse_context("params: p, q ; vars: x:0, y:0")
        t = parse_term("pch[p](pch[q](x,y), y)", ctx)
        diagram = stratify(ctx, t, 2)
        built = diagram.to_term()
        assert built.left.right is built.right.left  # same object, shared

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(3, 40), st.integers(0, 2), st.integers(0, 1))
    def test_matches_assembled_tables(self, seed, size, extra_n, extra_k):
        # the fused walk against raising the term, stratifying it and
        # collecting each leaf, with chain tips raised above their level
        rng = random.Random(seed)
        for ctx in CONTEXTS:
            # weights 0-4: ratio choices with a zero-weight branch occur
            t = gen_term(rng, ctx, size, weight_max=4)
            pushed = push_nu_to_leaves(t)
            level, depth = level_and_depth(pushed)
            n = max(2, level) + extra_n
            k = depth + extra_k
            raised = raise_level(pushed, n)
            diagram = stratify(ctx, raised, k)
            assert functional_eq_sampled(ctx, raised, diagram.to_term(), rng)
            nf = normalize(ctx, t, k, n)
            assert validate_normal_form(nf) == []
            for index, leaf in diagram.leaves.items():
                chains, weights = collect_chains(ctx, leaf)
                mass = {c: Fraction(w, sum(weights)) for c, w in zip(chains, weights)}
                assert mass == nf.leaf_fractions(index)

    def test_nested_binders_raised_two_levels(self):
        # nu[1,2] and nu[3,1] raised from level 4 to 6 mix their
        # refinements by (6, 12, 18, 24) and (12, 6, 2); the paths into the
        # depth-3 diagram consume 0 to 3 choices, and the dead branch would
        # need depth 4 and level 10
        ctx = parse_context("params: p ; vars: x:2, y:0")
        t = parse_term("rch[1,1](nu[1,2]a.nu[3,1]b.x(b,a),"
                       " rch[2,0](pch[p](y, pch[p](y, pch[p](x(p,p), y))),"
                       " nu[1,9]c.pch[p](pch[p](pch[p](pch[p](y, x(c,c)), y), y), y)))", ctx)
        nf = normalize(ctx, t, n=6)
        assert (nf.k, nf.n) == (3, 6)
        assert [c.describe(ctx) for c in nf.chains[:2]] == [
            "x(p,p)", "nu[3,3]b1.nu[1,5]b2.x(b1,b2)"]
        assert nf.chains[-1].var == "y"
        mixed = (4, 3, 2, 1, 12, 9, 6, 3, 24, 18, 12, 6)
        assert nf.weights[(0,)] == (0,) + mixed + (100,)
        assert nf.weights[(1,)] == (0,) + mixed + (100,)
        assert nf.weights[(2,)] == (100,) + tuple(3 * w for w in mixed) + (200,)
        assert nf.weights[(3,)] == (0,) + mixed + (100,)
        # the walk never enters a zero-weight branch, so no dead column appears
        dead = normalize(ctx, RatioChoice(0, 1, VarApp("x", ("p", "p")), VarApp("y")))
        assert [c.var for c in dead.chains] == ["y"]
        assert validate_normal_form(dead) == []


class TestCollectChains:
    def test_stone_weights(self):
        ctx = parse_context("params: - ; vars: x:0, y:0, z:0")
        leaf = parse_term("rch[2,8](x, rch[3,5](y,z))", ctx)
        chains, weights = collect_chains(ctx, leaf)
        assert [c.var for c in chains] == ["x", "y", "z"]
        assert weights == (2, 3, 5)

    def test_merging_repeated_chain(self):
        leaf = parse_term("rch[1,1](rch[2,1](y,z), z)", YZ)
        chains, weights = collect_chains(YZ, leaf)
        assert [c.var for c in chains] == ["y", "z"]
        assert weights == (1, 2)

    def test_idempotent_choice_is_primitive(self):
        ctx = parse_context("params: - ; vars: x:0")
        chains, weights = collect_chains(ctx, parse_term("rch[3,3](x, x)", ctx))
        assert weights == (1,)

    def test_ratio_under_binder_hoisted(self):
        ctx = parse_context("params: - ; vars: x:1, y:1")
        leaf = parse_term("nu[1,1]p.rch[1,2](x(p), y(p))", ctx)
        chains, weights = collect_chains(ctx, leaf)
        assert [c.var for c in chains] == ["x", "y"]
        assert weights == (1, 2)

    def test_unused_binders_dropped_and_reordered(self):
        ctx = parse_context("params: - ; vars: x:2")
        a = parse_term("nu[1,1]p.nu[1,1]q.nu[2,1]r.x(q,p)", ctx)
        chain = chain_from_term(ctx, a)
        assert chain.binders == ((1, 1), (1, 1))
        assert chain.argmap == (("B", 1), ("B", 2))

    def test_alpha_and_permutation_invariance(self):
        ctx = parse_context("params: - ; vars: x:2")
        variants = [
            "nu[1,2]p.nu[2,1]q.x(q,p)",
            "nu[2,1]a.nu[1,2]b.x(a,b)",
            "nu[2,1]q.nu[1,2]p.x(q,p)",
        ]
        chains = {chain_from_term(ctx, parse_term(v, ctx)) for v in variants}
        assert len(chains) == 1

    def test_distribution_sums_to_one(self):
        rng = random.Random(15)
        ctx = parse_context("params: - ; vars: x:1, y:0")
        for _ in range(20):
            t = push_nu_to_leaves(gen_ground_like(rng, ctx))
            dist = chain_distribution(ctx, t)
            assert sum(dist.values()) == 1


def gen_ground_like(rng, ctx):
    return gen_term(rng, ctx, 10, weight_max=3)


class TestNormalize:
    def test_single_binder_golden(self):
        t = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        nf = normalize(YZ, t)
        assert nf.k == 0 and nf.n == 2
        assert [c.var for c in nf.chains] == ["y", "z"]
        assert nf.weights[()] == (1, 2)
        assert reify(nf) == parse_term("rch[1,2](y, z)", YZ)

    def test_nested_binder_golden(self):
        t = parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", YZ)
        nf = normalize(YZ, t)
        assert nf.weights[()] == (1, 3)
        assert reify(nf) == parse_term("rch[1,3](y, z)", YZ)

    def test_bare_variable(self):
        ctx = parse_context("params: - ; vars: x:0")
        nf = normalize(ctx, parse_term("x", ctx))
        assert nf.k == 0 and nf.chains[0].var == "x" and nf.weights[()] == (1,)
        assert reify(nf) == VarApp("x")

    def test_validation_invariants(self):
        rng = random.Random(21)
        ctx = parse_context("params: p, q ; vars: x:2, y:0")
        for _ in range(25):
            nf = normalize(ctx, gen_term(rng, ctx, 16, weight_max=3))
            assert validate_normal_form(nf) == []

    def test_forced_parameters_validate(self):
        t = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        nf = normalize(YZ, t, k=2, n=4)
        assert nf.k == 2 and nf.n == 4
        assert validate_normal_form(nf) == []
        assert functional_eq(YZ, reify(nf), t)

    def test_too_small_overrides_rejected(self):
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = parse_term("pch[p](nu[2,2]q.x(q), x(p))", ctx)
        with pytest.raises(TermError, match=r"^level n=3 below minimum 4$"):
            normalize(ctx, t, n=3)
        with pytest.raises(TermError, match=r"^depth k=0 below minimum 1$"):
            normalize(ctx, t, k=0)
        with pytest.raises(TermError, match=r"^level n=1 below minimum 2$"):
            normalize(ctx, parse_term("y", ctx), n=1)
        # the level is read after Conj updates the binder at each x(a), and
        # the choice on the bound a adds nothing to the depth
        t = parse_term("nu[1,1]a.pch[a](x(a), pch[p](y, pch[p](x(a), y)))", ctx)
        nf = normalize(ctx, t)
        assert (nf.k, nf.n) == (2, 3)
        assert normalize(ctx, t, k=2, n=3) == nf
        with pytest.raises(TermError, match=r"^level n=2 below minimum 3$"):
            normalize(ctx, t, n=2)
        with pytest.raises(TermError, match=r"^depth k=1 below minimum 2$"):
            normalize(ctx, t, k=1)

    def test_canonical_depth_and_level(self):
        # k counts the choices on one parameter along one path
        ctx = parse_context("params: p, q ; vars: x:1, y:0")
        for text, k, n in [("pch[q](pch[p](y, y), pch[p](y, y))", 1, 2),
                           ("pch[p](pch[q](y, y), pch[p](y, y))", 2, 2),
                           ("rch[1,1](nu[2,3]a.x(a), pch[p](nu[1,1]b.x(b), y))", 1, 5)]:
            nf = normalize(ctx, parse_term(text, ctx))
            assert (nf.k, nf.n) == (k, n)

    def test_ill_formed_rejected(self):
        with pytest.raises(TermError, match="ill-formed"):
            normalize(YZ, VarApp("nope"))


class TestDeepChains:
    """Chains far deeper than the interpreter's stack are decided: the walk
    keeps its own stack.  ``rch[1,2](z, ·)`` reaches ``y`` with probability
    ``(2/3)^d``; ``nu[1,1]b.rch[1,1](z, ·)`` and ``nu[1,1]b.pch[b](z, ·)``,
    whose binders go unused and are dropped, with ``(1/2)^d``."""

    @staticmethod
    def chain(kind, depth):
        t = VarApp("y")
        for s in range(depth):
            b = f"b{s}"
            if kind == "ratio":
                t = RatioChoice(1, 2, VarApp("z"), t)
            elif kind == "binder":
                t = Nu(1, 1, b, RatioChoice(1, 1, VarApp("z"), t))
            else:
                t = Nu(1, 1, b, ParamChoice(b, VarApp("z"), t))
        return t

    @pytest.mark.parametrize("kind, depth, y_base, total_base", [
        ("ratio", 3000, 2, 3), ("binder", 1000, 1, 2), ("conj", 1000, 1, 2)])
    def test_closed_form(self, kind, depth, y_base, total_base):
        from betabern import equal
        from betabern.simulate import exact_distribution

        t = self.chain(kind, depth)
        y, total = y_base ** depth, total_base ** depth
        nf = normalize(YZ, t)
        assert (nf.k, nf.n) == (0, 2)
        assert [c.var for c in nf.chains] == ["y", "z"]
        assert nf.weights[()] == (y, total - y)
        closed = RatioChoice(y, total - y, VarApp("y"), VarApp("z"))
        assert equal(YZ, t, closed).equal
        assert not equal(YZ, t, RatioChoice(y, total - y + 1, VarApp("y"), VarApp("z"))).equal
        assert exact_distribution(YZ, t) == {"y": Fraction(y, total),
                                             "z": Fraction(total - y, total)}


    @pytest.mark.parametrize("kind, y_base, total_base", [
        ("ratio", 2, 3), ("binder", 1, 2), ("conj", 1, 2)])
    def test_thirty_thousand_levels(self, kind, y_base, total_base):
        # one merge per level: no per-path denominator, and unused binders
        # cost nothing while they wait above the chain
        depth = 30000
        t = self.chain(kind, depth)
        started = time.time()
        nf = normalize(YZ, t)
        elapsed = time.time() - started
        y, total = y_base ** depth, total_base ** depth
        assert nf.weights[()] == (y, total - y)
        assert elapsed < 5.0, f"{kind} chain {depth} deep took {elapsed:.1f}s"


class TestSharedNodes:
    """The fold memoises a shared choice node per pending binders it uses;
    the forms match those of the same term with nothing shared."""

    def test_reified_five_parameter_spine(self):
        ctx, t = spine(5)
        nf = normalize(ctx, t)
        assert nf.k == 4
        reified = reify(nf)
        started = time.time()
        again = normalize(ctx, reified)
        elapsed = time.time() - started
        assert again == nf
        assert elapsed < 1.0, f"re-normalizing took {elapsed:.2f}s"

    def test_shared_under_used_and_unused_binders(self):
        ctx = parse_context("params: - ; vars: x:1, y:0, z:0")
        x_q = VarApp("x", ("q",))
        shared = ParamChoice("q", x_q, RatioChoice(1, 2, VarApp("y"), x_q))
        # reached under p, which it does not use, with q at (1,2) twice and
        # at (2,2) and (1,3) once each
        below_p = ParamChoice("q", shared, RatioChoice(1, 1, shared, VarApp("z")))
        t = Nu(1, 2, "q", RatioChoice(2, 1, Nu(3, 1, "p", ParamChoice("p", shared, below_p)),
                                      shared))
        assert check_wellformed(ctx, t) == []
        unshared = parse_term(format_term(t), ctx)
        assert normalize(ctx, t) == normalize(ctx, unshared)
        assert validate_normal_form(normalize(ctx, t)) == []


class TestOneFold:
    """Trees and terms that share nodes go through one fold: a root that
    ``parse_term`` stamped is a tree and memoises nothing, any other root's
    parents are counted first."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_shared_node_under_three_thousand_binders(self):
        # every binder is open at the shared node, which uses none of them:
        # its memo key is its id, and no per-node set of names is kept
        code = """if True:
            import time
            from betabern import normalize, parse_context
            from betabern.terms import Nu, RatioChoice, VarApp
            n = 3000
            ctx = parse_context("params: - ; vars: x:1, y:0, z:0")
            shared = RatioChoice(1, 2, VarApp("y"), VarApp("z"))
            t = RatioChoice(1, 1, shared, shared)
            for k in range(n, 0, -1):
                t = RatioChoice(1, 2, VarApp("x", (f"b{k}",)), t)
            for k in range(n, 0, -1):
                t = Nu(1, 1, f"b{k}", t)
            started = time.time()
            nf = normalize(ctx, t)
            elapsed = time.time() - started
            # x with probability 1 - (2/3)^n, then y : z = 1 : 2
            assert nf.weights[()] == (3 ** (n + 1) - 3 * 2 ** n, 2 ** n, 2 ** (n + 1))
            # the peak RSS of this process image: ru_maxrss would count the
            # test process too, whose memory the child held until exec
            with open("/proc/self/status") as status:
                peak_kb = next(int(line.split()[1]) for line in status
                               if line.startswith("VmHWM:"))
            print(elapsed, peak_kb / 1024)
        """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        elapsed, peak_mb = map(float, proc.stdout.split())
        # the interpreter and betabern take about 16 MB of it
        assert peak_mb < 40, f"peak RSS {peak_mb:.0f} MB"
        assert elapsed < 1.0, f"normalize took {elapsed:.2f}s"

    def test_shared_binder_family(self):
        # t_k shares t_{k-1}, a binder, between both branches of its body
        for depth in range(1, 9):
            t = shared_binders(depth)
            unshared = parse_term(format_term(t), SHARED_BINDERS_CTX)
            assert normalize(SHARED_BINDERS_CTX, t) == normalize(SHARED_BINDERS_CTX, unshared)
        t = shared_binders(200)
        started = time.time()
        nf = normalize(SHARED_BINDERS_CTX, t)
        elapsed = time.time() - started
        assert validate_normal_form(nf) == []
        assert elapsed < 1.0, f"depth 200 took {elapsed:.2f}s"

    def test_unstamped_copy_folds_alike(self):
        # a shallow copy of a parsed root is not stamped, so its parents
        # are counted; it shares no node with itself and folds as a tree
        rng = random.Random("one-fold")
        for ctx in CONTEXTS:
            for _ in range(40):
                t = parse_term(format_term(gen_term(rng, ctx, rng.randint(3, 60))), ctx)
                twin = copy.copy(t)
                assert getattr(twin, "_parsed_in", None) is None
                assert normalize(ctx, t) == normalize(ctx, twin)


class TestDeepReify:
    def test_one_parameter_form_deeper_than_the_stack(self):
        # pch[p](y, z) at depth k = 300 under a recursion limit of 100: the
        # diagram has one node per (depth, count of right branches), and
        # its edge paths lead to the leaves y and z
        code = """if True:
            import sys
            from betabern import normalize, parse_context, parse_term, reify
            from betabern.terms import ParamChoice
            ctx = parse_context("params: p ; vars: y:0, z:0")
            nf = normalize(ctx, parse_term("pch[p](y, z)", ctx), k=300)
            sys.setrecursionlimit(100)
            t = reify(nf)
            nodes, stack = set(), [t]
            while stack:
                u = stack.pop()
                if isinstance(u, ParamChoice) and id(u) not in nodes:
                    nodes.add(id(u))
                    stack += (u.left, u.right)
            ends = []
            for side in ("left", "right"):
                u = t
                while isinstance(u, ParamChoice):
                    u = getattr(u, side)
                ends.append(str(u))
            print(len(nodes), t.left.right is t.right.left, *ends)
        """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{300 * 301 // 2} True y z\n"


class TestJoinAndUniqueness:
    def test_identical_terms(self):
        t = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        nf_t, nf_u = join_normalize(YZ, t, t)
        assert nf_t == nf_u

    def test_appendix_pair_weights(self):
        lhs = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        rhs = parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", YZ)
        nf_l, nf_r = join_normalize(YZ, lhs, rhs)
        assert [c.var for c in nf_l.chains] == ["y", "z"]
        assert nf_l.weights[()] == (1, 2)
        assert nf_r.weights[()] == (1, 3)

    def test_branch_swap_distinguished(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        left = parse_term("pch[p](x, y)", ctx)
        right = parse_term("pch[p](y, x)", ctx)
        nf_l, nf_r = join_normalize(ctx, left, right)
        assert nf_l.k == 1
        assert nf_l.weights != nf_r.weights
        assert nf_l.weights[(0,)] == nf_r.weights[(1,)]
        # the evaluator separates the pair at p = 1/3
        from betabern import FuncArg, interpret

        args = {"x": FuncArg.constant(1), "y": FuncArg.constant(0)}
        third = {"p": Fraction(1, 3)}
        assert interpret(ctx, left, args).eval(third) == Fraction(1, 3)
        assert interpret(ctx, right, args).eval(third) == Fraction(2, 3)

    def test_zero_columns_allowed_in_joins(self):
        ctx = parse_context("params: - ; vars: x:0, y:0")
        nf_x, nf_y = join_normalize(ctx, parse_term("x", ctx), parse_term("y", ctx))
        assert nf_x.chains == nf_y.chains
        assert nf_x.weights[()] == (1, 0) and nf_y.weights[()] == (0, 1)
        assert validate_normal_form(nf_x, allow_zero_columns=True) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_uniqueness_under_rewrites(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        t = gen_term(rng, ctx, 12, weight_max=3)
        u = rewrite_chain(rng, ctx, t, rng.randint(1, 8))
        nf_t, nf_u = join_normalize(ctx, t, u)
        assert nf_t == nf_u

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_alpha_variants_share_a_normal_form(self, seed):
        from betabern.terms import all_params

        def rename_all(t, mapping):
            if isinstance(t, VarApp):
                return VarApp(t.var, tuple(mapping.get(a, a) for a in t.args))
            if isinstance(t, RatioChoice):
                return RatioChoice(t.i, t.j, rename_all(t.left, mapping),
                                   rename_all(t.right, mapping))
            if isinstance(t, ParamChoice):
                return ParamChoice(mapping.get(t.param, t.param),
                                   rename_all(t.left, mapping),
                                   rename_all(t.right, mapping))
            return Nu(t.i, t.j, mapping.get(t.param, t.param),
                      rename_all(t.body, mapping))

        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        t = gen_term(rng, ctx, 14, weight_max=3)
        bound = sorted(all_params(t) - set(ctx.params))
        renamed = rename_all(t, {name: f"w{pos}" for pos, name in enumerate(bound)})
        assert alpha_eq(t, renamed)
        assert normalize(ctx, t) == normalize(ctx, renamed)


class TestReify:
    def test_multichoice_shape(self):
        assert multichoice([(2, VarApp("x")), (3, VarApp("y")), (5, VarApp("z"))]) == \
            parse_term("rch[2,8](x, rch[3,5](y,z))",
                       parse_context("params: - ; vars: x:0, y:0, z:0"))

    def test_zero_weights_skipped(self):
        assert multichoice([(0, VarApp("x")), (3, VarApp("y"))]) == VarApp("y")

    def test_round_trip_fixed_kn(self):
        rng = random.Random(27)
        ctx = parse_context("params: p, q ; vars: x:2, y:0")
        for _ in range(20):
            nf = normalize(ctx, gen_term(rng, ctx, 14, weight_max=3))
            again = normalize(ctx, reify(nf), k=nf.k, n=nf.n)
            assert again == nf

    def test_idempotence_at_canonical_parameters(self):
        rng = random.Random(33)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        for _ in range(20):
            nf = normalize(ctx, gen_term(rng, ctx, 14, weight_max=3))
            assert normalize(ctx, reify(nf)) == nf

    def test_binder_names_avoid_context(self):
        ctx = parse_context("params: b1 ; vars: x:1")
        nf = normalize(ctx, parse_term("nu[1,1]s.x(s)", ctx))
        reified = reify(nf)
        assert check_wellformed(ctx, reified) == []
        assert free_params(reified) == set()

    def test_declaration_order_independent_of_chain_order(self):
        # chains sort by name even when the context declares variables
        # in another order
        ctx = parse_context("params: - ; vars: z:0, a:0")
        nf = normalize(ctx, parse_term("rch[1,2](z, a)", ctx))
        assert [c.var for c in nf.chains] == ["a", "z"]
        assert nf.weights[()] == (2, 1)
        assert reify(nf) == parse_term("rch[2,1](a, z)", ctx)


class TestSerialization:
    def test_dict_shape_and_stability(self):
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = parse_term("pch[p](nu[1,1]s.x(s), y)", ctx)
        payload = normal_form_to_dict(normalize(ctx, t))
        blob = json.dumps(payload, sort_keys=True)
        assert json.dumps(normal_form_to_dict(normalize(ctx, t)), sort_keys=True) == blob
        assert payload["k"] == 1 and payload["n"] == 2
        assert payload["params"] == ["p"]
        assert {"binders", "var", "args"} <= set(payload["chains"][0])
        assert len(payload["weights"]) == 2

    def test_text_format_mentions_reified_term(self):
        nf = normalize(YZ, parse_term("rch[1,2](y, z)", YZ))
        text = format_normal_form(nf)
        assert "k: 0" in text and "rch[1,2](y, z)" in text


class TestLargeTerms:
    def test_normal_forms_keep_their_meaning(self):
        """200 terms of 50-200 nodes over the three contexts: the exact sweep
        finds every reified normal form equal to its term, within 20 s."""
        started = time.time()
        rng = random.Random(0x51E)
        for n in range(200):
            ctx = CONTEXTS[n % len(CONTEXTS)]
            t = gen_term(rng, ctx, rng.randint(50, 200), weight_max=4)
            assert functional_eq(ctx, t, reify(normalize(ctx, t))), n
        elapsed = time.time() - started
        print(f"200 terms of 50-200 nodes keep their meaning ({elapsed:.1f}s / budget 20s)")
        assert elapsed < 20.0, "the large-term sweep exceeded its 20s budget"
