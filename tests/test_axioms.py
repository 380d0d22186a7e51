"""Directed rewrites: matching, side conditions, derivations, soundness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from betabern import (
    AXIOM_NAMES,
    AxiomError,
    MacroStep,
    Nu,
    ParamChoice,
    RatioChoice,
    RewriteStep,
    VarApp,
    alpha_eq,
    apply_axiom,
    check_derivation,
    check_wellformed,
    parse_context,
    parse_derivation,
    parse_term,
)
from betabern import axioms
from betabern.axioms import expand_scale
from betabern.papersuite import (
    derivation_nested_binder,
    derivation_single_binder,
    derivation_von_neumann,
    nested_binder_two_draws,
    single_binder_two_draws,
    von_neumann_term,
)
from betabern.semantics import functional_eq, functional_eq_sampled
from betabern.terms import free_params
from termgen import gen_term

CTX = parse_context("params: p, q ; vars: w:0, x:0, y:0, z:0")


def rs(axiom, direction="lr", path=(), **inst):
    return RewriteStep(axiom, direction, tuple(path), inst)


# (scheme, direction, input, inst, exact message): inputs each applier refuses.
# An input is term text in CTX, or a term the parser would reject.
MISMATCHES = [
    ("ConvexDistr", "lr", "x", {}, "ConvexDistr: expected a ratio choice"),
    ("ConvexDistr", "lr", "rch[4,7](rch[1,2](w,x), rch[3,4](y,z))", {},
     "ConvexDistr: outer weights must be (3,7), got (4,7)"),
    ("ConvexDistr", "lr", "rch[2,3](rch[0,2](w,x), rch[0,3](y,z))", {},
     "ConvexDistr: regrouped weights would have zero total"),
    ("ConvexDistr", "rl", "rch[1,1](x, rch[1,1](y,z))", {},
     "ConvexDistr: both branches must be ratio choices"),
    ("ConvexDistr", "rl", "rch[2,2](rch[1,2](w,x), rch[3,4](y,z))", {},
     "ConvexDistr: outer weights must be (3,7), got (2,2)"),
    ("ConvexSymm", "lr", "x", {}, "ConvexSymm: expected a ratio choice"),
    ("ConvexSymm", "rl", "pch[p](x,y)", {}, "ConvexSymm: expected a ratio choice"),
    ("ConvexZero", "lr", "pch[p](x,y)", {}, "ConvexZero: expected a ratio choice"),
    ("ConvexZero", "lr", "rch[1,2](x,y)", {}, "ConvexZero: right weight must be 0, got 2"),
    ("ConvexZero", "rl", "x", {"i": 1},
     "ConvexZero rl needs inst i (weight) and y (discarded term)"),
    ("ConvexZero", "rl", "x", {"i": 0, "y": VarApp("y")}, "ConvexZero: weight i must be positive"),
    ("ConvexZero", "rl", "x", {"i": 2, "y": "y"}, "ConvexZero: y must be a term"),
    ("ConvexIdem", "lr", "pch[p](x,x)", {}, "ConvexIdem: expected a ratio choice"),
    ("ConvexIdem", "lr", "rch[1,1](x,y)", {}, "ConvexIdem: branches are not alpha-equal"),
    ("ConvexIdem", "rl", "x", {"i": 1}, "ConvexIdem rl needs inst weights i, j"),
    ("ConvexIdem", "rl", "x", {"i": 0, "j": 0}, "ConvexIdem: weights need i+j > 0"),
    ("C1", "lr", "rch[1,1](x,y)", {}, "C1: expected a bias choice"),
    ("C1", "lr", "pch[p](pch[p](w,x), pch[q](y,z))", {}, "C1: inner parameters differ (p vs q)"),
    ("C1", "rl", "pch[p](pch[p](w,x), rch[1,1](y,z))", {},
     "C1: both branches must be bias choices"),
    ("C2", "lr", "x", {}, "C2: expected a nu binder"),
    ("C2", "lr", "nu[1,1]s.x", {}, "C2: body must be another nu binder"),
    ("C2", "rl", Nu(1, 1, "s", Nu(2, 1, "s", VarApp("x"))), {},
     "C2: nested binders share a name"),
    ("C3", "lr", "pch[p](x,y)", {}, "C3: expected a nu binder"),
    ("C3", "lr", "nu[1,1]s.rch[1,1](x,y)", {}, "C3: body must be a bias choice"),
    ("C3", "lr", "nu[1,1]s.pch[s](x,y)", {},
     "C3: choice parameter equals the bound parameter (use Conj)"),
    ("C3", "rl", "rch[1,1](nu[1,1]s.x, nu[1,1]s.y)", {}, "C3: expected a bias choice"),
    ("C3", "rl", "pch[p](nu[1,1]s.x, y)", {}, "C3: both branches must be nu binders"),
    ("C3", "rl", "pch[p](nu[1,1]s.x, nu[1,2]s.y)", {}, "C3: binder hyperparameters differ"),
    ("C4", "lr", "rch[1,1](x,y)", {}, "C4: expected a nu binder"),
    ("C4", "lr", "nu[1,1]s.pch[s](x,y)", {}, "C4: body must be a ratio choice"),
    ("C4", "rl", "pch[p](nu[1,1]s.x, nu[1,1]s.y)", {}, "C4: expected a ratio choice"),
    ("C4", "rl", "rch[1,1](nu[1,1]s.x, y)", {}, "C4: both branches must be nu binders"),
    ("C4", "rl", "rch[1,1](nu[1,1]s.x, nu[2,1]s.y)", {}, "C4: binder hyperparameters differ"),
    ("C5", "lr", "rch[1,1](x,y)", {}, "C5: expected a bias choice"),
    ("C5", "lr", "pch[p](rch[1,2](w,x), z)", {}, "C5: both branches must be ratio choices"),
    ("C5", "lr", "pch[p](rch[1,2](w,x), rch[2,1](y,z))", {},
     "C5: ratio weights differ between branches"),
    ("C5", "rl", "pch[p](x,y)", {}, "C5: expected a ratio choice"),
    ("C5", "rl", "rch[1,1](pch[p](w,x), rch[1,1](y,z))", {},
     "C5: both branches must be bias choices"),
    ("C5", "rl", "rch[1,1](pch[p](w,x), pch[q](y,z))", {}, "C5: inner parameters differ (p vs q)"),
    ("D1", "lr", "x", {}, "D1: expected a nu binder"),
    ("D1", "lr", "nu[1,1]s.pch[s](x,y)", {}, "D1: bound parameter 's' occurs in the body"),
    ("D1", "rl", "x", {"i": 1, "j": 1},
     "D1 rl needs inst i, j (hyperparameters) and p (fresh parameter)"),
    ("D1", "rl", "x", {"i": 0, "j": 1, "p": "s"}, "D1: hyperparameters must be positive"),
    ("D1", "rl", "pch[p](x,y)", {"i": 1, "j": 1, "p": "p"},
     "D1: parameter 'p' occurs in the term"),
    ("D2", "lr", "rch[1,1](x,x)", {}, "D2: expected a bias choice"),
    ("D2", "lr", "pch[p](x,y)", {}, "D2: branches are not alpha-equal"),
    ("D2", "rl", "x", {}, "D2 rl needs inst p (choice parameter)"),
    ("Conj", "lr", "rch[1,1](x,y)", {}, "Conj: expected a nu binder"),
    ("Conj", "lr", "nu[1,1]s.rch[1,1](x,y)", {}, "Conj: body must be a bias choice"),
    ("Conj", "lr", "nu[1,1]s.pch[p](x,y)", {},
     "Conj: choice parameter must be the bound parameter"),
    ("Conj", "rl", "pch[p](nu[2,1]s.x, nu[1,2]s.y)", {}, "Conj: expected a ratio choice"),
    ("Conj", "rl", "rch[1,1](x, nu[1,2]s.y)", {}, "Conj: both branches must be nu binders"),
    ("Conj", "rl", "rch[1,0](nu[2,1]s.x, nu[1,2]s.y)", {},
     "Conj: ratio weights must be positive hyperparameters"),
    ("Conj", "rl", "rch[1,1](nu[1,1]s.x, nu[1,2]s.y)", {},
     "Conj: left binder must be nu[2,1], got nu[1,1]"),
    ("Conj", "rl", "rch[1,1](nu[2,1]s.x, nu[1,3]s.y)", {},
     "Conj: right binder must be nu[1,2], got nu[1,3]"),
]


class TestAppliers:
    def test_conj_instance(self):
        ctx = parse_context("params: - ; vars: x:1, y:1")
        t = parse_term("nu[2,3]s.pch[s](x(s), y(s))", ctx)
        out = apply_axiom(t, rs("Conj"))
        assert alpha_eq(out, parse_term("rch[2,3](nu[3,3]s.x(s), nu[2,4]s.y(s))", ctx))

    def test_conj_round_trip(self):
        ctx = parse_context("params: - ; vars: x:1, y:1")
        t = parse_term("nu[2,3]s.pch[s](x(s), y(s))", ctx)
        back = apply_axiom(apply_axiom(t, rs("Conj")), rs("Conj", "rl"))
        assert alpha_eq(back, t)

    def test_conj_needs_bound_parameter(self):
        t = parse_term("nu[1,1]s.pch[p](x, y)", CTX)
        with pytest.raises(AxiomError, match="bound parameter"):
            apply_axiom(t, rs("Conj"))

    def test_convex_zero(self):
        t = parse_term("rch[5,0](x, y)", CTX)
        assert apply_axiom(t, rs("ConvexZero")) == VarApp("x")

    def test_convex_zero_reverse_synthesizes(self):
        out = apply_axiom(VarApp("x"), rs("ConvexZero", "rl", i=5, y=VarApp("y")))
        assert out == parse_term("rch[5,0](x, y)", CTX)

    def test_convex_distr(self):
        t = parse_term("rch[3,7](rch[1,2](w,x), rch[3,4](y,z))", CTX)
        out = apply_axiom(t, rs("ConvexDistr"))
        assert out == parse_term("rch[4,6](rch[1,3](w,y), rch[2,4](x,z))", CTX)
        assert alpha_eq(apply_axiom(out, rs("ConvexDistr", "rl")), t)

    def test_convex_distr_outer_mismatch(self):
        t = parse_term("rch[4,7](rch[1,2](w,x), rch[3,4](y,z))", CTX)
        with pytest.raises(AxiomError, match="outer weights"):
            apply_axiom(t, rs("ConvexDistr"))

    def test_convex_distr_zero_regroup_blocked(self):
        t = parse_term("rch[2,3](rch[0,2](w,x), rch[0,3](y,z))", CTX)
        with pytest.raises(AxiomError, match="zero total"):
            apply_axiom(t, rs("ConvexDistr"))

    def test_d1_requires_unused(self):
        ctx = parse_context("params: - ; vars: x:1, y:0")
        with pytest.raises(AxiomError, match="occurs in the body"):
            apply_axiom(parse_term("nu[1,1]s.x(s)", ctx), rs("D1"))
        assert apply_axiom(parse_term("nu[1,1]s.y", ctx), rs("D1")) == VarApp("y")

    def test_d2_on_alpha_equal_branches(self):
        ctx = parse_context("params: p ; vars: x:1")
        t = ParamChoice("p", parse_term("nu[1,1]a.x(a)", ctx),
                        parse_term("nu[1,1]b.x(b)", ctx))
        assert apply_axiom(t, rs("D2")) == parse_term("nu[1,1]a.x(a)", ctx)

    def test_c1_same_parameter_allowed(self):
        t = parse_term("pch[p](pch[p](w,x), pch[p](y,z))", CTX)
        out = apply_axiom(t, rs("C1"))
        assert out == parse_term("pch[p](pch[p](w,y), pch[p](x,z))", CTX)

    def test_c2_swaps_independent_binders(self):
        ctx = parse_context("params: - ; vars: x:2")
        t = parse_term("nu[1,2]a.nu[3,4]b.x(a,b)", ctx)
        out = apply_axiom(t, rs("C2"))
        assert alpha_eq(out, parse_term("nu[3,4]b.nu[1,2]a.x(a,b)", ctx))

    def test_c3_rl_aligns_binders(self):
        ctx = parse_context("params: q ; vars: x:1, y:1")
        t = parse_term("pch[q](nu[1,1]a.x(a), nu[1,1]b.y(b))", ctx)
        out = apply_axiom(t, rs("C3", "rl"))
        assert alpha_eq(out, parse_term("nu[1,1]a.pch[q](x(a), y(a))", ctx))

    def test_c4_applies_at_path(self):
        ctx = parse_context("params: - ; vars: x:1, y:1, z:0")
        t = parse_term("rch[1,1](z, nu[2,2]s.rch[1,3](x(s), y(s)))", ctx)
        out = apply_axiom(t, rs("C4", path=("r",)))
        expected = parse_term("rch[1,1](z, rch[1,3](nu[2,2]s.x(s), nu[2,2]s.y(s)))", ctx)
        assert alpha_eq(out, expected)

    def test_bad_path(self):
        with pytest.raises(AxiomError, match="bad path"):
            apply_axiom(VarApp("x"), rs("ConvexSymm", path=("l",)))

    @pytest.mark.parametrize("axiom, direction, text, inst, message", MISMATCHES)
    def test_mismatch_message(self, axiom, direction, text, inst, message):
        t = text if isinstance(text, Nu) else parse_term(text, CTX)
        with pytest.raises(AxiomError) as err:
            apply_axiom(t, rs(axiom, direction, **inst))
        assert str(err.value) == message

    def test_every_scheme_and_direction_has_a_mismatch(self):
        pinned = {(axiom, direction) for axiom, direction, *_ in MISMATCHES}
        assert pinned == {(a, d) for a in AXIOM_NAMES for d in ("lr", "rl")}


# --- random scheme instances -------------------------------------------------


SCHEME_CTX = parse_context("params: p, q ; vars: a:0, b:1, c:2")


def _sub(rng, scope, size):
    return gen_term(rng, SCHEME_CTX, rng.randint(1, size), weight_max=4, scope=scope)


def random_instance(rng: random.Random, axiom: str, size: int = 10,
                    wmax: int = 5):
    """A random left-hand-side instance of a scheme, ready for ``apply``."""
    base = SCHEME_CTX.params
    w = lambda: rng.randint(0, wmax)
    pos = lambda: rng.randint(1, wmax)
    pick = lambda: rng.choice(base)
    fresh = "s"
    if axiom == "ConvexDistr":
        while True:
            i, j, k, l = w(), w(), w(), w()
            if i + j > 0 and k + l > 0 and i + k > 0 and j + l > 0:
                break
        return RatioChoice(i + j, k + l,
                           RatioChoice(i, j, _sub(rng, base, size), _sub(rng, base, size)),
                           RatioChoice(k, l, _sub(rng, base, size), _sub(rng, base, size)))
    if axiom == "ConvexSymm":
        i, j = pos(), w()
        return RatioChoice(i, j, _sub(rng, base, size), _sub(rng, base, size))
    if axiom == "ConvexZero":
        return RatioChoice(pos(), 0, _sub(rng, base, size), _sub(rng, base, size))
    if axiom == "ConvexIdem":
        t = _sub(rng, base, size)
        return RatioChoice(pos(), pos(), t, t)
    if axiom == "C1":
        p_, q_ = pick(), pick()
        return ParamChoice(p_, ParamChoice(q_, _sub(rng, base, size), _sub(rng, base, size)),
                           ParamChoice(q_, _sub(rng, base, size), _sub(rng, base, size)))
    if axiom == "C2":
        scope = base + (fresh, "t1")
        body = _sub(rng, scope, size)
        return Nu(pos(), pos(), fresh, Nu(pos(), pos(), "t1", body))
    if axiom == "C3":
        scope = base + (fresh,)
        return Nu(pos(), pos(), fresh,
                  ParamChoice(pick(), _sub(rng, scope, size), _sub(rng, scope, size)))
    if axiom == "C4":
        scope = base + (fresh,)
        i, j = pos(), w()
        return Nu(pos(), pos(), fresh,
                  RatioChoice(i, j, _sub(rng, scope, size), _sub(rng, scope, size)))
    if axiom == "C5":
        i, j = pos(), w()
        return ParamChoice(pick(),
                           RatioChoice(i, j, _sub(rng, base, size), _sub(rng, base, size)),
                           RatioChoice(i, j, _sub(rng, base, size), _sub(rng, base, size)))
    if axiom == "D1":
        return Nu(pos(), pos(), fresh, _sub(rng, base, size))
    if axiom == "D2":
        t = _sub(rng, base, size)
        return ParamChoice(pick(), t, t)
    if axiom == "Conj":
        scope = base + (fresh,)
        return Nu(pos(), pos(), fresh,
                  ParamChoice(fresh, _sub(rng, scope, size), _sub(rng, scope, size)))
    raise AssertionError(axiom)


class TestSoundness:
    """Every scheme preserves the exact denotation, fresh-variable and
    random-subterm instantiations alike."""

    @pytest.mark.parametrize("axiom", AXIOM_NAMES)
    def test_fresh_variable_instances_full_sweep(self, axiom):
        rng = random.Random(0x5EED + AXIOM_NAMES.index(axiom))
        for trial in range(8):
            lhs = random_instance(rng, axiom, size=1, wmax=5)
            rhs = apply_axiom(lhs, rs(axiom))
            assert check_wellformed(SCHEME_CTX, rhs) == []
            assert functional_eq(SCHEME_CTX, lhs, rhs)

    @pytest.mark.parametrize("axiom", AXIOM_NAMES)
    def test_random_subterm_instances(self, axiom):
        rng = random.Random(0x5AB + AXIOM_NAMES.index(axiom))
        for trial in range(25):
            lhs = random_instance(rng, axiom, size=8)
            rhs = apply_axiom(lhs, rs(axiom))
            assert check_wellformed(SCHEME_CTX, rhs) == []
            assert functional_eq_sampled(SCHEME_CTX, lhs, rhs, rng)

    @pytest.mark.parametrize("axiom", AXIOM_NAMES)
    def test_reverse_applies_back(self, axiom):
        rng = random.Random(0xBAC + AXIOM_NAMES.index(axiom))
        for trial in range(15):
            lhs = random_instance(rng, axiom, size=6)
            rhs = apply_axiom(lhs, rs(axiom))
            if axiom in ("ConvexZero", "ConvexIdem", "D1", "D2"):
                continue  # reverse needs synthesized instantiation
            back = apply_axiom(rhs, rs(axiom, "rl"))
            assert functional_eq_sampled(SCHEME_CTX, lhs, back, rng)

    def test_free_params_preserved_up_to_discard(self):
        rng = random.Random(99)
        for axiom in AXIOM_NAMES:
            for trial in range(10):
                lhs = random_instance(rng, axiom, size=6)
                rhs = apply_axiom(lhs, rs(axiom))
                if axiom in ("D1", "D2", "ConvexZero"):
                    # these discard a subterm or a choice parameter,
                    # so free names may shrink
                    assert free_params(rhs) <= free_params(lhs)
                else:
                    assert free_params(rhs) == free_params(lhs)


class TestDerivations:
    def test_single_binder_golden(self):
        ctx = parse_context("params: - ; vars: y:0, z:0")
        assert check_derivation(ctx, single_binder_two_draws(ctx),
                                derivation_single_binder(),
                                parse_term("rch[1,2](y,z)", ctx))

    def test_nested_binder_golden(self):
        ctx = parse_context("params: - ; vars: y:0, z:0")
        assert check_derivation(ctx, nested_binder_two_draws(ctx),
                                derivation_nested_binder(),
                                parse_term("rch[1,3](y,z)", ctx))

    def test_von_neumann_golden(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        assert check_derivation(ctx, von_neumann_term(ctx),
                                derivation_von_neumann(),
                                parse_term("rch[1,1](x,y)", ctx))

    def test_empty_derivation_is_reflexivity(self):
        t = parse_term("pch[p](x, y)", CTX)
        assert check_derivation(CTX, t, [], t)
        assert not check_derivation(CTX, t, [], parse_term("pch[p](y, x)", CTX))

    def test_failing_step_reports_index(self):
        t = parse_term("rch[1,1](x, y)", CTX)
        steps = [rs("ConvexSymm"), rs("ConvexZero")]
        with pytest.raises(AxiomError, match="step 1"):
            check_derivation(CTX, t, steps, t)

    def test_wrong_end_is_false_not_error(self):
        t = parse_term("rch[1,1](x, y)", CTX)
        assert not check_derivation(CTX, t, [rs("ConvexSymm")], t)


def recursive_scale_steps(i: int, j: int, f: int, path, direction: str) -> list:
    """The recursive construction of ``expand_scale``'s steps for weights
    ``(i, j)`` and factor ``f``, one call per unit of ``f``: the reference
    for the loop that replaced it."""
    if f == 1:
        return []
    deeper = recursive_scale_steps(i, j, f - 1, path + ("r",), direction)
    if direction == "lr":  # x rch[f*i, f*j] y  ->  x rch[i,j] y
        return [
            RewriteStep("ConvexIdem", "rl", path + ("l",), {"i": i, "j": (f - 1) * i}),
            RewriteStep("ConvexIdem", "rl", path + ("r",), {"i": j, "j": (f - 1) * j}),
            RewriteStep("ConvexDistr", "lr", path),
            *deeper,
            RewriteStep("ConvexIdem", "lr", path),
        ]
    return [  # x rch[i,j] y  ->  x rch[f*i, f*j] y
        RewriteStep("ConvexIdem", "rl", path, {"i": i + j, "j": (f - 1) * (i + j)}),
        *deeper,
        RewriteStep("ConvexDistr", "rl", path),
        RewriteStep("ConvexIdem", "lr", path + ("l",)),
        RewriteStep("ConvexIdem", "lr", path + ("r",)),
    ]


class TestMacros:
    def test_scaling_derivable(self):
        # x rch[ki,kj] y  =  x rch[i,j] y, both directions
        ctx = parse_context("params: - ; vars: x:0, y:0")
        for i, j, k in [(1, 2, 3), (2, 1, 2), (3, 5, 4), (1, 1, 6)]:
            big = parse_term(f"rch[{k * i},{k * j}](x, y)", ctx)
            small = parse_term(f"rch[{i},{j}](x, y)", ctx)
            assert check_derivation(ctx, big, [MacroStep("Scale", "lr", (), {"k": k})], small)
            assert check_derivation(ctx, small, [MacroStep("Scale", "rl", (), {"k": k})], big)

    def test_scaling_zero_weight(self):
        ctx = parse_context("params: - ; vars: x:0, y:0")
        big = parse_term("rch[6,0](x, y)", ctx)
        small = parse_term("rch[2,0](x, y)", ctx)
        assert check_derivation(ctx, big, [MacroStep("Scale", "lr", (), {"k": 3})], small)

    def test_scaling_requires_divisibility(self):
        ctx = parse_context("params: - ; vars: x:0, y:0")
        t = parse_term("rch[3,2](x, y)", ctx)
        with pytest.raises(AxiomError, match="divisible"):
            check_derivation(ctx, t, [MacroStep("Scale", "lr", (), {"k": 2})], t)

    def test_ratio_commutativity_derivable(self):
        # (w ?ij x) ?kl (y ?ij z) = (w ?kl y) ?ij (x ?kl z)
        rng = random.Random(3)
        for trial in range(12):
            i, j, k, l = (rng.randint(1, 5) for _ in range(4))
            start = parse_term(
                f"rch[{k},{l}](rch[{i},{j}](w,x), rch[{i},{j}](y,z))", CTX)
            end = parse_term(
                f"rch[{i},{j}](rch[{k},{l}](w,y), rch[{k},{l}](x,z))", CTX)
            assert check_derivation(CTX, start,
                                    [MacroStep("RatioComm", "lr", ())], end)

    @pytest.mark.parametrize("direction", ["lr", "rl"])
    def test_scale_steps_match_the_recursive_construction(self, direction):
        i, j = 2, 3
        for k in range(1, 301):
            f = k if direction == "lr" else 1
            t = RatioChoice(1, 1, VarApp("z"), RatioChoice(f * i, f * j, VarApp("x"), VarApp("y")))
            assert expand_scale(t, ("r",), k, direction) == \
                recursive_scale_steps(i, j, k, ("r",), direction), k

    @pytest.mark.parametrize("direction", ["lr", "rl"])
    def test_scale_by_5000_builds_without_recursion(self, direction):
        k = 5000
        f = k if direction == "lr" else 1
        steps = expand_scale(RatioChoice(f, 2 * f, VarApp("x"), VarApp("y")), (), k, direction)
        assert len(steps) == 4 * (k - 1)
        assert len(max((step.path for step in steps), key=len)) == k - 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 5))
    def test_scaling_across_random_paths(self, i, j, k):
        ctx = parse_context("params: - ; vars: x:0, y:0, z:0")
        big = parse_term(f"rch[1,1](z, rch[{k * i},{k * j}](x, y))", ctx)
        small = parse_term(f"rch[1,1](z, rch[{i},{j}](x, y))", ctx)
        assert check_derivation(ctx, big,
                                [MacroStep("Scale", "lr", ("r",), {"k": k})], small)


class TestDerivationFiles:
    def test_parse_and_replay(self):
        ctx = parse_context("params: - ; vars: y:0, z:0")
        text = """
        # push the binder through both draws, then rebalance the weights
        Conj lr path=.
        Conj lr path=l
        D1 lr path=l.l
        D1 lr path=l.r
        D1 lr path=r
        Scale rl path=. k=3
        ConvexZero rl path=r i=3 y='y'
        ConvexSymm lr path=r
        ConvexDistr lr path=.
        ConvexZero lr path=l
        ConvexIdem lr path=r
        Scale lr path=. k=2
        """
        steps = parse_derivation(text, ctx)
        assert check_derivation(ctx, single_binder_two_draws(ctx), steps,
                                parse_term("rch[1,2](y,z)", ctx))

    def test_quoted_terms_and_errors(self):
        ctx = parse_context("params: - ; vars: y:0, z:0")
        steps = parse_derivation("ConvexZero rl path=. i=2 y='rch[1,1](y,z)'", ctx)
        out = apply_axiom(VarApp("y"), steps[0])
        assert out == parse_term("rch[2,0](y, rch[1,1](y,z))", ctx)
        with pytest.raises(AxiomError, match="line 1"):
            parse_derivation("Bogus lr path=.", ctx)

    @pytest.mark.parametrize("value", ["\u0661\u0662", "\u00b2", "+2", "1.5", "p-q", ""])
    def test_fields_are_numerals_names_or_terms(self, value):
        # Arabic-Indic 12 and a superscript 2 pass str.isdigit, not [0-9]
        ctx = parse_context("params: - ; vars: y:0, z:0")
        with pytest.raises(AxiomError) as err:
            parse_derivation(f"Scale rl path=. k={value}", ctx)
        assert str(err.value) == ("derivation line 1: field 'k': expected a numeral, "
                                  f"a name or a quoted term, got {value!r}")
        assert parse_derivation("D2 rl path=. p=q_1 k=-12", ctx)[0].inst == {"p": "q_1", "k": -12}

    def test_internal_faults_are_not_input_errors(self, monkeypatch):
        ctx = parse_context("params: - ; vars: y:0, z:0")

        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr(axioms, "_parse_step_line", broken)
        with pytest.raises(KeyError):
            parse_derivation("ConvexSymm lr path=.", ctx)
        monkeypatch.setattr(axioms, "subterm_at", broken)
        with pytest.raises(KeyError):
            apply_axiom(VarApp("y"), RewriteStep("ConvexSymm", "lr", ("l",)))
