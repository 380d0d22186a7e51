"""Curated end-to-end checks of the engine's golden examples.

Each check exercises one documented behaviour: formation rules,
substitution, axiom application, recorded derivations, golden normal
forms, exact interpretation values, chain independence, and agreement of
the two samplers with the exact distributions.  The CLI ``paper-suite``
command runs them all and reports one pass/fail line each.
"""

from __future__ import annotations

from fractions import Fraction

from . import axioms, decide, normalizer, semantics, simulate
from .axioms import MacroStep, RewriteStep
from .poly import Poly
from .semantics import FuncArg
from .terms import (
    Context,
    Nu,
    ParamChoice,
    ParseError,
    RatioChoice,
    VarApp,
    alpha_eq,
    check_wellformed,
    parse_context,
    parse_term,
    substitute,
)

CHECKS = []


def _check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


def _ctx(text):
    return parse_context(text)


# --- formation and substitution ---------------------------------------------


@_check("wellformed-nested-binders")
def _():
    ctx = _ctx("params: - ; vars: x:2")
    t = parse_term("nu[1,1]p.nu[1,1]q.x(p,q)", ctx)
    assert check_wellformed(ctx, t) == []


@_check("reject-zero-hyperparameter")
def _():
    ctx = _ctx("params: - ; vars: x:0")
    try:
        parse_term("nu[1,0]p.x", ctx)
    except ParseError as e:
        assert "positive hyperparameters" in str(e)
        return
    raise AssertionError("nu[1,0] must be rejected")


@_check("substitution-renames-capturing-binder")
def _():
    # replacing w by a term with free p forces the binder p to be renamed
    ctx = _ctx("params: p ; vars: w:0, x:0, y:0")
    t = Nu(1, 1, "p", VarApp("w"))
    rep = parse_term("pch[p](x, y)", ctx)
    out = substitute(t, {"w": ((), rep)})
    assert alpha_eq(out, Nu(1, 1, "q", rep))
    assert not alpha_eq(out, Nu(1, 1, "p", ParamChoice("p", VarApp("x"), VarApp("y"))))


@_check("substitution-formal-hits-bound-parameter")
def _():
    ctx = _ctx("params: - ; vars: z:1, x:0, y:0")
    t = parse_term("nu[1,1]p.z(p)", ctx)
    rep = ParamChoice("p", VarApp("x"), VarApp("y"))  # p is the formal here
    out = substitute(t, {"z": (("p",), rep)})
    assert alpha_eq(out, parse_term("nu[1,1]p.pch[p](x, y)", ctx))


@_check("parse-stone-multichoice")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0, z:0")
    t = parse_term("rch[2,8](x, rch[3,5](y,z))", ctx)
    assert t == RatioChoice(2, 8, VarApp("x"),
                            RatioChoice(3, 5, VarApp("y"), VarApp("z")))


# --- axiom application -------------------------------------------------------


@_check("conjugacy-instance")
def _():
    ctx = _ctx("params: - ; vars: x:1, y:1")
    t = parse_term("nu[2,3]p.pch[p](x(p), y(p))", ctx)
    out = axioms.apply_axiom(t, RewriteStep("Conj", "lr"))
    assert alpha_eq(out, parse_term("rch[2,3](nu[3,3]p.x(p), nu[2,4]p.y(p))", ctx))


@_check("zero-weight-choice-collapses")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0")
    t = parse_term("rch[5,0](x, y)", ctx)
    assert axioms.apply_axiom(t, RewriteStep("ConvexZero", "lr")) == VarApp("x")


@_check("unused-binder-discards")
def _():
    ctx = _ctx("params: - ; vars: x:0")
    t = parse_term("nu[1,1]p.x", ctx)
    assert axioms.apply_axiom(t, RewriteStep("D1", "lr")) == VarApp("x")


# --- recorded derivations ----------------------------------------------------


def single_binder_two_draws(ctx):
    return parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", ctx)


def nested_binder_two_draws(ctx):
    return parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", ctx)


def derivation_single_binder():
    """Recorded steps: nu[1,1]p.((y ?p z) ?p z)  =  y ?[1,2] z."""
    return [
        RewriteStep("Conj", "lr", ()),
        RewriteStep("Conj", "lr", ("l",)),
        RewriteStep("D1", "lr", ("l", "l")),
        RewriteStep("D1", "lr", ("l", "r")),
        RewriteStep("D1", "lr", ("r",)),
        # (y rch[2,1] z) rch[1,1] z
        MacroStep("Scale", "rl", (), {"k": 3}),
        RewriteStep("ConvexZero", "rl", ("r",), {"i": 3, "y": VarApp("y")}),
        RewriteStep("ConvexSymm", "lr", ("r",)),
        # (y rch[2,1] z) rch[3,3] (y rch[0,3] z)
        RewriteStep("ConvexDistr", "lr", ()),
        RewriteStep("ConvexZero", "lr", ("l",)),
        RewriteStep("ConvexIdem", "lr", ("r",)),
        # y rch[2,4] z
        MacroStep("Scale", "lr", (), {"k": 2}),
    ]


def derivation_nested_binder():
    """Recorded steps: nu p.nu q.((y ?q z) ?p z)  =  y ?[1,3] z."""
    return [
        RewriteStep("C3", "lr", ("b",)),
        RewriteStep("Conj", "lr", ("b", "l")),
        RewriteStep("D1", "lr", ("b", "l", "l")),
        RewriteStep("D1", "lr", ("b", "l", "r")),
        RewriteStep("D1", "lr", ("b", "r")),
        RewriteStep("Conj", "lr", ()),
        RewriteStep("D1", "lr", ("l",)),
        RewriteStep("D1", "lr", ("r",)),
        # (y rch[1,1] z) rch[1,1] z
        MacroStep("Scale", "rl", (), {"k": 2}),
        RewriteStep("ConvexZero", "rl", ("r",), {"i": 2, "y": VarApp("y")}),
        RewriteStep("ConvexSymm", "lr", ("r",)),
        RewriteStep("ConvexDistr", "lr", ()),
        RewriteStep("ConvexZero", "lr", ("l",)),
        RewriteStep("ConvexIdem", "lr", ("r",)),
    ]


def von_neumann_term(ctx):
    return parse_term(
        "pch[p](pch[p](rch[1,1](x,y), x), pch[p](y, rch[1,1](x,y)))", ctx)


def derivation_von_neumann():
    """Recorded steps: ((x ?11 y) ?p x) ?p (y ?p (x ?11 y))  =  x ?11 y."""
    return [
        RewriteStep("ConvexIdem", "rl", ("l", "r"), {"i": 1, "j": 1}),
        RewriteStep("ConvexIdem", "rl", ("r", "l"), {"i": 1, "j": 1}),
        RewriteStep("C5", "lr", ("l",)),
        RewriteStep("C5", "lr", ("r",)),
        RewriteStep("ConvexSymm", "lr", ("l",)),
        RewriteStep("C5", "lr", ()),
        RewriteStep("D2", "lr", ("l",)),
        RewriteStep("D2", "lr", ("r", "l")),
        RewriteStep("D2", "lr", ("r", "r")),
        RewriteStep("C5", "rl", ()),
        RewriteStep("ConvexSymm", "lr", ("l",)),
        RewriteStep("D2", "lr", ()),
    ]


@_check("derivation-single-binder")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    ok = axioms.check_derivation(ctx, single_binder_two_draws(ctx),
                                 derivation_single_binder(),
                                 parse_term("rch[1,2](y,z)", ctx))
    assert ok


@_check("derivation-nested-binder")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    ok = axioms.check_derivation(ctx, nested_binder_two_draws(ctx),
                                 derivation_nested_binder(),
                                 parse_term("rch[1,3](y,z)", ctx))
    assert ok


@_check("derivation-von-neumann")
def _():
    ctx = _ctx("params: p ; vars: x:0, y:0")
    ok = axioms.check_derivation(ctx, von_neumann_term(ctx),
                                 derivation_von_neumann(),
                                 parse_term("rch[1,1](x,y)", ctx))
    assert ok


# --- golden normal forms ------------------------------------------------------


@_check("normalize-single-binder")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    nf = normalizer.normalize(ctx, single_binder_two_draws(ctx))
    assert normalizer.reify(nf) == parse_term("rch[1,2](y,z)", ctx)


@_check("normalize-nested-binder")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    nf = normalizer.normalize(ctx, nested_binder_two_draws(ctx))
    assert normalizer.reify(nf) == parse_term("rch[1,3](y,z)", ctx)


@_check("stratify-two-draws")
def _():
    ctx = _ctx("params: p ; vars: v:0, x:0, y:0")
    nf = normalizer.normalize(ctx, parse_term("pch[p](pch[p](v,x), pch[p](y,v))", ctx))
    assert nf.k == 2

    def leaf(s):
        return {c.var: mass for c, mass in nf.leaf_fractions((s,)).items()}

    assert leaf(0) == leaf(2) == {"v": 1}
    assert leaf(1) == {"x": Fraction(1, 2), "y": Fraction(1, 2)}


@_check("collect-stone-weights")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0, z:0")
    nf = normalizer.normalize(ctx, parse_term("rch[2,8](x, rch[3,5](y,z))", ctx))
    assert [c.var for c in nf.chains] == ["x", "y", "z"]
    assert nf.weights[()] == (2, 3, 5)


# --- the decision procedure ---------------------------------------------------


@_check("von-neumann-fixed-point")
def _():
    ctx = _ctx("params: p ; vars: x:0, y:0")
    verdict = decide.equal(ctx, parse_term("rch[1,1](x,y)", ctx), von_neumann_term(ctx))
    assert verdict.equal


@_check("diagonal-vs-independent-binders")
def _():
    ctx = _ctx("params: - ; vars: x:2")
    lhs = parse_term("nu[1,1]p.x(p,p)", ctx)
    rhs = parse_term("nu[1,1]p.nu[1,1]q.x(p,q)", ctx)
    verdict = decide.equal(ctx, lhs, rhs)
    assert not verdict.equal and verdict.witness is not None


@_check("distinguishing-substitution-weights")
def _():
    ctx = _ctx("params: - ; vars: x:2")
    target = _ctx("params: - ; vars: y:0, z:0")
    witness_body = parse_term("pch[p](pch[q](y,z), z)",
                              Context(("p", "q"), target.vars))
    binding = {"x": (("p", "q"), witness_body)}
    lhs = substitute(parse_term("nu[1,1]p.x(p,p)", ctx), binding)
    rhs = substitute(parse_term("nu[1,1]p.nu[1,1]q.x(p,q)", ctx), binding)
    nf_l, nf_r = normalizer.join_normalize(target, lhs, rhs)
    assert [c.var for c in nf_l.chains] == ["y", "z"]
    assert nf_l.weights[()] == (1, 2) and nf_r.weights[()] == (1, 3)


# --- exact interpretation ------------------------------------------------------


@_check("interpret-fair-coin")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0")
    t = parse_term("rch[1,1](x,y)", ctx)
    args = {"x": FuncArg.constant(1), "y": FuncArg.constant(0)}
    assert semantics.interpret(ctx, t, args) == Poly.const(Fraction(1, 2))


@_check("interpret-uniform-integration")
def _():
    ctx = _ctx("params: - ; vars: x:1")
    t = parse_term("nu[1,1]p.x(p)", ctx)
    args = {"x": FuncArg(("r1",), Poly.var("r1"))}
    assert semantics.interpret(ctx, t, args) == Poly.const(Fraction(1, 2))


@_check("interpret-two-draw-masses")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    args = {"y": FuncArg.constant(1), "z": FuncArg.constant(0)}
    single = semantics.interpret(ctx, single_binder_two_draws(ctx), args)
    nested = semantics.interpret(ctx, nested_binder_two_draws(ctx), args)
    assert single == Poly.const(Fraction(1, 3))
    assert nested == Poly.const(Fraction(1, 4))


@_check("normal-form-evaluation")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0, z:0")
    nf = normalizer.normalize(ctx, parse_term("rch[2,8](x, rch[3,5](y,z))", ctx))
    args = semantics.indicator_args(ctx, "x")
    assert semantics.interpret_normalform(nf, args) == Poly.const(Fraction(2, 10))


@_check("bernstein-partition-of-unity")
def _():
    total = Poly.zero()
    for i in range(4):
        total = total + semantics.bernstein(i, 3)
    assert total == Poly.const(1)


@_check("multichoice-from-coefficients")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0, z:0")
    coeffs = {(): [Fraction(2, 10), Fraction(3, 10), Fraction(5, 10)]}
    t = semantics.term_from_bernstein(ctx, 0, coeffs)
    assert decide.equal(ctx, t, parse_term("rch[2,8](x, rch[3,5](y,z))", ctx)).equal


# --- chain independence --------------------------------------------------------


def square_subspace_chains():
    """The ten level-2 chains on two free parameters and one binary variable."""
    ctx = _ctx("params: p1, p2 ; vars: x:2")
    chains = []
    for a in (1, 2):
        for b in (1, 2):
            chains.append(normalizer.Chain((), "x", (("F", a), ("F", b))))
    for a in (1, 2):
        chains.append(normalizer.Chain(((1, 1),), "x", (("B", 1), ("F", a))))
        chains.append(normalizer.Chain(((1, 1),), "x", (("F", a), ("B", 1))))
    chains.append(normalizer.Chain(((1, 1),), "x", (("B", 1), ("B", 1))))
    chains.append(normalizer.Chain(((1, 1), (1, 1)), "x", (("B", 1), ("B", 2))))
    return ctx, chains


@_check("chain-independence-rank-ten")
def _():
    ctx, chains = square_subspace_chains()
    points = {"p1": Fraction(1, 2), "p2": Fraction(1, 3)}
    assert len(chains) == 10
    assert semantics.chain_rank_check(ctx, chains, points, degree=4)
    collapsed = {"p1": Fraction(1, 2), "p2": Fraction(1, 2)}
    assert not semantics.chain_rank_check(ctx, chains, collapsed, degree=4,
                                          require_distinct=False)


# --- samplers vs exact distributions --------------------------------------------


@_check("polya-two-draw-frequency")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    t = single_binder_two_draws(ctx)
    report = simulate.compare(ctx, t, trials=20000, seed=7, impl="polya")
    assert report.passed
    assert simulate.exact_distribution(ctx, t) == {
        "y": Fraction(1, 3), "z": Fraction(2, 3)}


@_check("betabern-matches-polya")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    t = single_binder_two_draws(ctx)
    report = simulate.compare(ctx, t, trials=20000, seed=8, impl="betabern")
    assert report.passed


@_check("stone-weights-frequencies")
def _():
    ctx = _ctx("params: - ; vars: x:0, y:0, z:0")
    t = parse_term("rch[2,8](x, rch[3,5](y,z))", ctx)
    for impl, seed in (("polya", 11), ("betabern", 12)):
        report = simulate.compare(ctx, t, trials=20000, seed=seed, impl=impl)
        assert report.passed


@_check("distinguishable-observable-statistics")
def _():
    ctx = _ctx("params: - ; vars: y:0, z:0")
    one = single_binder_two_draws(ctx)    # leaf distribution (1/3, 2/3)
    two = nested_binder_two_draws(ctx)    # leaf distribution (1/4, 3/4)
    for impl in ("polya", "betabern"):
        counts_one = simulate.estimate(ctx, one, trials=20000, seed=21, impl=impl)
        counts_two = simulate.estimate(ctx, two, trials=20000, seed=22, impl=impl)
        own_one = simulate.compare_counts(
            counts_one, simulate.exact_distribution(ctx, one), 20000, impl, 21)
        own_two = simulate.compare_counts(
            counts_two, simulate.exact_distribution(ctx, two), 20000, impl, 22)
        cross_one = simulate.compare_counts(
            counts_one, simulate.exact_distribution(ctx, two), 20000, impl, 21)
        cross_two = simulate.compare_counts(
            counts_two, simulate.exact_distribution(ctx, one), 20000, impl, 22)
        assert own_one.passed and own_two.passed
        assert not cross_one.passed and not cross_two.passed


def run_paper_suite() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) triples."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as e:  # noqa: BLE001 - report, don't crash the suite
            results.append((name, False, f"{type(e).__name__}: {e}"))
    return results
