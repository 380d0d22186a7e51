"""Sampler semantics: urn vs. direct Beta draws vs. exact distributions."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from betabern import (
    Nu,
    ParamChoice,
    RatioChoice,
    VarApp,
    compare,
    estimate,
    exact_distribution,
    parse_context,
    parse_term,
    run_betabern,
    run_polya,
)
from betabern.simulate import (
    SIGNIFICANCE,
    _compile,
    check_ground,
    chi2,
    chi_square_stat,
    compare_counts,
)
from betabern.terms import TermError
import refsim
from termgen import gen_ground_term, term_size

YZ = parse_context("params: - ; vars: y:0, z:0")
XYZ = parse_context("params: - ; vars: x:0, y:0, z:0")

F = Fraction


class TestGroundGuards:
    def test_rejects_free_parameters(self):
        ctx = parse_context("params: p ; vars: x:0")
        with pytest.raises(TermError):
            check_ground(ctx, parse_term("x", ctx))

    def test_rejects_positive_arity(self):
        ctx = parse_context("params: - ; vars: x:1")
        with pytest.raises(TermError, match="arity 0"):
            check_ground(ctx, parse_term("nu[1,1]p.x(p)", ctx))

    @pytest.mark.parametrize("impl", ["polya", "betabern"])
    @pytest.mark.parametrize("t, message", [
        (VarApp("w"), "unknown variable 'w'"),
        (Nu(0, 1, "p", ParamChoice("p", VarApp("y"), VarApp("z"))),
         "hyperparameters must be positive"),
        (RatioChoice(0, 0, VarApp("y"), VarApp("z")), "total weight"),
        (ParamChoice("p", VarApp("y"), VarApp("z")), "parameter 'p' not in scope"),
        (Nu(1, 1, "p", Nu(1, 1, "p", ParamChoice("p", VarApp("y"), VarApp("z")))),
         "binder 'p' rebinds"),
    ])
    def test_rejects_ill_formed_terms(self, t, message, impl):
        # the samplers read a binder's cells by name, so they need the
        # well-formedness the normalizer checks
        for run in (estimate, compare):
            with pytest.raises(TermError, match=f"^term ill-formed: .*{message}"):
                run(YZ, t, 1000, 1, impl)


class TestRunners:
    def test_deterministic_leaf(self):
        rng = random.Random(0)
        t = parse_term("y", YZ)
        assert run_polya(t, rng) == "y"
        assert run_betabern(t, rng) == "y"

    def test_estimate_single_trial(self):
        counts = estimate(YZ, parse_term("y", YZ), trials=1, seed=4, impl="polya")
        assert counts == {"y": 1, "z": 0}

    def test_seeded_determinism(self):
        t = parse_term("nu[2,1]p.pch[p](pch[p](y,z), z)", YZ)
        for impl in ("polya", "betabern"):
            a = estimate(YZ, t, trials=3000, seed=99, impl=impl)
            b = estimate(YZ, t, trials=3000, seed=99, impl=impl)
            assert a == b

    # counts of the recursive samplers these loops replaced: a trial must
    # call ``rng.random()`` in the same order, or the counts move
    @pytest.mark.parametrize("ctx, text, seed, polya, betabern", [
        (YZ, "nu[1,1]p.pch[p](pch[p](y,z), z)", 11,
         {"y": 1035, "z": 1965}, {"y": 980, "z": 2020}),
        (YZ, "nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", 12,
         {"y": 751, "z": 2249}, {"y": 739, "z": 2261}),
        (XYZ, "nu[2,1]p.rch[1,2](pch[p](x, nu[1,3]q.pch[q](y, pch[p](z, x))), pch[p](z, y))", 13,
         {"x": 809, "y": 731, "z": 1460}, {"x": 781, "y": 773, "z": 1446}),
    ])
    def test_seeded_counts_pinned(self, ctx, text, seed, polya, betabern):
        t = parse_term(text, ctx)
        assert estimate(ctx, t, trials=3000, seed=seed, impl="polya") == polya
        assert estimate(ctx, t, trials=3000, seed=seed, impl="betabern") == betabern

    def test_deep_chain_needs_no_stack(self):
        class AlwaysRight:
            # every ratio and bias choice (and the Beta(1,1) bias) reads 3/4
            def random(self):
                return 0.75

        t = VarApp("z")
        for depth in range(5000):
            t = RatioChoice(1, 1, VarApp("y"), t)
            if depth % 2:
                t = ParamChoice("p", VarApp("y"), t)
        t = Nu(1, 1, "p", t)
        assert run_polya(t, AlwaysRight()) == "z"
        assert run_betabern(t, AlwaysRight()) == "z"

    @pytest.mark.parametrize("impl", ["polya", "betabern"])
    def test_estimate_on_deep_chain(self, impl):
        # the ground check walks the term without recursion, as the samplers do
        t = VarApp("z")
        for _ in range(5000):
            t = RatioChoice(1, 1, VarApp("y"), t)
        counts = estimate(YZ, t, trials=10, seed=1, impl=impl)
        assert sum(counts.values()) == 10 and set(counts) <= {"y", "z"}

    def test_impl_validated(self):
        with pytest.raises(TermError, match="unknown implementation"):
            estimate(YZ, parse_term("y", YZ), trials=1, seed=0, impl="exact")

    @pytest.mark.parametrize("impl, text, trials, seed, y", [
        # the two simulate calls of the benchmark's cli workload
        ("polya", "nu[1,1]p.pch[p](pch[p](y,z), z)", 500000, 7, 166879),
        ("betabern", "nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", 250000, 8, 62135),
    ])
    def test_bench_counts_pinned(self, impl, text, trials, seed, y):
        counts = estimate(YZ, parse_term(text, YZ), trials, seed, impl)
        assert counts == {"y": y, "z": trials - y}

    def test_shared_nodes_compile_once(self):
        # ten fair coins whose two branches are one node object, and five
        # binders: one row per node object
        t = VarApp("y")
        for n in range(15):
            t = RatioChoice(1, 1, t, t) if n % 3 else Nu(2, 1, f"p{n}", ParamChoice(
                f"p{n}", t, VarApp("z")))
        rows, leaves, _ = _compile(t)
        assert len(rows) == 26 and sorted(leaves) == ["y", "z"]
        for impl in ("polya", "betabern"):
            assert estimate(YZ, t, 2000, 3, impl) == refsim.estimate(YZ, t, 2000, 3, impl)

    def test_fair_coin_concentration(self):
        t = parse_term("rch[1,1](y, z)", YZ)
        counts = estimate(YZ, t, trials=100000, seed=8, impl="polya")
        assert abs(counts["y"] / 100000 - 0.5) < 0.01

    def test_urn_counts_evolve(self):
        # three draws from the same binder: the diagonal x(p,p,p)-style term
        # leaves all-y mass 1/2 * 2/3 * 3/4 under the urn scheme
        ctx = parse_context("params: - ; vars: y:0, z:0")
        t = parse_term(
            "nu[1,1]p.pch[p](pch[p](pch[p](y,z), z), z)", ctx)
        assert exact_distribution(ctx, t)["y"] == F(1, 4)
        counts = estimate(ctx, t, trials=40000, seed=5, impl="polya")
        assert abs(counts["y"] / 40000 - 0.25) < 0.01


def shared_names(t, names=None, depth=0):
    """``t`` with each binder renamed after its depth among binders, so
    sibling binders share one name."""
    names = names or {}
    if isinstance(t, VarApp):
        return t
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, shared_names(t.left, names, depth),
                           shared_names(t.right, names, depth))
    if isinstance(t, ParamChoice):
        return ParamChoice(names[t.param], shared_names(t.left, names, depth),
                           shared_names(t.right, names, depth))
    name = f"b{depth}"
    return Nu(t.i, t.j, name, shared_names(t.body, {**names, t.param: name}, depth + 1))


class TestAgainstReference:
    """The compiled samplers against ``refsim``'s runners, which walk the
    term objects: both must make the same draws in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 60), st.integers(1, 6), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_counts_match_reference(self, term_seed, size, weight_max, share, seed):
        # hyperparameters up to 6 give Beta binders with i > 1 over three or
        # more uniforms; ratio weights may be 0 on one side
        t = gen_ground_term(random.Random(term_seed), XYZ, size, weight_max)
        if share:
            t = shared_names(t)
        for impl in ("polya", "betabern"):
            assert estimate(XYZ, t, 200, seed, impl) == refsim.estimate(XYZ, t, 200, seed, impl)

    @pytest.mark.parametrize("text", [
        # sibling binders that share a name
        "rch[1,1](nu[1,1]p.pch[p](pch[p](y,z),z), "
        "rch[1,2](nu[3,2]p.pch[p](y,pch[p](z,y)), nu[1,4]p.pch[p](z,y)))",
        # zero-weight branches still take a draw
        "rch[0,3](y, rch[2,0](nu[3,3]p.pch[p](y, rch[1,1](z, y)), z))",
    ])
    def test_fixed_terms(self, text):
        t = parse_term(text, YZ)
        for impl in ("polya", "betabern"):
            assert estimate(YZ, t, 3000, 5, impl) == refsim.estimate(YZ, t, 3000, 5, impl)

    def test_ratio_threshold_is_not_a_quotient(self):
        class Fixed:
            # u * 6 < 5 is false, while u < 5/6 is true
            def random(self):
                return 0.8333333333333333

        t = RatioChoice(5, 1, VarApp("y"), VarApp("z"))
        assert refsim.run_polya(t, Fixed()) == "z"
        assert run_polya(t, Fixed()) == run_betabern(t, Fixed()) == "z"


class TestLargeTerms:
    def test_both_samplers_on_large_terms(self):
        """Ten seeded ground terms of 40-80 nodes pass both samplers at
        100000 trials, within 60 s."""
        started = time.time()
        rng = random.Random(0x5A3)
        terms = []
        while len(terms) < 10:
            t = gen_ground_term(rng, XYZ, 80)
            if term_size(t) >= 40:
                terms.append(t)
        for n, t in enumerate(terms):
            for impl in ("polya", "betabern"):
                report = compare(XYZ, t, trials=100000, seed=2000 + n, impl=impl)
                assert report.passed, (n, impl, str(report))
        elapsed = time.time() - started
        print(f"10 terms of 40-80 nodes pass both samplers ({elapsed:.1f}s / budget 60s)")
        assert elapsed < 60.0, "the large-term sampler check exceeded its 60s budget"


class TestExactDistribution:
    def test_stone_weights(self):
        t = parse_term("rch[2,8](x, rch[3,5](y,z))", XYZ)
        assert exact_distribution(XYZ, t) == {"x": F(1, 5), "y": F(3, 10), "z": F(1, 2)}

    def test_two_draw_masses(self):
        one = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        two = parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", YZ)
        assert exact_distribution(YZ, one) == {"y": F(1, 3), "z": F(2, 3)}
        assert exact_distribution(YZ, two) == {"y": F(1, 4), "z": F(3, 4)}

    def test_matches_indicator_interpretation(self):
        from betabern import interpret
        from betabern.poly import Poly
        from betabern.semantics import indicator_args

        rng = random.Random(12)
        for _ in range(15):
            t = gen_ground_term(rng, XYZ, 12)
            dist = exact_distribution(XYZ, t)
            for name, _ in XYZ.vars:
                value = interpret(XYZ, t, indicator_args(XYZ, name))
                assert value == Poly.const(dist[name])


class TestChiSquare:
    def test_deterministic_term_passes_trivially(self):
        ctx = parse_context("params: - ; vars: x:0")
        report = compare(ctx, parse_term("x", ctx), trials=100, seed=1, impl="polya")
        assert report.passed and report.chi_square == 0.0 and report.dof == 0

    def test_small_cells_merge(self):
        expected = {"a": F(1, 1000), "b": F(999, 1000), "c": F(0)}
        counts = {"a": 0, "b": 1000, "c": 0}
        stat, dof = chi_square_stat(counts, expected, 1000)
        assert dof == 0  # tiny cells all merge into the single big one
        assert stat == 0.0
        # with two healthy cells plus a tiny one, one merge leaves dof 1
        expected = {"a": F(1, 1000), "b": F(499, 1000), "c": F(1, 2)}
        counts = {"a": 1, "b": 499, "c": 500}
        stat, dof = chi_square_stat(counts, expected, 1000)
        assert dof == 1

    def test_zero_probability_cells_merge(self):
        expected = {"a": F(0), "b": F(1)}
        stat, dof = chi_square_stat({"a": 0, "b": 500}, expected, 500)
        assert stat == 0.0

    def test_report_lines_are_stable(self):
        t = parse_term("rch[1,1](y, z)", YZ)
        a = compare(YZ, t, trials=2000, seed=3, impl="polya")
        b = compare(YZ, t, trials=2000, seed=3, impl="polya")
        assert str(a) == str(b)
        assert any(line.startswith("leaf y ") for line in a.lines())

    def test_trials_too_small(self):
        t = parse_term("rch[1,1](y, z)", YZ)
        with pytest.raises(TermError, match="too small"):
            compare(YZ, t, trials=3, seed=0, impl="polya")

    @pytest.mark.parametrize("trials, impl, message", [
        (0, "polya", "trials must be at least 1"),
        (-3, "betabern", "trials must be at least 1"),
        (3, "exact", "unknown implementation 'exact'"),
    ])
    def test_arguments_checked_first(self, trials, impl, message):
        t = parse_term("rch[1,1](y, z)", YZ)
        with pytest.raises(TermError, match=f"^{message}$"):
            compare(YZ, t, trials=trials, seed=0, impl=impl)


# chi2.ppf(0.999, dof) as computed by scipy.stats 1.17
CHI2_999 = {
    1: 10.827566170662733,
    2: 13.815510557964274,
    3: 16.26623619623813,
    4: 18.46682695290317,
    5: 20.515005652432873,
    7: 24.321886347856854,
    10: 29.58829844507442,
    30: 59.70306430442994,
    100: 149.44925277903886,
    1000: 1143.9170926196791,
}


class TestChiSquareQuantile:
    @pytest.mark.parametrize("dof", sorted(CHI2_999))
    def test_matches_pinned_table(self, dof):
        assert chi2.ppf(1 - SIGNIFICANCE, dof) == pytest.approx(CHI2_999[dof], rel=1e-12)

    @pytest.mark.parametrize("dof", [1, 2, 7, 5000])
    def test_survival_at_quantile(self, dof):
        # at large dof exp(-x/2) alone underflows; the log-space terms do not
        x = chi2.ppf(1 - SIGNIFICANCE, dof)
        assert chi2.sf(x, dof) == pytest.approx(SIGNIFICANCE, rel=1e-9)
        assert chi2.sf(0.0, dof) == 1.0


class TestAgreement:
    def test_both_impls_pass_appendix_terms(self):
        one = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        two = parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", YZ)
        for impl, seed in (("polya", 41), ("betabern", 42)):
            assert compare(YZ, one, trials=30000, seed=seed, impl=impl).passed
            assert compare(YZ, two, trials=30000, seed=seed + 1, impl=impl).passed

    def test_random_ground_terms_both_impls(self):
        rng = random.Random(77)
        for trial in range(6):
            t = gen_ground_term(rng, XYZ, 12)
            for impl in ("polya", "betabern"):
                report = compare(XYZ, t, trials=20000, seed=1000 + trial, impl=impl)
                assert report.passed, (trial, impl, str(report))

    def test_cross_comparison_fails(self):
        one = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", YZ)
        two = parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", YZ)
        counts = estimate(YZ, one, trials=30000, seed=91, impl="polya")
        wrong = compare_counts(counts, exact_distribution(YZ, two), 30000, "polya", 91)
        assert not wrong.passed
