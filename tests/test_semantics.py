"""Exact evaluator: beta moments, Bernstein algebra, chain functionals."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import refpoly
import refsem
from betabern import (
    Chain,
    FuncArg,
    Nu,
    ParamChoice,
    Poly,
    RatioChoice,
    bernstein,
    bernstein_multi,
    beta_moment,
    chain_functional,
    chain_rank_check,
    elevate,
    interpret,
    interpret_normalform,
    normalize,
    parse_context,
    parse_term,
    reify,
    semantics,
    term_from_bernstein,
    to_bernstein,
)
from betabern.papersuite import square_subspace_chains
from betabern.poly import PolyError, format_poly, monomial, parse_poly
from betabern.semantics import (
    bernstein_expand,
    functional_eq,
    functional_eq_sampled,
    indicator_args,
    random_poly_args,
    standard_formals,
    zero_args,
)
from betabern.terms import TermError, VarApp, format_term
from termgen import CONTEXTS, gen_term, rewrite_chain

F = Fraction

UNIVERSE = ("a", "b", "c")

# sparse polynomials over a subset of UNIVERSE, zero coefficients included
SPARSE_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(UNIVERSE)),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    max_size=5,
).map(lambda terms: Poly.make(UNIVERSE, terms))


def dense(p: Poly) -> dict:
    """The terms of ``p`` keyed over all of UNIVERSE."""
    out = {}
    for exps, coeff in p.terms.items():
        named = dict(zip(p.vars, exps))
        out[tuple(named.get(v, 0) for v in UNIVERSE)] = coeff
    return out


def assert_normal(p: Poly) -> None:
    assert list(p.vars) == sorted(set(p.vars))
    assert all(len(e) == len(p.vars) for e in p.terms)
    assert all(any(e[i] for e in p.terms) for i in range(len(p.vars)))
    assert all(type(c) is Fraction and c for c in p.terms.values())


POLY_TOKENS = ["a", "b", "c", "0", "1", "2", "3", "+", "-", "*", "/", "^", "(", ")"]


def poly_tokens(rng, depth: int = 0) -> tuple[list[str], int]:
    """The tokens of a random text of the polynomial grammar, nested at most
    five deep, and a bound on its degree that keeps powers small."""
    out = [rng.choice("+-") for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    degree = 0
    for k in range(rng.randint(1, 3)):
        if k:
            out.append(rng.choice("+-"))
        term_degree = 0
        for m in range(rng.randint(1, 2)):
            if m:
                out.append("*")
            r = rng.random()
            if r < 0.3 and depth < 5:
                inner, d = poly_tokens(rng, depth + 1)
                base = ["(", *inner, ")"]
            elif r < 0.65:
                base, d = [rng.choice("abc")], 1
            else:
                base, d = rng.choice([["1"], ["2"], ["1", "/", "2"], ["3", "/", "4"], ["0"]]), 0
            if rng.random() < 0.25 and d <= 4:
                e = rng.randint(0, 3)
                base, d = [*base, "^", str(e)], d * e
            out += base
            term_degree += d
        degree = max(degree, term_degree)
    return out, degree


def poly_text(rng) -> str:
    """A random text: a valid one, a valid one with one token deleted,
    inserted or replaced, or up to 14 random tokens."""
    kind = rng.randrange(3)
    if kind == 2:
        return " ".join(rng.choice(POLY_TOKENS) for _ in range(rng.randint(0, 14)))
    tokens, _ = poly_tokens(rng)
    if kind == 1:
        at = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(3)
        if edit == 0 and at < len(tokens):
            del tokens[at]
        else:
            tokens[at:at + (edit == 2)] = [rng.choice(POLY_TOKENS)]
    return " ".join(tokens)  # spaced, so no two numerals run together


def parsed(parse, text: str, allowed_vars):
    try:
        return parse(text, allowed_vars)
    except PolyError as e:
        return str(e)


class TestPoly:
    def test_arithmetic_and_normal_form(self):
        p, q = Poly.var("p"), Poly.var("q")
        expr = (p + q) * (p - q)
        assert expr == p * p - q * q
        assert (expr - expr).is_zero()
        assert (p - p).vars == ()

    def test_parse_and_format(self):
        text = "2*a^2*b - 1/3*b + 1/2"
        p = parse_poly(text)
        assert format_poly(p) == text
        assert parse_poly(format_poly(p)) == p

    def test_eval(self):
        p = parse_poly("a*b + 1/2")
        assert p.eval({"a": F(1, 2), "b": F(2, 3)}) == F(5, 6)

    def test_unknown_variable_rejected(self):
        with pytest.raises(PolyError):
            parse_poly("a + b", allowed_vars={"a"})

    def test_parse_matches_recursive_reference(self):
        # 21,000 seeded texts, every one shallow enough for the reference's
        # recursion: equal values, or the same message at the same token
        rng = random.Random(24)
        valid = 0
        for _ in range(21000):
            text = poly_text(rng)
            allowed = rng.choice((None, {"a", "b"}))
            want = parsed(refpoly.parse_poly, text, allowed)
            assert parsed(parse_poly, text, allowed) == want, text
            valid += isinstance(want, Poly)
        assert 5000 < valid < 16000

    def test_deep_parentheses(self):
        n = 100000
        assert parse_poly("(" * n + "-a" + ")" * n + "*2") == parse_poly("-2*a")
        with pytest.raises(PolyError, match=f"expected '\\)' \\(at token {2 * n}: ''\\)"):
            parse_poly("(" * n + "a" + ")" * (n - 1))

    def test_identifiers_are_ascii(self):
        assert parse_poly("a_1*_B2").vars == ("_B2", "a_1")
        with pytest.raises(PolyError, match="unexpected character '\u00e9'"):
            parse_poly("\u00e9*\u00e9")
        with pytest.raises(PolyError, match="unexpected character '\u00b2'"):
            parse_poly("a\u00b2")

    # Every operation must return what Poly.make builds from the same result
    # written densely over all of UNIVERSE, and keep the normal-form invariants.

    @settings(max_examples=150, deadline=None)
    @given(SPARSE_POLYS, SPARSE_POLYS)
    def test_ring_operations_match_rebuild(self, p, q):
        a, b = dense(p), dense(q)
        summed = dict(a)
        for e, c in b.items():
            summed[e] = summed.get(e, 0) + c
        diff = dict(a)
        for e, c in b.items():
            diff[e] = diff.get(e, 0) - c
        product = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                product[e] = product.get(e, 0) + c1 * c2
        for got, want in ((p + q, summed), (p - q, diff), (p * q, product)):
            assert_normal(got)
            assert got == Poly.make(UNIVERSE, want)

    @settings(max_examples=100, deadline=None)
    @given(SPARSE_POLYS, st.fractions(min_value=-3, max_value=3, max_denominator=5))
    def test_scale_matches_rebuild(self, p, factor):
        got = p.scale(factor)
        assert_normal(got)
        assert got == Poly.make(UNIVERSE, {e: c * factor for e, c in dense(p).items()})

    def test_cancelling_product_is_zero(self):
        p, q = parse_poly("a*b - 1/2"), parse_poly("b + c^2")
        out = p * q - p * q
        assert out.is_zero() and out.vars == () and out.terms == {}

    def test_cancelled_summand_drops_its_variables(self):
        p, q = parse_poly("a^2 + 1/2"), parse_poly("a*b - b + c")
        out = (p + q) - q
        assert_normal(out)
        assert out == p and out.vars == ("a",)

    def test_power_by_squaring_matches_product(self):
        base = parse_poly("2*a - 1/3*b + 1")
        want = Poly.const(1)
        for e in range(12):
            assert parse_poly(f"(2*a - 1/3*b + 1)^{e}") == want
            want = want * base

    def test_exponent_of_2_to_32_refused(self):
        assert parse_poly(f"a^{2**32 - 1}").terms == {(2**32 - 1,): 1}
        with pytest.raises(PolyError, match="exponent 4294967296 is 2\\^32 or more"):
            parse_poly(f"a^{2**32}")


class TestBetaMoment:
    def test_total_mass(self):
        assert beta_moment((1, 1), 0, 0) == 1

    def test_uniform_mean(self):
        assert beta_moment((1, 1), 1, 0) == F(1, 2)

    def test_factorial_formula(self):
        # B(i+a, j+c) / B(i, j) with B(i,j) = (i-1)!(j-1)!/(i+j-1)!
        from math import factorial

        def beta_fn(i, j):
            return F(factorial(i - 1) * factorial(j - 1), factorial(i + j - 1))

        for i, j, a, c in itertools.product(range(1, 5), range(1, 5),
                                            range(0, 4), range(0, 4)):
            assert beta_moment((i, j), a, c) == beta_fn(i + a, j + c) / beta_fn(i, j)

    def test_specific_value(self):
        assert beta_moment((2, 1), 1, 0) == F(2, 3)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(TermError):
            beta_moment((0, 1), 1)

    def test_large_exponent_in_closed_form(self):
        # j + c factors once a > j, not a + c
        started = time.time()
        assert beta_moment((1, 1), 10**6) == F(1, 1000001)
        assert time.time() - started < 0.1

    def test_evaluator_moments_agree(self):
        # the evaluator takes the shorter of two products for E[q^e]: e
        # factors while e <= j, j factors beyond
        ctx = parse_context("params: - ; vars: x:1")
        for i, j, e in itertools.product(range(1, 5), range(1, 5), range(13)):
            t = parse_term(f"nu[{i},{j}]p.x(p)", ctx)
            args = {"x": FuncArg(("a",), monomial({"a": e}))}
            assert interpret(ctx, t, args) == Poly.const(beta_moment((i, j), e)), (i, j, e)


class TestBernstein:
    def test_low_degree_values(self):
        assert bernstein(0, 1) == Poly.var("p")
        assert bernstein(1, 2) == parse_poly("2*p - 2*p^2")

    def test_partition_of_unity(self):
        for k in range(13):
            total = Poly.zero()
            for i in range(k + 1):
                total = total + bernstein(i, k)
            assert total == Poly.const(1)

    def test_multi_is_product(self):
        b = bernstein_multi((1, 0), 2, ("p", "q"))
        assert b == bernstein(1, 2, "p") * bernstein(0, 2, "q")

    def test_elevate_constant(self):
        assert elevate([1, 1]) == [1, 1, 1]

    def test_elevate_linear(self):
        # p = b[0,1] has degree-2 coefficients (1, 1/2, 0), by solving
        # p = a*b[0,2] + b*b[1,2] + c*b[2,2] exactly
        assert elevate([1, 0]) == [1, F(1, 2), 0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(), min_size=1, max_size=7))
    def test_elevate_preserves_polynomial(self, coeffs):
        k = len(coeffs) - 1
        before = Poly.zero()
        for i, c in enumerate(coeffs):
            before = before + bernstein(i, k).scale(c)
        lifted = elevate(coeffs)
        after = Poly.zero()
        for i, c in enumerate(lifted):
            after = after + bernstein(i, k + 1).scale(c)
        assert before == after

    def test_elevate_keeps_nonnegativity(self):
        rng = random.Random(1)
        for _ in range(20):
            coeffs = [F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(5)]
            assert all(c >= 0 for c in elevate(coeffs))


class TestToBernstein:
    def test_constant(self):
        table, nonneg = to_bernstein(Poly.const(1), 2, ("p",))
        assert nonneg and all(c == 1 for c in table.values())

    def test_linear(self):
        table, nonneg = to_bernstein(Poly.var("p"), 1, ("p",))
        assert table == {(0,): 1, (1,): 0} and nonneg

    def test_degree_too_high(self):
        with pytest.raises(PolyError):
            to_bernstein(parse_poly("p^3"), 2, ("p",))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_round_trip(self, seed, k):
        rng = random.Random(seed)
        params = ("p", "q")
        terms = {}
        for exps in itertools.product(range(k + 1), repeat=2):
            if rng.random() < 0.5:
                terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 4))
        p = Poly.make(params, terms)
        table, _ = to_bernstein(p, k, params)
        assert bernstein_expand(table, k, params) == p


CTX_XY = parse_context("params: - ; vars: x:0, y:0")


class TestInterpret:
    def test_fair_coin(self):
        t = parse_term("rch[1,1](x,y)", CTX_XY)
        args = {"x": FuncArg.constant(1), "y": FuncArg.constant(0)}
        assert interpret(CTX_XY, t, args) == Poly.const(F(1, 2))

    def test_integration_functional(self):
        ctx = parse_context("params: - ; vars: x:1")
        t = parse_term("nu[1,1]p.x(p)", ctx)
        args = {"x": FuncArg(("r1",), Poly.var("r1"))}
        assert interpret(ctx, t, args) == Poly.const(F(1, 2))

    def test_repeated_formals_rejected(self):
        with pytest.raises(PolyError, match=r"repeats formals \['a'\]"):
            FuncArg(("a", "b", "a"), Poly.var("a"))

    def test_two_draw_masses(self):
        ctx = parse_context("params: - ; vars: y:0, z:0")
        args = {"y": FuncArg.constant(1), "z": FuncArg.constant(0)}
        single = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", ctx)
        nested = parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", ctx)
        assert interpret(ctx, single, args) == Poly.const(F(1, 3))
        assert interpret(ctx, nested, args) == Poly.const(F(1, 4))

    def test_symbolic_in_free_parameters(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        t = parse_term("pch[p](x, y)", ctx)
        args = {"x": FuncArg.constant(1), "y": FuncArg.constant(0)}
        assert interpret(ctx, t, args) == Poly.var("p")

    def test_missing_argument(self):
        with pytest.raises(TermError, match="missing argument"):
            interpret(CTX_XY, parse_term("x", CTX_XY), {"x": FuncArg.constant(1)})

    def test_linearity_per_variable(self):
        rng = random.Random(11)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        for _ in range(15):
            t = gen_term(rng, ctx, 12)
            f = random_poly_args(ctx, rng, 2)
            g = random_poly_args(ctx, rng, 2)
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            combined = {
                name: FuncArg(f[name].formals,
                              f[name].poly + g[name].poly.scale(lam))
                for name in f
            }
            lhs = interpret(ctx, t, combined)
            rhs = interpret(ctx, t, f) + interpret(ctx, t, g).scale(lam)
            assert lhs == rhs

    def test_unitality(self):
        rng = random.Random(13)
        ctx = parse_context("params: p, q ; vars: x:2, y:1, z:0")
        ones = {name: FuncArg(standard_formals(m), Poly.const(1))
                for name, m in ctx.vars}
        for _ in range(25):
            t = gen_term(rng, ctx, 16)
            assert interpret(ctx, t, ones) == Poly.const(1)

    def test_monotone_positivity_via_bernstein(self):
        # nonnegative Bernstein inputs produce outputs with nonnegative
        # Bernstein coefficients at high enough degree
        rng = random.Random(17)
        ctx = parse_context("params: p ; vars: x:1, y:0")
        for _ in range(10):
            t = gen_term(rng, ctx, 10)
            table = {(i,): F(rng.randint(0, 5), rng.randint(1, 3)) for i in range(3)}
            args = {
                "x": FuncArg(("r1",), bernstein_expand(table, 2, ("r1",))),
                "y": FuncArg.constant(F(rng.randint(0, 5), rng.randint(1, 3))),
            }
            value = interpret(ctx, t, args)
            degree = max(2, value.degree("p"))
            _, nonneg = to_bernstein(value, degree, ("p",))
            assert nonneg


class TestChainFunctional:
    def test_diagonal_second_moment(self):
        ctx = parse_context("params: p1, p2 ; vars: x:2")
        chain = Chain(((1, 1),), "x", (("B", 1), ("B", 1)))
        arg = FuncArg(("r1", "r2"), parse_poly("r1*r2"))
        assert chain_functional(ctx, chain, arg) == Poly.const(F(1, 3))

    def test_free_squares_stay_symbolic(self):
        ctx = parse_context("params: p1, p2 ; vars: x:2")
        chain = Chain((), "x", (("F", 1), ("F", 2)))
        arg = FuncArg(("r1", "r2"), parse_poly("r1*r2"))
        assert chain_functional(ctx, chain, arg) == parse_poly("p1*p2")

    def test_product_of_means(self):
        ctx = parse_context("params: p1, p2 ; vars: x:2")
        chain = Chain(((1, 1), (1, 1)), "x", (("B", 1), ("B", 2)))
        arg = FuncArg(("r1", "r2"), parse_poly("r1*r2"))
        assert chain_functional(ctx, chain, arg) == Poly.const(F(1, 4))

    def test_binder_named_past_a_parameter_b1(self):
        # the chain's own term binds b2, since b1 is a free parameter
        ctx = parse_context("params: b1, p ; vars: x:3")
        chain = Chain(((2, 1),), "x", (("B", 1), ("F", 1), ("B", 1)))
        assert format_term(chain.to_term(ctx)) == "nu[2,1]b2.x(b2,b1,b2)"
        arg = FuncArg(("r1", "r2", "r3"), parse_poly("r1*r2 + r3^2 - 1/2*r2"))
        assert chain_functional(ctx, chain, arg) == parse_poly("1/6*b1 + 1/2")

    def test_formals_mismatch_refused(self):
        ctx = parse_context("params: p1, p2 ; vars: x:2")
        chain = Chain(((1, 1),), "x", (("B", 1), ("B", 1)))
        with pytest.raises(TermError, match="^argument has 1 formals but the chain "
                                            "variable takes 2$"):
            chain_functional(ctx, chain, FuncArg(("r1",), parse_poly("r1")))

    def test_matches_term_interpretation(self):
        ctx = parse_context("params: p1 ; vars: x:2")
        chain = Chain(((2, 3),), "x", (("B", 1), ("F", 1)))
        term = chain.to_term(ctx)
        rng = random.Random(23)
        for _ in range(5):
            args = random_poly_args(ctx, rng, 3)
            assert chain_functional(ctx, chain, args["x"]) == interpret(ctx, term, args)


class TestInterpretNormalForm:
    def test_stone_value(self):
        ctx = parse_context("params: - ; vars: x:0, y:0, z:0")
        nf = normalize(ctx, parse_term("rch[2,8](x, rch[3,5](y,z))", ctx))
        assert interpret_normalform(nf, indicator_args(ctx, "x")) == Poly.const(F(2, 10))

    def test_all_ones_is_unital(self):
        rng = random.Random(29)
        ctx = parse_context("params: p ; vars: x:1, y:0")
        ones = {name: FuncArg(standard_formals(m), Poly.const(1))
                for name, m in ctx.vars}
        for _ in range(10):
            nf = normalize(ctx, gen_term(rng, ctx, 12))
            assert interpret_normalform(nf, ones) == Poly.const(1)

    def test_agrees_with_reified_interpretation(self):
        rng = random.Random(31)
        ctx = parse_context("params: p, q ; vars: x:2, y:0")
        for _ in range(12):
            t = gen_term(rng, ctx, 14, weight_max=3)
            nf = normalize(ctx, t)
            args = random_poly_args(ctx, rng, 3)
            assert interpret_normalform(nf, args) == interpret(ctx, reify(nf), args)


class TestChainRankCheck:
    def test_ten_square_chains_full_rank(self):
        ctx, chains = square_subspace_chains()
        assert len(chains) == 10
        assert chain_rank_check(ctx, chains,
                                {"p1": F(1, 2), "p2": F(1, 3)}, degree=4)

    def test_coincident_points_lose_rank(self):
        ctx, chains = square_subspace_chains()
        assert not chain_rank_check(ctx, chains,
                                    {"p1": F(1, 2), "p2": F(1, 2)}, degree=4,
                                    require_distinct=False)

    def test_coincident_points_rejected_by_default(self):
        ctx, chains = square_subspace_chains()
        with pytest.raises(TermError, match="distinct"):
            chain_rank_check(ctx, chains, {"p1": F(1, 2), "p2": F(1, 2)})

    def test_duplicate_chain_fails(self):
        ctx = parse_context("params: p1 ; vars: x:1")
        chain = Chain(((1, 1),), "x", (("B", 1),))
        assert not chain_rank_check(ctx, [chain, chain])

    def test_single_chain_passes(self):
        ctx = parse_context("params: p1 ; vars: x:1")
        chain = Chain(((1, 1),), "x", (("B", 1),))
        assert chain_rank_check(ctx, [chain])

    def test_default_points_are_prime_reciprocals(self):
        from betabern.semantics import default_rank_points

        ctx = parse_context("params: a, b, c ; vars: x:0")
        assert default_rank_points(ctx) == {"a": F(1, 2), "b": F(1, 3), "c": F(1, 5)}

    def test_mixed_variables(self):
        ctx = parse_context("params: p1 ; vars: x:1, y:0")
        chains = [
            Chain(((1, 1),), "x", (("B", 1),)),
            Chain((), "x", (("F", 1),)),
            Chain((), "y", ()),
        ]
        assert chain_rank_check(ctx, chains)


class TestTermFromBernstein:
    def test_stone_weights(self):
        ctx = parse_context("params: - ; vars: x:0, y:0, z:0")
        t = term_from_bernstein(ctx, 0, {(): [F(2, 10), F(3, 10), F(5, 10)]})
        expected = parse_term("rch[2,8](x, rch[3,5](y,z))", ctx)
        from betabern import equal

        assert equal(ctx, t, expected).equal

    def test_mass_on_one_variable(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        coeffs = {(i,): [F(1), F(0)] for i in range(3)}
        t = term_from_bernstein(ctx, 2, coeffs)
        from betabern import equal

        assert equal(ctx, t, parse_term("x", ctx)).equal

    def test_interpretation_reproduces_table(self):
        rng = random.Random(37)
        ctx = parse_context("params: p ; vars: x:0, y:0, z:0")
        k = 2
        coeffs = {}
        for i in range(k + 1):
            raw = [F(rng.randint(0, 6)) for _ in range(3)]
            while sum(raw) == 0:
                raw = [F(rng.randint(0, 6)) for _ in range(3)]
            total = sum(raw)
            coeffs[(i,)] = [c / total for c in raw]
        t = term_from_bernstein(ctx, k, coeffs)
        for pos, (name, _) in enumerate(ctx.vars):
            value = interpret(ctx, t, indicator_args(ctx, name))
            expected = bernstein_expand(
                {index: vec[pos] for index, vec in coeffs.items()}, k, ("p",))
            assert value == expected

    def test_depth_two_diagram(self):
        # leaf masses (v | x?y | v) rebuild the two-draw diagram
        ctx = parse_context("params: p ; vars: v:0, x:0, y:0")
        coeffs = {
            (0,): [F(1), F(0), F(0)],
            (1,): [F(0), F(1, 2), F(1, 2)],
            (2,): [F(1), F(0), F(0)],
        }
        t = term_from_bernstein(ctx, 2, coeffs)
        from betabern import equal

        source = parse_term("pch[p](pch[p](v,x), pch[p](y,v))", ctx)
        assert equal(ctx, t, source).equal
        assert format_term(t) == "pch[p](pch[p](v, rch[1,1](x, y)), pch[p](rch[1,1](x, y), v))"

    def test_rejects_bad_tables(self):
        ctx = parse_context("params: - ; vars: x:0, y:0")
        with pytest.raises(TermError, match="sum"):
            term_from_bernstein(ctx, 0, {(): [F(1, 2), F(1, 4)]})
        with pytest.raises(TermError, match="negative"):
            term_from_bernstein(ctx, 0, {(): [F(3, 2), F(-1, 2)]})
        ctx_bad = parse_context("params: - ; vars: x:1")
        with pytest.raises(TermError, match="arity 0"):
            term_from_bernstein(ctx_bad, 0, {(): [F(1)]})


class TestOracle:
    def test_detects_known_inequality(self):
        ctx = parse_context("params: - ; vars: x:2")
        lhs = parse_term("nu[1,1]p.x(p,p)", ctx)
        rhs = parse_term("nu[1,1]p.nu[1,1]q.x(p,q)", ctx)
        assert not functional_eq(ctx, lhs, rhs)

    def test_accepts_derivable_equality(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        lhs = parse_term("rch[1,1](x,y)", ctx)
        rhs = parse_term(
            "pch[p](pch[p](rch[1,1](x,y), x), pch[p](y, rch[1,1](x,y)))", ctx)
        assert functional_eq(ctx, lhs, rhs)

    def test_zero_args_shortcut(self):
        ctx = parse_context("params: p ; vars: x:1")
        t = parse_term("nu[1,1]q.pch[p](x(q), x(p))", ctx)
        assert interpret(ctx, t, zero_args(ctx)).is_zero()

    def test_monomial_helper(self):
        assert monomial({"a": 2, "b": 0}) == parse_poly("a^2")
        assert monomial({}) == Poly.const(1)


def scale_ratios(t, factor: int, bump: int = 0):
    """``t`` with every ratio choice's weights times ``factor`` (the same
    meaning); ``bump`` is added to the right weight of the first one."""
    if isinstance(t, RatioChoice):
        right = t.j * factor + bump
        return RatioChoice(t.i * factor, right, scale_ratios(t.left, factor),
                           scale_ratios(t.right, factor))
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, scale_ratios(t.left, factor, bump),
                           scale_ratios(t.right, factor))
    if isinstance(t, Nu):
        return Nu(t.i, t.j, t.param, scale_ratios(t.body, factor, bump))
    return t


class TestSampledOracle:
    """The sampled oracle over a random prime field."""

    def test_weight_past_any_fixed_modulus_is_not_equal(self):
        # 2^61 = 1 mod 2^61 - 1, so over that fixed field both weigh 1 : 1
        ctx = parse_context("params: - ; vars: y:0, z:0")
        t = parse_term("rch[1,1](y, z)", ctx)
        u = parse_term(f"rch[1,{1 << 61}](y, z)", ctx)
        for seed in range(100):
            assert not functional_eq_sampled(ctx, t, u, random.Random(seed)), seed

    @pytest.mark.parametrize("i, j", [(1, 1), (2, 3), (5, 2)])
    def test_conjugacy_in_the_field(self, i, j):
        # Conj: a choice on a Beta(i, j) parameter is the ratio i : j between
        # the two updated binders, which only the right moments E[q^e] see
        ctx = parse_context("params: - ; vars: x:1, y:0")
        t = parse_term(f"nu[{i},{j}]q.pch[q](x(q), y)", ctx)
        same = parse_term(f"rch[{i},{j}](nu[{i + 1},{j}]q.x(q), nu[{i},{j + 1}]q.y)", ctx)
        other = parse_term(f"rch[{i},{j}](nu[{i},{j + 1}]q.x(q), nu[{i + 1},{j}]q.y)", ctx)
        for seed in range(5):
            assert functional_eq_sampled(ctx, t, same, random.Random(seed))
            assert not functional_eq_sampled(ctx, t, other, random.Random(seed))

    @pytest.mark.parametrize("kind", ["ratio total", "beta moment"])
    def test_redraws_a_prime_that_divides_a_denominator(self, monkeypatch, kind):
        prime = (1 << 61) - 1
        real = semantics._random_prime
        drawn = []

        def forced(rng):
            drawn.append(real(rng) if drawn else prime)
            return drawn[-1]

        monkeypatch.setattr(semantics, "_random_prime", forced)
        ctx = parse_context("params: p ; vars: x:1, z:0")
        if kind == "ratio total":  # i + j = prime
            t = f"rch[1,{prime - 1}](nu[1,1]q.x(q), pch[p](z, x(p)))"
            same = f"rch[3,{3 * prime - 3}](nu[1,1]q.x(q), pch[p](z, x(p)))"
            other = f"rch[1,{prime}](nu[1,1]q.x(q), pch[p](z, x(p)))"
        else:  # i + j + 1 = prime divides the denominator of E[q^2]
            t = f"nu[1,{prime - 2}]q.pch[p](x(q), z)"
            same = f"nu[1,{prime - 2}]q.rch[2,5](pch[p](x(q), z), pch[p](x(q), z))"
            other = f"nu[1,{prime - 1}]q.pch[p](x(q), z)"
        for text, want in ((same, True), (other, False)):
            lhs, rhs = parse_term(t, ctx), parse_term(text, ctx)
            drawn.clear()
            assert functional_eq_sampled(ctx, lhs, rhs, random.Random(3), degree=2) is want
            assert drawn[0] == prime and len(drawn) == 2
            assert functional_eq(ctx, lhs, rhs, degree=2) is want

    @pytest.mark.parametrize("degree", [None, 3])
    def test_consumes_the_callers_draws_only(self, degree):
        ctx = parse_context("params: p ; vars: x:2, y:1, z:0")
        t = parse_term("nu[2,1]q.pch[p](x(q,p), rch[1,2](y(q), z))", ctx)
        u = parse_term("nu[2,1]q.pch[q](x(q,p), y(p))", ctx)
        per_axis = 1 + (degree or 3)  # the default is the level 2 + 1
        for seed in range(5):
            rng, twin = random.Random(seed), random.Random(seed)
            functional_eq_sampled(ctx, t, u, rng, degree)
            for _, arity in ctx.vars:  # the draws of random_poly_args
                for _ in range(per_axis ** arity):
                    twin.randrange(1, 1 << 30)
            assert rng.getstate() == twin.getstate()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["rewrite", "independent", "bumped"]),
           st.integers(2**62, 2**80))
    def test_agrees_with_the_exact_sweep(self, seed, kind, factor):
        ctx = parse_context("params: p, q ; vars: x:2, y:1, z:0")
        rng = random.Random(seed)
        t = gen_term(rng, ctx, 10, weight_max=3)
        if kind == "rewrite":
            u = scale_ratios(rewrite_chain(rng, ctx, t, rng.randint(1, 6)), factor + 1)
        elif kind == "independent":
            u = scale_ratios(gen_term(rng, ctx, 10, weight_max=3), factor)
        else:
            u = scale_ratios(t, factor, bump=1)
        t = scale_ratios(t, factor)
        assert functional_eq_sampled(ctx, t, u, rng) == functional_eq(ctx, t, u)

    def test_ratio_weights_are_cached_per_walk(self):
        # weights are unbounded input: they live as long as one walk, and no
        # module-level cache grows with them
        caches = [f for f in vars(semantics).values() if hasattr(f, "cache_info")]
        before = [f.cache_info().currsize for f in caches]
        ctx = parse_context("params: - ; vars: y:0, z:0")
        walk = semantics._Walk()
        for i in range(1, 10_001):
            assert walk.ratio(i, i + 1) == (i, i + 1, 2 * i + 1)
        assert len(walk.weights) == 10_000
        for i in range(1, 201):
            t = parse_term(f"rch[{i},{i + 1}](y, z)", ctx)
            assert functional_eq_sampled(ctx, t, t, random.Random(i))
        assert [f.cache_info().currsize for f in caches] == before

    def test_miller_rabin_is_exact(self):
        for n in range(3, 20_000, 2):
            assert semantics._is_prime(n) == all(n % d for d in range(3, int(n ** 0.5) + 1, 2)), n
        assert semantics._is_prime((1 << 61) - 1)
        # strong pseudoprimes to the prime bases up to 23, and a 62-bit semiprime
        assert not semantics._is_prime(3825123056546413051)
        assert not semantics._is_prime(((1 << 31) - 1) * 2147483659)


def swap_args(t):
    """``t`` with the arguments of every application reversed."""
    if isinstance(t, VarApp):
        return VarApp(t.var, t.args[::-1])
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, swap_args(t.left), swap_args(t.right))
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, swap_args(t.left), swap_args(t.right))
    return Nu(t.i, t.j, t.param, swap_args(t.body))


def fraction_args(rng, ctx, degree: int) -> dict:
    """Random arguments with Fraction coefficients; some are zero and some
    leave formals unused."""
    args = {}
    for var, arity in ctx.vars:
        formals = standard_formals(arity)
        used = [rng.random() < 0.7 for _ in formals]
        terms = {}
        if rng.random() < 0.9:
            for exps in itertools.product(range(degree + 1), repeat=arity):
                if all(u or not e for e, u in zip(exps, used)) and rng.random() < 0.6:
                    terms[exps] = F(rng.randint(-9, 9), rng.randint(1, 12))
        args[var] = FuncArg(formals, Poly.make(formals, terms))
    return args


class TestAgainstReference:
    """The integer walk against the recursive ``Poly`` interpreter and the
    per-monomial sweep of ``refsem``."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(CONTEXTS), st.integers(0, 9))
    def test_interpret(self, seed, ctx, coin):
        rng = random.Random(seed)
        t = gen_term(rng, ctx, rng.randint(1, 40), weight_max=4)
        if coin < 4:  # 40%: ratio weights scaled by up to 2^70
            t = scale_ratios(t, rng.randint(2, 1 << 70))
        args = fraction_args(rng, ctx, 3)
        assert interpret(ctx, t, args) == refsem.interpret(t, args)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(CONTEXTS),
           st.sampled_from(["rewrite", "independent", "bumped", "swapped"]), st.integers(0, 9))
    def test_sweep(self, seed, ctx, kind, coin):
        rng = random.Random(seed)
        t = gen_term(rng, ctx, 16, weight_max=4)
        if kind == "rewrite":
            u = rewrite_chain(rng, ctx, t, rng.randint(1, 6))
        elif kind == "independent":
            u = gen_term(rng, ctx, 16, weight_max=4)
        elif kind == "bumped":
            u = scale_ratios(t, 1, bump=1)
        else:
            u = swap_args(t)
        if coin < 4:  # 40%: ratio weights scaled by up to 2^70, unlike factors
            factor = rng.randint(2, 1 << 70)
            t, u = scale_ratios(t, factor), scale_ratios(u, factor + 1)
        want = refsem.functional_eq(ctx, t, u)
        assert functional_eq(ctx, t, u) == want
        assert want or kind != "rewrite"

    def test_branches_with_different_denominators(self):
        # values over 2 and over 4 * 5 (the Beta(2,3) mean) meet in choices
        # over 3 and 2
        ctx = parse_context("params: p ; vars: x:1, y:0")
        a, b = "rch[1,1](x(p), y)", "nu[2,3]q.rch[1,4](x(q), y)"
        t = parse_term(f"rch[1,2]({a}, {b})", ctx)
        same = parse_term(f"rch[1,1](rch[2,1]({a}, {b}), {b})", ctx)
        other = parse_term(f"rch[1,1](rch[2,1]({a}, {b}), {a})", ctx)
        for u, want in ((same, True), (other, False)):
            assert refsem.functional_eq(ctx, t, u) is want
            assert functional_eq(ctx, t, u) is want
        args = {"x": FuncArg(("r1",), parse_poly("r1^2 + 1/7", {"r1"})),
                "y": FuncArg.constant(F(3, 5))}
        for u in (t, same, other):
            assert interpret(ctx, u, args) == refsem.interpret(u, args)
        assert interpret(ctx, t, args) == interpret(ctx, same, args)

    @pytest.mark.parametrize("params, binders", [("-", "nu[1,1]p.nu[1,2]q."), ("p, q", "")])
    def test_swapped_arguments_are_told_apart(self, params, binders):
        # r1^a r2^b and its mirror r1^b r2^a are both in the sweep, so the sum
        # over all monomials is the same for the two terms; each one is not
        ctx = parse_context(f"params: {params} ; vars: x:2")
        t = parse_term(f"{binders}x(p,q)", ctx)
        u = parse_term(f"{binders}x(q,p)", ctx)
        assert not refsem.functional_eq(ctx, t, u)
        assert not functional_eq(ctx, t, u)
