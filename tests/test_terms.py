"""Syntax layer: parsing, printing, well-formedness, substitution, alpha."""

import random
import time
from dataclasses import FrozenInstanceError, fields, replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from betabern import (
    Context,
    Nu,
    ParamChoice,
    ParseError,
    RatioChoice,
    SubstitutionError,
    TermError,
    VarApp,
    alpha_eq,
    check_wellformed,
    equal,
    estimate,
    format_context,
    format_term,
    free_params,
    normalize,
    parse_context,
    parse_term,
    reify,
    substitute,
)
from betabern import terms
from betabern.terms import Term, all_params, rename_params, replace_at, subterm_at
from golden import workload_ops
from termgen import CONTEXTS, all_paths, gen_term, mutate, spine

import refterms

CTX = parse_context("params: p ; vars: x:0, y:0")
YZ = parse_context("params: - ; vars: y:0, z:0")


def parse_in_ctx(text):
    return parse_term(text, CTX)


class TestContext:
    def test_parse_round_trip(self):
        ctx = parse_context("params: p, q ; vars: x:2, y:0")
        assert ctx.params == ("p", "q")
        assert ctx.vars == (("x", 2), ("y", 0))
        assert parse_context(format_context(ctx)) == ctx

    def test_empty_zones(self):
        assert parse_context("params: - ; vars: x:0").params == ()
        assert parse_context("params: p ; vars: -").vars == ()

    def test_arity_defaults_to_zero(self):
        assert parse_context("params: - ; vars: y").vars == (("y", 0),)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_context("params: p ; vars: p:0")
        with pytest.raises(TermError):
            Context(("p", "p"), ())

    def test_negative_arity_rejected(self):
        with pytest.raises(TermError):
            Context((), (("x", -1),))


class TestParse:
    def test_stone_term(self):
        ctx = parse_context("params: - ; vars: x:0, y:0, z:0")
        t = parse_term("rch[2,8](x, rch[3,5](y,z))", ctx)
        assert t == RatioChoice(2, 8, VarApp("x"),
                                RatioChoice(3, 5, VarApp("y"), VarApp("z")))

    def test_binder_and_application(self):
        ctx = parse_context("params: - ; vars: x:1, y:1")
        t = parse_term("nu[1,1]p. pch[p](x(p), y(p))", ctx)
        assert t == Nu(1, 1, "p", ParamChoice("p", VarApp("x", ("p",)),
                                              VarApp("y", ("p",))))

    def test_zero_hyperparameter_rejected(self):
        ctx = parse_context("params: - ; vars: x:0")
        with pytest.raises(ParseError, match="positive hyperparameters"):
            parse_term("nu[0,3]p.x", ctx)
        with pytest.raises(ParseError, match="positive hyperparameters"):
            parse_term("nu[1,0]p.x", ctx)

    def test_zero_total_ratio_rejected(self):
        ctx = parse_context("params: - ; vars: x:0, y:0")
        with pytest.raises(ParseError, match="total weight"):
            parse_term("rch[0,0](x, y)", ctx)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_term("w", CTX)

    def test_arity_mismatch(self):
        ctx = parse_context("params: p ; vars: x:2")
        with pytest.raises(ParseError, match="expects 2 parameters"):
            parse_term("x(p)", ctx)

    def test_out_of_scope_parameter(self):
        ctx = parse_context("params: - ; vars: x:1")
        with pytest.raises(ParseError, match="not in scope"):
            parse_term("nu[1,1]p.x(q)", ctx)

    def test_shadowing_rejected(self):
        with pytest.raises(ParseError, match="rebinds"):
            parse_term("nu[1,1]p.x", CTX)

    def test_position_in_errors(self):
        try:
            parse_term("rch[1,1](x, rch[0,0](x, y))", CTX)
        except ParseError as e:
            assert e.line == 1 and e.col > 10
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("parse, text, message, line, col", [
        (parse_in_ctx, "rch[1,1](x,\n\ty", "expected ')', found 'end of input'", 2, 3),
        (parse_in_ctx, "rch[1,1](x,\r\n  y) z", "trailing input 'z'", 2, 6),
        # a bad character is reported before an earlier syntax error
        (parse_in_ctx, "rch[1,(x, y) $", "unexpected character '$'", 1, 14),
        (parse_in_ctx, "nu[1,1]q.\n  x(q, q)",
         "variable 'x' expects 0 parameters, got 2", 2, 3),
        (parse_context, "params p", "expected ':', found 'p'", 1, 8),
        (parse_context, "params: p ; vars: x:0, y:0 extra", "trailing input 'extra'", 1, 28),
        # names and numbers are ASCII only
        (parse_in_ctx, "rch[\u00b2,1](y,z)", "unexpected character '\u00b2'", 1, 5),
        (parse_context, "params: - ; vars: y:\u00b2", "unexpected character '\u00b2'", 1, 21),
        (parse_in_ctx, "rch[\u0661,1](y,z)", "unexpected character '\u0661'", 1, 5),
        (parse_in_ctx, "nu[1,1]\u00e9.y", "unexpected character '\u00e9'", 1, 8),
        # four frames deep, on line 3
        (parse_in_ctx, "rch[1,1](x,\n rch[2,1](y,\n  pch[p](rch[1,3](y, w), x))))",
         "unknown variable 'w'", 3, 22),
        (parse_in_ctx, "rch[1,1](rch[1,2](x, y) y)", "expected ',', found 'y'", 1, 25),
        (parse_in_ctx, "nu[1,1]q.\n", "expected a term, found 'end of input'", 2, 1),
        (parse_in_ctx, "rch[1,1](x, rch[1,1](y, rch[1,1](x, ))) ?",
         "unexpected character '?'", 1, 41),
        # a binder's name leaves the scope when its body closes
        (lambda text: parse_term(text, parse_context("params: - ; vars: y:0, z:0")),
         "rch[1,1](nu[1,1]p.y, pch[p](y, z))", "parameter 'p' not in scope", 1, 26),
    ])
    def test_error_message_and_position(self, parse, text, message, line, col):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)

    def test_deep_chain(self):
        depth = 100_000
        text = "rch[1,2](z, " * depth + "y" + ")" * depth
        t = parse_term(text, YZ)
        assert check_wellformed(YZ, t) == []
        assert format_term(t) == text

    def test_long_binder_spine(self):
        ctx = parse_context("params: - ; vars: x:1")
        text = "".join(f"nu[1,1]p{n}." for n in range(1, 2001)) + "x(p1)"
        t = parse_term(text, ctx)
        assert check_wellformed(ctx, t) == []
        assert format_term(t) == text

    def test_whitespace_insensitive(self):
        ctx = parse_context("params: - ; vars: x:1")
        a = parse_term("nu[1,1]p.x(p)", ctx)
        b = parse_term("  nu[ 1 , 1 ] p .\n x ( p )", ctx)
        assert a == b


class TestPrint:
    def test_round_trip_examples(self):
        ctx = parse_context("params: p, q ; vars: x:2, y:0, z:0")
        for src in [
            "y",
            "rch[2,8](y, rch[3,5](z,y))",
            "pch[p](y, z)",
            "nu[1,1]r.x(r,r)",
            "nu[2,3]r.nu[1,4]s.pch[q](x(r,s), x(s,q))",
        ]:
            t = parse_term(src, ctx)
            assert alpha_eq(parse_term(format_term(t), ctx), t)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(3, 35))
    def test_round_trip_random(self, seed, size):
        ctx = parse_context("params: p, q ; vars: x:2, y:1, z:0")
        t = gen_term(random.Random(seed), ctx, size)
        assert not check_wellformed(ctx, t)
        assert alpha_eq(parse_term(format_term(t), ctx), t)


class TestWellformed:
    def test_simple_choice(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        assert check_wellformed(ctx, parse_term("pch[p](x, y)", ctx)) == []

    def test_nested_binders(self):
        ctx = parse_context("params: - ; vars: x:2")
        t = parse_term("nu[1,1]p.nu[1,1]q.x(p,q)", ctx)
        assert check_wellformed(ctx, t) == []

    def test_zero_hyperparameter_violation(self):
        ctx = parse_context("params: - ; vars: x:0")
        t = Nu(1, 0, "p", VarApp("x"))
        violations = check_wellformed(ctx, t)
        assert len(violations) == 1
        assert "hyperparameters" in violations[0].message

    def test_violations_carry_paths(self):
        ctx = parse_context("params: - ; vars: x:0")
        t = RatioChoice(1, 1, VarApp("x"), Nu(0, 1, "p", VarApp("x")))
        violations = check_wellformed(ctx, t)
        assert [v.path for v in violations] == [("r",)]

    def test_shared_subterm_checked_in_each_scope(self):
        # one node object under its binder and outside it, then twice with a
        # violation of its own: each occurrence is reported at its path
        ctx = parse_context("params: - ; vars: y:0, z:0")
        draw = ParamChoice("q", VarApp("y"), VarApp("z"))
        t = RatioChoice(1, 1, Nu(1, 1, "q", draw), draw)
        assert [(v.path, v.message) for v in check_wellformed(ctx, t)] == \
            [(("r",), "parameter 'q' not in scope")]
        t = RatioChoice(1, 1, draw, RatioChoice(2, 1, draw, VarApp("y")))
        assert [v.path for v in check_wellformed(ctx, t)] == [("l",), ("r", "l")]

    def test_unknown_variable_and_scope(self):
        ctx = parse_context("params: - ; vars: x:0")
        t = ParamChoice("q", VarApp("w"), VarApp("x"))
        messages = " / ".join(v.message for v in check_wellformed(ctx, t))
        assert "unknown variable 'w'" in messages
        assert "'q' not in scope" in messages

    def test_shadowing_binders_keep_the_outer_scope(self):
        ctx = parse_context("params: p ; vars: x:1, y:0")
        t = RatioChoice(
            1, 1,
            Nu(1, 1, "q", ParamChoice("r", Nu(0, 2, "q", VarApp("w")), VarApp("x", ("q",)))),
            ParamChoice("p", Nu(1, 1, "p", VarApp("x", ("p", "p"))),
                        RatioChoice(0, 0, VarApp("x", ("p",)), VarApp("x", ("q",)))))
        assert [(v.path, v.message) for v in check_wellformed(ctx, t)] == [
            (("l", "b"), "parameter 'r' not in scope"),
            (("l", "b", "l"), "nu hyperparameters must be positive, got (0,2)"),
            (("l", "b", "l"), "binder 'q' rebinds a name in scope"),
            (("l", "b", "l", "b"), "unknown variable 'w'"),
            (("r", "l"), "binder 'p' rebinds a name in scope"),
            (("r", "l", "b"), "variable 'x' expects 1 parameters, got 2"),
            (("r", "r"), "ratio choice needs total weight i+j > 0"),
            (("r", "r", "r"), "parameter 'q' not in scope"),
        ]
        # a binder named like a variable still binds its name in its body
        t = Nu(1, 1, "y", VarApp("x", ("y",)))
        assert [(v.path, v.message) for v in check_wellformed(ctx, t)] == [
            ((), "binder 'y' rebinds a name in scope")]


class TestSubstitute:
    def test_capture_forces_rename(self):
        # replacement with free p under a binder also named p
        rep = parse_term("pch[p](x, y)", CTX)
        out = substitute(Nu(1, 1, "p", VarApp("w")), {"w": ((), rep)})
        assert isinstance(out, Nu)
        assert out.param != "p"
        assert out.body == rep
        assert free_params(out) == {"p"}

    def test_formal_matching_binder_stays(self):
        ctx = parse_context("params: - ; vars: z:1, x:0, y:0")
        t = parse_term("nu[1,1]p.z(p)", ctx)
        rep = ParamChoice("p", VarApp("x"), VarApp("y"))
        out = substitute(t, {"z": (("p",), rep)})
        assert alpha_eq(out, parse_term("nu[1,1]p.pch[p](x, y)", ctx))

    def test_diagonal_instantiation(self):
        # x(p,q) := (y ?q z) ?p z placed at the occurrence x(p,p)
        ctx = parse_context("params: - ; vars: x:2")
        t = parse_term("nu[1,1]p.x(p,p)", ctx)
        inner = Context(("p", "q"), (("y", 0), ("z", 0)))
        rep = parse_term("pch[p](pch[q](y,z), z)", inner)
        out = substitute(t, {"x": (("p", "q"), rep)})
        target_ctx = parse_context("params: - ; vars: y:0, z:0")
        expected = parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", target_ctx)
        assert alpha_eq(out, expected)

    def test_arity_mismatch_raises(self):
        with pytest.raises(SubstitutionError):
            substitute(VarApp("x", ()), {"x": (("p",), VarApp("y"))})

    def test_wellformedness_preserved(self):
        rng = random.Random(5)
        outer = parse_context("params: p ; vars: w:1, x:0, y:0")
        target = parse_context("params: p ; vars: x:0, y:0")
        for _ in range(40):
            t = gen_term(rng, outer, 14)
            rep_ctx = Context(("s", "p"), target.vars)
            rep = gen_term(rng, rep_ctx, 8)
            out = substitute(t, {"w": (("s",), rep)})
            assert check_wellformed(target, out) == []

    def test_free_params_bound(self):
        rng = random.Random(7)
        outer = parse_context("params: p, q ; vars: w:0, x:0")
        for _ in range(40):
            t = gen_term(rng, outer, 12)
            rep = gen_term(rng, outer, 6)
            out = substitute(t, {"w": ((), rep)})
            assert free_params(out) <= free_params(t) | free_params(rep)


class TestRewriteReference:
    """Renaming and substitution print exactly as the recursive reference
    in ``refterms``, fresh names included, on terms whose binder names
    clash with the mapping's values and with the injected names."""

    OUTER = parse_context("params: p, q ; vars: w:1, x:2, y:0")
    POOL = ("p", "q", "q1", "q2", "q3", "q11", "p1", "s")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(3, 40))
    def test_rename_matches_reference(self, seed, size):
        rng = random.Random(seed)
        t = gen_term(rng, self.OUTER, size)
        names = sorted(all_params(t) | set(self.POOL))
        mapping = {k: rng.choice(names) for k in rng.sample(names, rng.randint(1, 3))}
        assert (format_term(rename_params(t, mapping))
                == format_term(refterms.rename_params(t, mapping)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(3, 40))
    def test_substitute_matches_reference(self, seed, size):
        rng = random.Random(seed)
        t = gen_term(rng, self.OUTER, size)
        bindings = {}
        for var, arity in (("w", 1), ("x", 2)):
            # formals and free names of the replacement drawn from the
            # binder names of t, so both capture and shadowing occur
            names = rng.sample(self.POOL, arity + rng.randint(0, 2))
            rep_ctx = Context(tuple(names), (("x", 2), ("y", 0)))
            bindings[var] = (tuple(names[:arity]), gen_term(rng, rep_ctx, rng.randint(1, 12)))
        assert (format_term(substitute(t, bindings))
                == format_term(refterms.substitute(t, bindings)))

    def test_nested_freshened_binders_stay_apart(self):
        # the replacement brings in a, a1, ..., a10: binder a1 becomes a11,
        # so the inner binder a, whose body now uses a11, becomes a12
        ctx = parse_context("params: - ; vars: x:2, w:0, y:0")
        t = parse_term("nu[1,1]a1.nu[1,1]a.rch[1,1](x(a1,a), w)", ctx)
        names = ["a"] + [f"a{n}" for n in range(1, 11)]
        rep = VarApp("y")
        for name in names:
            rep = ParamChoice(name, rep, VarApp("y"))
        out = substitute(t, {"w": ((), rep)})
        assert format_term(out) == format_term(refterms.substitute(t, {"w": ((), rep)}))
        assert format_term(out).startswith("nu[1,1]a11.nu[1,1]a12.rch[1,1](x(a11,a12), ")

    def test_deep_chain(self):
        # binder b over pch[b](y, pch[b](y, ... x(b))) 100,000 choices deep
        depth = 100_000

        def chain(name, leaf):
            for _ in range(depth):
                leaf = ParamChoice(name, VarApp("y"), leaf)
            return leaf

        t = Nu(1, 1, "b", chain("b", VarApp("x", ("b",))))
        assert all_params(t) == {"b"}
        free = chain("p", VarApp("x", ("p",)))
        assert format_term(rename_params(free, {"p": "r"})) == format_term(
            chain("r", VarApp("x", ("r",))))
        # p renamed onto the binder: b is freshened to b1 all the way down
        u = Nu(1, 1, "b", ParamChoice("p", t.body, VarApp("y")))
        assert format_term(rename_params(u, {"p": "b"})) == format_term(
            Nu(1, 1, "b1", ParamChoice("b", chain("b1", VarApp("x", ("b1",))), VarApp("y"))))
        # the replacement brings in a free b: the binder becomes b1
        rep = ParamChoice("b", VarApp("x", ("a",)), VarApp("y"))
        leaf = ParamChoice("b", VarApp("x", ("b1",)), VarApp("y"))
        assert format_term(substitute(t, {"x": (("a",), rep)})) == format_term(
            Nu(1, 1, "b1", chain("b1", leaf)))


class TestRepr:
    @pytest.mark.parametrize("term, text", [
        (VarApp("x", ("p", "q")), "VarApp('x', ('p', 'q'))"),
        (VarApp("y"), "VarApp('y', ())"),
        (RatioChoice(1, 2, VarApp("y"), VarApp("z")),
         "RatioChoice(1, 2, VarApp('y', ()), VarApp('z', ()))"),
        (ParamChoice("p", VarApp("y"), VarApp("z")),
         "ParamChoice('p', VarApp('y', ()), VarApp('z', ()))"),
        (Nu(1, 3, "p", VarApp("x", ("p",))), "Nu(1, 3, 'p', VarApp('x', ('p',)))"),
    ])
    def test_repr(self, term, text):
        assert repr(term) == text

    def test_repr_of_deep_chain(self):
        # deeper than the recursion limit: pytest's failure output and any
        # ``!r`` message print such terms
        depth = 3000
        t = parse_term("rch[1,2](z, " * depth + "y" + ")" * depth, YZ)
        want = "RatioChoice(1, 2, VarApp('z', ()), " * depth + "VarApp('y', ())" + ")" * depth
        assert repr(t) == want


class TestEquality:
    def test_same_class_and_fields(self):
        y = VarApp("y")
        assert RatioChoice(1, 2, y, VarApp("z")) == RatioChoice(1, 2, VarApp("y"), VarApp("z"))
        assert RatioChoice(1, 2, y, y) != RatioChoice(2, 1, y, y)
        assert ParamChoice("p", y, y) != RatioChoice(1, 1, y, y)
        assert Nu(1, 1, "p", y) != Nu(1, 1, "q", y)
        assert VarApp("x", ("p",)) != VarApp("x", ("q",)) and y != "y"
        assert len({Nu(1, 1, "p", y), Nu(1, 1, "p", VarApp("y")), VarApp("y"), y}) == 2

    def test_foreign_children(self):
        # check_wellformed reports such terms, so they compare and hash
        # as values instead of raising
        z = VarApp("z")
        assert RatioChoice(1, 1, "y", z) != RatioChoice(1, 1, "x", z)
        assert RatioChoice(1, 1, "y", z) == RatioChoice(1, 1, "y", VarApp("z"))
        assert hash(RatioChoice(1, 1, "y", z)) == hash(RatioChoice(1, 1, "y", VarApp("z")))
        assert Nu(1, 1, "p", 3) != Nu(1, 1, "p", z)
        # a bare Term, as at the parent, by identity
        bare = Term()
        assert bare == bare and bare != Term() and hash(bare) == hash(bare)
        assert Nu(1, 1, "p", bare) == Nu(1, 1, "p", bare) != Nu(1, 1, "p", Term())

    def test_deep_chains(self):
        # deeper than the recursion limit: a parse against a chain built
        # node by node, and against one that differs only at the bottom
        depth = 100_000
        t = parse_term("rch[1,2](z, " * depth + "y" + ")" * depth, YZ)
        same, other = VarApp("y"), VarApp("z")
        for _ in range(depth):
            same = RatioChoice(1, 2, VarApp("z"), same)
            other = RatioChoice(1, 2, VarApp("z"), other)
        assert t == same and hash(t) == hash(same)
        assert t != other


class TestAlpha:
    def test_pure_renaming(self):
        ctx = parse_context("params: - ; vars: x:1")
        assert alpha_eq(parse_term("nu[1,1]p.x(p)", ctx),
                        parse_term("nu[1,1]q.x(q)", ctx))

    def test_hyperparameters_matter(self):
        ctx = parse_context("params: - ; vars: x:1")
        assert not alpha_eq(parse_term("nu[1,1]p.x(p)", ctx),
                            parse_term("nu[2,1]p.x(p)", ctx))

    def test_no_branch_swapping(self):
        ctx = parse_context("params: p ; vars: x:0, y:0")
        assert not alpha_eq(parse_term("pch[p](x, y)", ctx),
                            parse_term("pch[p](y, x)", ctx))

    def test_free_params_respected(self):
        ctx = parse_context("params: p, q ; vars: x:0, y:0")
        assert not alpha_eq(parse_term("pch[p](x, y)", ctx),
                            parse_term("pch[q](x, y)", ctx))

    def test_shadowing_binder_counts_by_depth(self):
        # the inner ``a`` shadows the outer one: x(a, b) names the second
        # and third binders, so a depth read off the number of names in
        # scope would give both arguments the same depth
        x = lambda *args: VarApp("x", args)
        t = Nu(1, 1, "a", Nu(1, 1, "a", Nu(1, 1, "b", x("a", "b"))))
        assert alpha_eq(t, Nu(1, 1, "c", Nu(1, 1, "d", Nu(1, 1, "e", x("d", "e")))))
        assert not alpha_eq(t, Nu(1, 1, "c", Nu(1, 1, "d", Nu(1, 1, "e", x("d", "d")))))
        assert not alpha_eq(t, Nu(1, 1, "c", Nu(1, 1, "d", Nu(1, 1, "e", x("c", "e")))))
        inner = Nu(1, 1, "a", Nu(1, 1, "a", ParamChoice("a", x(), x())))
        assert alpha_eq(inner, Nu(1, 1, "b", Nu(1, 1, "c", ParamChoice("c", x(), x()))))
        assert not alpha_eq(inner, Nu(1, 1, "b", Nu(1, 1, "c", ParamChoice("b", x(), x()))))

    def test_deep_chain(self):
        deep = "rch[1,2](y, " * 5000 + "z" + ")" * 5000
        assert alpha_eq(parse_term(deep, YZ), parse_term(deep, YZ))
        assert not alpha_eq(parse_term(deep, YZ), parse_term(deep.replace("z)", "y)"), YZ))

    def test_deep_renamed_binder_chains(self):
        # 100,000 binders, each over a bias choice on its own name: a copy
        # of every binder's name map would make this quadratic in depth
        depth = 100_000

        def chain(prefix, bottom):
            names = [f"{prefix}{d}" for d in range(depth)]
            t = VarApp("x", (names[bottom], names[0]))
            for name in reversed(names):
                t = Nu(1, 1, name, ParamChoice(name, VarApp("y"), t))
            return t

        a, b, differs = chain("a", -1), chain("b", -1), chain("b", -2)
        started = time.time()
        assert alpha_eq(a, b)
        assert not alpha_eq(a, differs)
        elapsed = time.time() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_equivalence_relation(self, seed):
        rng = random.Random(seed)
        ctx = parse_context("params: p ; vars: x:2, y:0")
        a = gen_term(rng, ctx, 14)
        b = gen_term(rng, ctx, 14)
        c = gen_term(rng, ctx, 14)
        assert alpha_eq(a, a)
        assert alpha_eq(a, b) == alpha_eq(b, a)
        if alpha_eq(a, b) and alpha_eq(b, c):
            assert alpha_eq(a, c)
        if alpha_eq(a, b):
            assert free_params(a) == free_params(b)


class TestPaths:
    def test_replace_at_rebuilds_the_spine(self):
        t = parse_term("nu[1,1]q.pch[p](x, rch[1,2](x, y))", CTX)
        out = replace_at(t, ("b", "r", "l"), VarApp("y"))
        assert out == parse_term("nu[1,1]q.pch[p](x, rch[1,2](y, y))", CTX)
        assert subterm_at(out, ("b", "l")) == VarApp("x")
        assert replace_at(t, (), VarApp("x")) == VarApp("x")

    @pytest.mark.parametrize("text, path, kind", [
        ("pch[p](x, y)", ("b",), "ParamChoice"),
        ("nu[1,1]q.x", ("l",), "Nu"),
        ("rch[1,1](x, y)", ("r", "r"), "VarApp"),
        ("rch[1,1](x, y)", ("s",), "RatioChoice"),
    ])
    def test_selector_must_fit_the_node(self, text, path, kind):
        with pytest.raises(TermError, match=f"selector '{path[-1]}' does not apply to {kind}"):
            replace_at(parse_term(text, CTX), path, VarApp("x"))


class TestFreeParams:
    def test_choice_subscript_is_free(self):
        assert free_params(parse_term("pch[p](x, y)", CTX)) == {"p"}

    def test_bound_is_not_free(self):
        ctx = parse_context("params: - ; vars: x:0, y:0")
        t = parse_term("nu[1,1]p.pch[p](x, y)", ctx)
        assert free_params(t) == set()

    def test_mixed(self):
        ctx = parse_context("params: p ; vars: x:1, y:1")
        t = parse_term("nu[1,1]q.pch[p](x(q), y(q))", ctx)
        assert free_params(t) == {"p"}


def rename_binders(t, name_of, depth=0, env=None):
    """``t`` with its binder at each depth renamed to ``name_of(depth)``, and
    that binder's uses with it; a free name equal to a new one is captured."""
    env = env or {}
    if isinstance(t, VarApp):
        return VarApp(t.var, tuple(env.get(a, a) for a in t.args))
    if isinstance(t, Nu):
        new = name_of(depth)
        return Nu(t.i, t.j, new, rename_binders(t.body, name_of, depth + 1, {**env, t.param: new}))
    left, right = (rename_binders(b, name_of, depth, env) for b in (t.left, t.right))
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, left, right)
    return ParamChoice(env.get(t.param, t.param), left, right)


def bind(names, t):
    """``t`` under one ``nu[1,1]`` binder per name, the first outermost."""
    for name in reversed(names):
        t = Nu(1, 1, name, t)
    return t


def shared_term(seed, names):
    """A term whose nodes take their branches from earlier nodes, so
    subterms are shared, under binders and outside them.  ``seed`` fixes
    the shape and ``names`` (a random source) the parameter names, from
    ``p`` and ``q``: binders shadow and capture.  A node that would make the
    tree larger than 3,000 nodes is a leaf instead."""
    rng = random.Random(seed)
    name = lambda: names.choice("pq")
    pool, size = [VarApp("y"), VarApp("x", (name(),))], {}
    for _ in range(rng.randint(5, 40)):
        kind, a, b = rng.choice("rpnn"), rng.choice(pool), rng.choice(pool)
        grown = 1 + size.get(id(a), 1) + (kind != "n") * size.get(id(b), 1)
        if grown > 3000:
            pool.append(VarApp("x", (name(),)))
            continue
        if kind == "r":
            pool.append(RatioChoice(rng.randint(1, 2), 1, a, b))
        elif kind == "p":
            pool.append(ParamChoice(name(), a, b))
        else:
            pool.append(Nu(1, 1, name(), a))
        size[id(pool[-1])] = grown
    return pool[-1]


class TestNameWalksMatchReferences:
    """``all_params``, ``free_params`` and ``alpha_eq`` agree with the
    recursive tree walks of ``refterms``: on seeded terms and their open
    subterms, on copies with binders renamed, captured or shadowing, and on
    reified normal forms, which share subterms."""

    POOL = ("p", "q", "q1", "s")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_terms(self, seed):
        rng = random.Random(seed)
        ctx = rng.choice(CONTEXTS)
        t = gen_term(rng, ctx, rng.randint(3, 40))
        renamed = rename_binders(t, lambda depth: f"d{depth}")
        shadowed = rename_binders(t, lambda depth: rng.choice(self.POOL))
        # the free parameters bound and renamed onto names of t's binders,
        # which rename_params freshens
        targets = rng.sample(sorted(all_params(t) | set(self.POOL)), len(ctx.params))
        moved = bind(targets, rename_params(t, dict(zip(ctx.params, targets))))
        other = gen_term(rng, ctx, rng.randint(3, 40))
        subterms = [subterm_at(t, path) for path in all_paths(t)]
        for u in [renamed, shadowed, moved, other] + subterms:
            assert all_params(u) == refterms.all_params(u)
            assert free_params(u) == refterms.free_params(u)
        assert alpha_eq(t, renamed) and alpha_eq(bind(ctx.params, t), moved)
        for a, b in [(t, shadowed), (shadowed, rename_binders(shadowed, lambda d: "s")),
                     (t, other), (bind(ctx.params, t), moved)] + list(zip(subterms, [
                         subterm_at(renamed, path) for path in all_paths(t)])):
            assert alpha_eq(a, b) == refterms.alpha_eq(a, b) == alpha_eq(b, a)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_shared_across_binder_scopes(self, seed):
        # a node shared inside and outside a binder of one of its names
        # is free there in one place and bound in the other
        rng = random.Random(seed)
        t = shared_term(seed, rng)
        u = shared_term(seed, rng)
        assert all_params(t) == refterms.all_params(t)
        assert free_params(t) == refterms.free_params(t)
        assert alpha_eq(t, u) == refterms.alpha_eq(t, u)

    def test_shared_node_free_outside_its_binder(self):
        shared = ParamChoice("p", VarApp("y"), VarApp("z"))
        t = RatioChoice(1, 1, Nu(1, 1, "p", shared), shared)
        assert free_params(t) == {"p"}
        other = ParamChoice("q", VarApp("y"), VarApp("z"))
        u = RatioChoice(1, 1, Nu(1, 1, "q", other), other)
        assert alpha_eq(t, t) and not alpha_eq(t, u)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_reified_spine(self, ell):
        ctx, t = spine(ell)
        nf = normalize(ctx, t)
        shared, again = reify(nf), reify(nf)
        unshared = parse_term(format_term(shared), ctx)
        other = reify(normalize(ctx, spine(ell, per_param=3)[1]))
        for u in (shared, unshared, other):
            assert all_params(u) == refterms.all_params(u)
            assert free_params(u) == refterms.free_params(u)
        assert alpha_eq(shared, again) and alpha_eq(shared, unshared)
        assert refterms.alpha_eq(shared, unshared)
        assert not alpha_eq(shared, other) and not refterms.alpha_eq(shared, other)

    @pytest.mark.parametrize("walk", ["all_params", "free_params", "alpha_eq"])
    def test_reified_five_parameter_spine_in_budget(self, walk):
        # as trees these forms have millions of nodes; each walk reads a
        # shared node once per binder scope.  The form is walked as it is
        # and with its parameters bound.
        ctx, t = spine(5)
        nf = normalize(ctx, t)
        params = set(ctx.params)
        for names in ((), ctx.params):
            shared, again = bind(names, reify(nf)), bind(names, reify(nf))
            started = time.time()
            out = alpha_eq(shared, again) if walk == "alpha_eq" else getattr(terms, walk)(shared)
            elapsed = time.time() - started
            assert elapsed < 1.0, f"{walk} took {elapsed:.2f}s"
            want = {"all_params": params, "free_params": params - set(names)}
            assert out == want.get(walk, True)


class TestNodeClasses:
    """What the slotted, frozen node classes keep of plain dataclasses."""

    NODES = (VarApp("x", ("p",)), RatioChoice(1, 2, VarApp("y"), VarApp("z")),
             ParamChoice("p", VarApp("y"), VarApp("z")), Nu(1, 3, "p", VarApp("x", ("p",))))

    def test_fields(self):
        assert [[f.name for f in fields(t)] for t in self.NODES] == [
            ["var", "args"], ["i", "j", "left", "right"], ["param", "left", "right"],
            ["i", "j", "param", "body"]]
        assert VarApp("y").args == () and VarApp(var="y", args=("p",)).args == ("p",)

    def test_frozen(self):
        for t in self.NODES:
            for f in fields(t):
                with pytest.raises(FrozenInstanceError):
                    setattr(t, f.name, None)
            # a name that is not a field has no slot; the dataclass's frozen
            # __setattr__ refuses it with a TypeError
            with pytest.raises(TypeError):
                t.other = None
            assert not hasattr(t, "__dict__")

    def test_replace(self):
        t = Nu(1, 3, "p", VarApp("x", ("p",)))
        u = replace(t, j=2)
        assert repr(u) == "Nu(1, 2, 'p', VarApp('x', ('p',)))" and repr(t).startswith("Nu(1, 3,")
        assert replace(t) == t and replace(t) is not t
        assert replace(self.NODES[0], args=()) == VarApp("x")

    def test_deep_chain(self):
        # deeper than the recursion limit: parse, print, compare and hash
        depth = 100_000
        text = "nu[1,1]q." + "rch[1,2](z, pch[q](y, " * depth + "y" + "))" * depth
        t, u = parse_term(text, YZ), parse_term(text, YZ)
        assert format_term(t) == text
        assert t == u and hash(t) == hash(u)
        assert replace(t, j=2) != t


# Every 10th seed-1 pair of both decide workloads, and its context.
@lru_cache(maxsize=None)
def _workload_texts():
    out = []
    for name in ("decide-ground", "decide-params"):
        for op in workload_ops(name, 1)[::10]:
            out += [(parse_context(op.ctx), text) for text in op.texts]
    return out


class TestParsedTermsTrusted:
    """``normalize``, ``equal`` and ``estimate`` skip ``check_wellformed``
    only on a root that ``parse_term`` returned for the same context
    object, so the parser must refuse every ill-formed term."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_accepted_mutants_are_wellformed(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            ctx = rng.choice(CONTEXTS)
            text = format_term(gen_term(rng, ctx, rng.randint(3, 40)))
        else:
            ctx, text = rng.choice(_workload_texts())
        for _ in range(20):
            mutant = mutate(rng, text, rng.randint(1, 3))
            try:
                t = parse_term(mutant, ctx)
            except ParseError:
                continue
            assert check_wellformed(ctx, t) == [], mutant

    @staticmethod
    def ill_formed():
        root = parse_term("nu[1,1]p.pch[p](y, z)", YZ)
        return [
            RatioChoice(0, 0, VarApp("y"), VarApp("z")),  # built by constructors
            parse_term("rch[1,1](y, w)", parse_context("params: - ; vars: y:0, z:0, w:0")),
            replace(root, i=0),
            root.body,  # its binder is outside
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_still_refused(self, case):
        t = self.ill_formed()[case]
        good = parse_term("y", YZ)
        for run in (lambda: normalize(YZ, t), lambda: equal(YZ, t, good),
                    lambda: equal(YZ, good, t), lambda: estimate(YZ, t, 100, 1, "polya")):
            with pytest.raises(TermError, match="^term ill-formed: "):
                run()

    def test_only_a_parsed_root_in_its_own_context_is_trusted(self, monkeypatch):
        walked = []
        check = terms.check_wellformed
        monkeypatch.setattr(terms, "check_wellformed",
                            lambda ctx, t: walked.append(t) or check(ctx, t))
        t = parse_term("nu[1,1]p.pch[p](y, rch[1,1](y, z))", YZ)
        equal(YZ, t, t)
        assert walked == []
        # an equal context that is another object, and a copy of the root
        equal(parse_context(str(YZ)), t, t)
        assert walked == [t, t]
        copy = replace(t)
        normalize(YZ, copy)
        assert walked[-1] is copy
