"""Each reference check fails when fed a wrong answer.

    python3 -m pytest perfbench/test_refs.py
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import gen
import refs
import workloads

F = Fraction
ONE = ("n", 1, 1, "p", ("p", "p", ("p", "p", gen.var("y"), gen.var("z")), gen.var("z")))
TWO = ("n", 1, 1, "p", ("n", 1, 1, "q", ("p", "p", ("p", "q", gen.var("y"), gen.var("z")),
                                         gen.var("z"))))


class Chain(tuple):
    """Stands in for an arity-0 chain."""

    var = property(lambda self: self[0])
    dimension = 0


class Form:
    """Stands in for a normal form: leaf fractions keyed by chain."""

    def __init__(self, masses):
        self.masses = masses

    def leaf_fractions(self, index):
        return {Chain((v,)): m for v, m in self.masses.items()}


def verdict(equal, left, right):
    return SimpleNamespace(equal=equal, left=Form(left), right=Form(right))


def test_urn_gives_the_appendix_masses():
    assert refs.urn_distribution(ONE) == {"y": F(1, 3), "z": F(2, 3)}
    assert refs.urn_distribution(TWO) == {"y": F(1, 4), "z": F(3, 4)}
    assert gen.emit(ONE) == workloads.APPENDIX_ONE.replace(",z", ", z")


def test_rewrites_keep_the_urn_distribution_and_unequal_moves_it():
    rng = random.Random(5)
    for _ in range(200):
        names = gen.Names()
        t = gen.random_term(rng, names, (), workloads.ZERO_ARITY, rng.randint(5, 60), wmax=3)
        u = gen.rewrite(rng, names, t, 12)
        assert refs.urn_distribution(u) == refs.urn_distribution(t)
        assert refs.urn_distribution(gen.unequal(t))["w"] == F(1, 2)


def test_leaf_fraction_check_rejects_wrong_masses():
    op = workloads.DecideOp(workloads.YZ, ONE, ONE, True, urn=True)
    right = {"y": F(1, 3), "z": F(2, 3)}
    assert op.check(verdict(True, right, right), 0) is None
    assert "leaf fractions" in op.check(verdict(True, right, {"y": F(1, 4), "z": F(3, 4)}), 0)


def test_verdict_and_symmetry_checks_reject_wrong_verdicts():
    op = workloads.DecideOp(workloads.YZ, ONE, TWO, False)
    assert op.check(verdict(False, {}, {}), 0) is None
    assert "verdict" in workloads.DecideOp(workloads.YZ, ONE, TWO, False).check(
        verdict(True, {}, {}), 0)
    assert "disagree" in op.check(verdict(True, {}, {}), 1)


def test_closed_form_check_rejects_a_wrong_chain_mass():
    assert refs.ratio_chain_distribution(1) == {"y": F(2, 3), "z": F(1, 3)}
    chain, closed = gen.ratio_chain_text(3)
    assert closed == "rch[8,19](y, z)" and chain.count("rch[1,2](z, ") == 3
    op = workloads.DeepChainOp(3)
    good = {"y": F(8, 27), "z": F(19, 27)}
    assert op.check(verdict(True, good, good), 0) is None
    assert op.check(verdict(True, good, {"y": F(1, 3), "z": F(2, 3)}), 0)


def test_beta_moment_check_rejects_a_wrong_value():
    assert refs.beta_power_moment(1, 1, 2) + F(1, 2) == F(5, 6)
    assert refs.beta_power_moment(2, 3, 3) == F(2 * 3 * 4, 5 * 6 * 7)
    want = workloads.expect(0, str(refs.beta_power_moment(1, 1, 2) + F(1, 2)))
    assert want(0, "5/6\n") is None
    assert want(0, "2/3\n")


def test_binomial_check_rejects_counts_beyond_five_sigma():
    trials = 90000
    want = workloads.expect_counts(trials, F(1, 3))
    sd = (trials * F(1, 3) * F(2, 3)) ** 0.5
    assert want(0, "leaf y 30000 1/3\nleaf z 60000 2/3\n") is None
    assert want(0, f"leaf y {30000 + int(6 * sd)} 1/3\n")
    assert want(1, "leaf y 30000 1/3\n")


def test_oracle_check_rejects_a_wrong_sweep():
    op = workloads.OracleOp(workloads.YZ, ONE, True, 0)
    assert op.check((True, True), 0) is None
    assert op.check((True, False), 0)
    assert workloads.OracleOp(workloads.YZ, ONE, False, 0).check((True, True), 0)
