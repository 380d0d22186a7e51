"""The four workloads: seeded inputs, one timed operation each, checks.

A workload's ``make(rng)`` builds its operations as term text before any
timing.  ``op.run(P, rnd)`` is the timed operation, calling the program
through its module attributes ``P`` (so the traced run sees the calls);
``op.check(result, rnd)`` compares the result with the construction or
with :mod:`refs` and returns a failure message or None.  Every round runs
the same operations, so the share of failures is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from fractions import Fraction

import gen
import refs

APPENDIX_ONE = "nu[1,1]p.pch[p](pch[p](y,z), z)"
APPENDIX_TWO = "nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)"
YZ = "params: - ; vars: y:0, z:0"
ZERO_ARITY = [("x", 0), ("y", 0), ("z", 0)]
MIXED_ARITY = [("x", 2), ("y", 1), ("z", 0)]
DEEP_CHAINS = (1000, 3000)
# Operations per round.  Op cost varies about e^0.8-fold between random
# terms of one size, so a run's median needs a few hundred distinct ones.
RANDOM_GROUND = 600
RANDOM_PARAMS = 360
# oracle: seed-drawn terms of the cheapest class (one choice per free
# parameter on a path, sweep degree 3), in quotas by their number of leaves
# of the arity-2 variable x (the last: that many or more), which sets their
# cost e^0.23-fold per leaf; the quotas follow the class's own mix.  Then a
# fixed stratum of heavier classes, as ((choices per path, sweep degree),
# terms per round).
X_LEAF_QUOTAS = (36, 71, 61, 37, 21, 14)
ORACLE_STRATA = (((1, 4), 8), ((1, 6), 6), ((2, 3), 8), ((2, 5), 4), ((2, 6), 3))


def context_text(params, vars_) -> str:
    names = ", ".join(params) if params else "-"
    return f"params: {names} ; vars: {', '.join(f'{v}:{m}' for v, m in vars_)}, w:0"


def make_pair(rng, names, t, equal):
    """``(left, right)`` tuple terms: ``t`` or ``rch[1,1](t, w)`` against a
    rewrite of ``t`` by 4 to 12 axiom steps."""
    u = gen.rewrite(rng, names, t, rng.randint(4, 12))
    return (t if equal else gen.unequal(t)), u


# ---------------------------------------------------------------------------
# decide-ground and decide-params: parse both texts, then decide.equal.


class DecideOp:
    known_fault = ()

    def __init__(self, ctx, left, right, equal, urn=False):
        self.ctx = ctx
        self.texts = (gen.emit(left), gen.emit(right))
        self.equal = equal
        self.urn = (refs.urn_distribution(left), refs.urn_distribution(right)) if urn else None
        self.seen = set()

    def swapped(self, rnd):
        return rnd % 2 == 1

    def run(self, P, rnd):
        a, b = self.texts[::-1] if self.swapped(rnd) else self.texts
        ctx = P.contexts[self.ctx]
        return P.decide.equal(ctx, P.terms.parse_term(a, ctx), P.terms.parse_term(b, ctx))

    def check(self, verdict, rnd):
        self.seen.add(verdict.equal)
        if len(self.seen) > 1:
            return "equal(t, u) and equal(u, t) disagree"
        bad = refs.mismatch("verdict", verdict.equal, self.equal)
        if bad or self.urn is None:
            return bad
        want = self.urn[::-1] if self.swapped(rnd) else self.urn
        for nf, expected in zip((verdict.left, verdict.right), want):
            got = {c.var: f for c, f in nf.leaf_fractions(()).items() if c.dimension == 0}
            bad = refs.mismatch("leaf fractions", got, expected)
            if bad:
                return bad
        return None


class DeepChainOp(DecideOp):
    """A deep ratio chain against its closed form.  Parsing it overflows
    the interpreter stack today; that failure is counted, not hidden."""

    known_fault = (RecursionError,)

    def __init__(self, depth):
        chain, closed = gen.ratio_chain_text(depth)
        self.ctx = YZ
        self.texts = (chain, closed)
        self.equal = True
        self.urn = (refs.ratio_chain_distribution(depth),) * 2
        self.seen = set()


def make_decide_ground(rng):
    ops = []
    zero, mixed = context_text((), ZERO_ARITY), context_text((), MIXED_ARITY)
    for n, depth in enumerate(range(6, 13)):
        names = gen.Names()
        t = gen.balanced(rng, names, depth)
        ops.append(DecideOp(zero, *make_pair(rng, names, t, n % 2 == 0), n % 2 == 0, urn=True))
    for draws in range(2, 26):
        names = gen.Names()
        t = gen.nested_draws(rng, names, draws)
        ops.append(DecideOp(zero, *make_pair(rng, names, t, draws % 2 == 0), draws % 2 == 0,
                            urn=True))
    for n in range(RANDOM_GROUND):
        names = gen.Names()
        arity0 = n % 2 == 0
        equal = n % 4 < 2
        t = gen.random_term(rng, names, (), ZERO_ARITY if arity0 else MIXED_ARITY,
                            25 + 175 * n // (RANDOM_GROUND - 1), wmax=3)
        ops.append(DecideOp(zero if arity0 else mixed, *make_pair(rng, names, t, equal), equal,
                            urn=arity0))
    ops += [DeepChainOp(depth) for depth in DEEP_CHAINS]
    return ops


def make_decide_params(rng):
    ops = []
    params = ("p1", "p2", "p3")
    ctx = context_text(params, MIXED_ARITY)
    for n in range(RANDOM_PARAMS):
        equal = n % 2 == 0
        while True:
            names = gen.Names()
            t = gen.random_term(rng, names, params, MIXED_ARITY,
                                25 + 175 * n // (RANDOM_PARAMS - 1))
            if gen.choices_per_path(t, params) <= 1:
                break
        ops.append(DecideOp(ctx, *make_pair(rng, names, t, equal), equal))
    for ell, per_param in ((4, 5), (5, 4)):
        spine_params = tuple(f"p{a + 1}" for a in range(ell))
        for equal in (True, False):
            t = gen.spine(rng, spine_params, per_param, MIXED_ARITY)
            pair = make_pair(rng, gen.Names(), t, equal)
            ops.append(DecideOp(context_text(spine_params, MIXED_ARITY), *pair, equal))
    return ops


# ---------------------------------------------------------------------------
# oracle: normalize, reify, and both evaluator sweeps against the form.


class OracleOp:
    known_fault = ()

    def __init__(self, ctx, t, equal, sample_seed):
        self.ctx = ctx
        self.text = gen.emit(t)
        self.subject = self.text if equal else gen.emit(gen.unequal(t))
        self.equal = equal
        self.sample_seed = sample_seed

    def run(self, P, rnd):
        ctx = P.contexts[self.ctx]
        t = P.terms.parse_term(self.text, ctx)
        reified = P.normalizer.reify(P.normalizer.normalize(ctx, t))
        subject = t if self.equal else P.terms.parse_term(self.subject, ctx)
        sampled = P.semantics.functional_eq_sampled(ctx, subject, reified,
                                                    random.Random(self.sample_seed))
        return sampled, P.semantics.functional_eq(ctx, subject, reified)

    def check(self, result, rnd):
        return refs.mismatch("sampled and full sweep", result, (self.equal, self.equal))


def oracle_term(rng, params, choices, degree):
    """A random term of at most 25 nodes, drawn as criterion 5 draws them,
    from the class with this many choices per path and this sweep degree."""
    while True:
        t = gen.random_term(rng, gen.Names(), params, MIXED_ARITY, 25, exact=False)
        if gen.choices_per_path(t, params) == choices and gen.oracle_degree(t) == degree:
            return t


def make_oracle(rng):
    params = ("p1", "p2", "p3")
    ctx = context_text(params, MIXED_ARITY)
    # The heavier terms cost 50 ms to 1 s each and vary e^0.7-fold within a
    # class, so a few of them drawn per seed would move a run by more than
    # the rest of it; they are drawn once, the same in every run.
    fixed = random.Random("oracle:strata")
    buckets = [[] for _ in X_LEAF_QUOTAS]
    while any(len(b) < q for b, q in zip(buckets, X_LEAF_QUOTAS)):
        t = oracle_term(rng, params, 1, 3)
        x_leaves = min(gen.emit(t).count("x("), len(buckets) - 1)
        if len(buckets[x_leaves]) < X_LEAF_QUOTAS[x_leaves]:
            buckets[x_leaves].append(t)
    drawn = [(t, rng) for bucket in buckets for t in bucket]
    drawn += [(oracle_term(fixed, params, *cls), fixed)
              for cls, count in ORACLE_STRATA for _ in range(count)]
    return [OracleOp(ctx, t, n % 5 != 4, src.randrange(1 << 30))
            for n, (t, src) in enumerate(drawn)]


# ---------------------------------------------------------------------------
# cli: one child process per operation.


# Trial counts at which sampling took about half of a simulate call
# (2-core x86 VM, Python 3.11).
SIM_TRIALS = {"polya": 500000, "betabern": 250000}


class CliOp:
    known_fault = ()

    def __init__(self, argv, want):
        self.argv = list(argv)
        self.want = want  # (code, stdout) -> failure message or None

    def run(self, P, rnd):
        if P.cli is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = P.cli.main(self.argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "betabern.cli", *self.argv],
                              env=P.child_env, capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout

    def check(self, result, rnd):
        return self.want(*result)


def expect(code, *lines):
    def want(got_code, out):
        got = out.splitlines()
        missing = [line for line in lines if line not in got]
        if got_code != code or missing:
            return f"exit {got_code} (want {code}), missing {missing}: {out[-300:]!r}"
        return None
    return want


def expect_verdict(equal):
    def want(code, out):
        word = "equal (" if equal else "not equal ("
        if code != (0 if equal else 1) or not out.startswith(word):
            return f"exit {code}, want {word!r}: {out[-300:]!r}"
        return None
    return want


def expect_counts(trials, p):
    def want(code, out):
        counts = {f[1]: int(f[2]) for f in (line.split() for line in out.splitlines())
                  if len(f) == 4 and f[0] == "leaf"}
        if code != 0 or not refs.binomial_ok(counts.get("y", -1), trials, p):
            return f"exit {code}, y count not within 5 sigma of {p}: {out!r}"
        return None
    return want


def cli_argv(command, ctx, *terms, extra=()):
    argv = [command, "--context", ctx, "--no-banner"]
    for t in terms:
        argv += ["-t", t]
    return argv + list(extra)


CHECK_ONE_NODE = cli_argv("check", "params: - ; vars: y:0", "y")


def simulate_op(impl, term, seed, p):
    trials = SIM_TRIALS[impl]
    return CliOp(cli_argv("simulate", YZ, term,
                          extra=["--impl", impl, "--trials", str(trials), "--seed", str(seed)]),
                 expect_counts(trials, p))


def make_cli(rng):
    names = gen.Names()
    t = gen.random_term(rng, names, (), [("y", 0), ("z", 0)], 25, wmax=3)
    equal = rng.random() < 0.5
    left, right = make_pair(rng, names, t, equal)
    i, j, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 4)
    formals = [f"a{s}" for s in range(m)]
    moment = f"nu[{i},{j}]p.x({','.join('p' * m)})"
    return [
        # y has mass 1/3 against 1/4 (the urn), so weights (1,2) against (1,3)
        CliOp(cli_argv("decide", YZ, APPENDIX_ONE, APPENDIX_TWO),
              expect(1, "not equal (k=0, n=2)", "witness: I=() chain[1] z: 2 vs 3")),
        CliOp(cli_argv("decide", "params: - ; vars: y:0, z:0, w:0",
                       gen.emit(left), gen.emit(right)),
              expect_verdict(equal)),
        CliOp(cli_argv("normalize", YZ, APPENDIX_ONE), expect(0, "reified: rch[1,2](y, z)")),
        CliOp(cli_argv("normalize", YZ, APPENDIX_TWO), expect(0, "reified: rch[1,3](y, z)")),
        CliOp(cli_argv("eval", f"params: - ; vars: x:{m}", moment,
                       extra=["-a", f"f_x({','.join(formals)}) = {'*'.join(formals)}"]),
              expect(0, str(refs.beta_power_moment(i, j, m)))),
        # fixed sampler seeds: every run makes the same draws, so a 0.1% chi-square
        # false alarm cannot come and go with the workload seed
        simulate_op("polya", APPENDIX_ONE, 7, Fraction(1, 3)),
        simulate_op("betabern", APPENDIX_TWO, 8, Fraction(1, 4)),
    ]


WORKLOADS = {
    "decide-ground": make_decide_ground,
    "decide-params": make_decide_params,
    "oracle": make_oracle,
    "cli": make_cli,
}
