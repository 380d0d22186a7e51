"""Benchmark for betabern: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload decide-ground --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import refs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

PER_LAYER = [
    ("terms.parse.self_s", "s"),
    ("terms.check_wellformed.self_s", "s"),
    ("normalizer.push.self_s", "s"),
    ("normalizer.push.nodes_out", "count"),
    ("normalizer.raise.self_s", "s"),
    ("normalizer.raise.nodes_out", "count"),
    ("normalizer.tables.self_s", "s"),
    ("normalizer.paths", "count"),
    ("normalizer.grid_cells", "count"),
    ("normalizer.chains", "count"),
    ("decide.compare.self_s", "s"),
    ("normalizer.reify.self_s", "s"),
    ("semantics.sweep.self_s", "s"),
    ("semantics.sweep.args", "count"),
    ("semantics.sampled.self_s", "s"),
    ("poly.make.calls", "count"),
    ("simulate.polya.self_s", "s"),
    ("simulate.betabern.self_s", "s"),
    ("simulate.trials_per_s", "1/s"),
    ("simulate.chi2.self_s", "s"),
    ("cli.import.self_s", "s"),
]


class Program:
    """The program's modules, looked up at call time by the operations."""

    def __init__(self):
        self.cli = None
        self.contexts = {}
        self.child_env = {**os.environ, "PYTHONPATH": SRC}

    def load(self, in_process_cli=False):
        import betabern
        from betabern import cli, decide, normalizer, poly, semantics, terms

        if not os.path.abspath(betabern.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"betabern imported from {betabern.__file__}, not {SRC}")
        self.terms, self.decide, self.normalizer, self.semantics = terms, decide, normalizer, semantics
        self.poly = poly
        if in_process_cli:
            self.cli = cli

    def parse_contexts(self, ops):
        for op in ops:
            ctx = getattr(op, "ctx", None)
            if ctx is not None and ctx not in self.contexts:
                self.contexts[ctx] = self.terms.parse_context(ctx)


def warm_up(program):
    """A fixed, seed-independent pass over every in-process layer."""
    ctx = program.terms.parse_context(workloads.YZ)
    one = program.terms.parse_term(workloads.APPENDIX_ONE, ctx)
    two = program.terms.parse_term(workloads.APPENDIX_TWO, ctx)
    if program.decide.equal(ctx, one, two).equal:
        raise SystemExit("warm-up: the appendix terms decide equal")
    reified = program.normalizer.reify(program.normalizer.normalize(ctx, one))
    if not program.semantics.functional_eq(ctx, one, reified):
        raise SystemExit("warm-up: the exact evaluator rejects a normal form")
    # interpret against Beta moments: the README's 5/6, and E[p^3] under Beta(2,3)
    for hyper, m, extra in (((1, 1), 2, Fraction(1, 2)), ((2, 3), 3, Fraction(0))):
        ctx = program.terms.parse_context(f"params: - ; vars: x:{m}")
        t = program.terms.parse_term(f"nu[{hyper[0]},{hyper[1]}]p.x({','.join('p' * m)})", ctx)
        formals = tuple(f"a{s}" for s in range(m))
        poly = program.poly.parse_poly(f"{'*'.join(formals)} + {extra}", set(formals))
        got = program.semantics.interpret(ctx, t, {"x": program.semantics.FuncArg(formals, poly)})
        want = refs.beta_power_moment(*hyper, m) + extra
        if got.eval({}) != want:
            raise SystemExit(f"warm-up: interpret gave {got}, want {want}")


def run_rounds(ops, program, seconds, tracer=None):
    """Whole rounds over ``ops`` until ``seconds`` of operations are timed,
    and at least two, so that every decide pair runs in both directions."""
    times, problems = [], []
    attempted = failed = rounds = 0
    timed = 0.0
    while timed < seconds or rounds < 2:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = rounds * len(ops) + index
                span = tracer.open("op")
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.run(program, rounds)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                elapsed = time.perf_counter() - start
                failed += 1
                if not isinstance(exc, op.known_fault):
                    problems.append(f"op {index}: {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
                times.append(elapsed)
                problem = op.check(result, rounds)
                if problem:
                    problems.append(f"op {index}: {problem}")
            finally:
                if tracer is not None:
                    tracer.close(span)
            timed += elapsed
        rounds += 1
    return dict(times=times, timed=timed, attempted=attempted, failed=failed,
                rounds=rounds, problems=problems)


def cli_setup(program):
    """Median wall time of three ``check`` calls on a one-node term."""
    check = workloads.CliOp(workloads.CHECK_ONE_NODE, workloads.expect(0, "ok: y"))
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        result = check.run(program, 0)
        walls.append(time.perf_counter() - start)
        problem = check.check(result, 0)
        if problem:
            raise SystemExit(f"check on a one-node term: {problem}")
    return statistics.median(walls)


def end_to_end(stats, setup_s, peak_kb):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(stats["times"]) / stats["timed"], "1/s"),
        "op_median_ms": (statistics.median(stats["times"]) * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(tracer, rounds, chi2_import_s, import_s):
    self_s = tracer.self_times()
    values = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = self_s[name[:-len(".self_s")]] / rounds
        elif unit == "count":
            values[name] = tracer.counts[name] / rounds
    values["simulate.chi2.self_s"] += chi2_import_s
    values["cli.import.self_s"] = import_s
    sampler_s = self_s["simulate.polya"] + self_s["simulate.betabern"]
    values["simulate.trials_per_s"] = (
        tracer.counts["simulate.trials"] / sampler_s if sampler_s else 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "betabern", "__init__.py")):
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    is_cli = opts.workload == "cli"
    tracer = Tracer() if opts.trace else None

    program = Program()
    if tracer is not None:
        start = time.perf_counter()
        import scipy.stats  # noqa: F401 - the program's import of chi2, timed alone
        chi2_import_s = time.perf_counter() - start
        start = time.perf_counter()
        program.load(in_process_cli=is_cli)
        import_s = time.perf_counter() - start
        warm_up(program)
    elif not is_cli:
        program.load()
        warm_up(program)
    setup_s = time.perf_counter() - T0

    rng = random.Random(f"{opts.workload}:{opts.seed}")
    ops = workloads.WORKLOADS[opts.workload](rng)
    if is_cli and tracer is None:
        setup_s = cli_setup(program)
    program.parse_contexts(ops)

    if tracer is not None:
        tracer.install()
    stats = run_rounds(ops, program, opts.seconds, tracer)
    for problem in stats["problems"][:20]:
        print(problem, file=sys.stderr)
    if not stats["times"]:
        print("no operation succeeded", file=sys.stderr)
        return 1
    # for reference only, not a metric: the 90th percentile of operation times
    print(f"op_p90_ms {statistics.quantiles(stats['times'], n=10)[-1] * 1000}", file=sys.stderr)

    if tracer is None:
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        metrics = end_to_end(stats, setup_s, resource.getrusage(who).ru_maxrss)
    else:
        metrics = per_layer(tracer, stats["rounds"], chi2_import_s, import_s)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{opts.workload}-{opts.seed}.json"))
    print(json.dumps({
        "correct": not stats["problems"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
