"""The benchmark's tracer still finds and wraps every function it traces.

``perfbench/spans.py`` swaps the program's functions for traced stand-ins
at run time, so a renamed function or a changed signature breaks only the
traced benchmark run.  This test installs the tracer in a fresh
interpreter, calls each traced function once on tiny inputs, and checks
that every span and count was recorded.  A second test runs the CLI with
every import of scipy made to fail, so no third-party runtime dependency
creeps back in.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import importlib.util, json, random, sys

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

from betabern import decide, normalizer, semantics, simulate, terms

tracer = spans.Tracer()
tracer.install()

ground = terms.parse_context("params: - ; vars: y:0, z:0")
one = terms.parse_term("nu[1,1]p.pch[p](pch[p](y,z), z)", ground)
two = terms.parse_term("nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)", ground)
terms.check_wellformed(ground, one)  # decide.equal does not walk parsed roots again
decide.equal(ground, one, two)
normalizer.raise_level(normalizer.push_nu_to_leaves(one), 3)
reified = normalizer.reify(normalizer.normalize(ground, one))
sweep = semantics.functional_eq(ground, one, reified)
sampled = semantics.functional_eq_sampled(ground, one, reified, random.Random(1))
for impl in ("polya", "betabern"):
    simulate.estimate(ground, one, 300, 1, impl)
simulate.compare(ground, one, 300, 1, "polya")

print(json.dumps({
    "verdicts": [sweep, sampled],
    "spans": sorted({span[0] for span in tracer.spans}),
    "counts": dict(tracer.counts),
}))
"""

SPANS = {
    "terms.parse", "terms.check_wellformed", "normalizer.push", "normalizer.raise",
    "normalizer.tables", "normalizer.reify", "decide.compare", "semantics.sweep",
    "semantics.sampled", "simulate.polya", "simulate.betabern", "simulate.chi2",
}


def test_tracer_wraps_every_traced_function():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench", "spans.py")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["verdicts"] == [True, True]
    assert SPANS <= set(out["spans"]), SPANS - set(out["spans"])
    # the sweep takes one zero argument vector per variable, y and z, and
    # tags that variable's monomials into it; the sampled check builds its
    # arguments through Poly.make
    assert out["counts"]["semantics.sweep.args"] == 2
    assert out["counts"]["poly.make.calls"] >= 2
    # two estimates and the one inside compare
    assert out["counts"]["simulate.trials"] == 900


NO_SCIPY = r"""
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from betabern.cli import main

sys.exit(main(["simulate", "--context", "params: - ; vars: y:0, z:0",
               "-t", "nu[1,1]p.pch[p](pch[p](y,z), z)",
               "--impl", "polya", "--trials", "20000", "--seed", "13", "--no-banner"]))
"""


def test_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "pass: yes" in proc.stdout
