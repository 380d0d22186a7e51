"""The package's public surface: every exported name, resolved on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import betabern

# The names ``betabern`` exports, by the module that defines them.
EXPORTS = {
    "terms": ["Context", "Nu", "ParamChoice", "ParseError", "RatioChoice",
              "SubstitutionError", "Term", "TermError", "VarApp", "Violation", "alpha_eq",
              "check_wellformed", "format_context", "format_term", "free_params",
              "parse_context", "parse_term", "substitute"],
    "axioms": ["AXIOM_NAMES", "AxiomError", "MacroStep", "RewriteStep", "apply_axiom",
               "check_derivation", "parse_derivation"],
    "normalizer": ["Chain", "NormalForm", "join_normalize", "normal_form_to_dict",
                   "normalize", "reify"],
    "poly": ["Poly", "format_poly", "parse_poly"],
    "semantics": ["FuncArg", "bernstein", "bernstein_multi", "beta_moment",
                  "chain_functional", "chain_rank_check", "elevate", "functional_eq",
                  "interpret", "interpret_normalform", "term_from_bernstein", "to_bernstein"],
    "decide": ["Verdict", "Witness", "equal"],
    "simulate": ["TrialReport", "compare", "estimate", "exact_distribution", "run_betabern",
                 "run_polya"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_version():
    assert betabern.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_the_object_in_its_module(module, name):
    defined = getattr(importlib.import_module(f"betabern.{module}"), name)
    assert getattr(betabern, name) is defined
    assert getattr(__import__("betabern", fromlist=[name]), name) is defined


def test_submodules_are_attributes():
    for module in EXPORTS:
        assert getattr(betabern, module) is importlib.import_module(f"betabern.{module}")


def test_all_and_dir_list_every_name():
    names = {name for _, name in NAMES} | set(EXPORTS)
    assert set(betabern.__all__) == names
    assert names | {"__version__"} <= set(dir(betabern))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        betabern.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from betabern import no_such_name  # noqa: F401


def test_errors_are_defined_once():
    from betabern import axioms, poly, terms
    assert poly.PolyError is terms.PolyError
    assert axioms.AxiomError is terms.AxiomError


def test_import_loads_only_what_is_used():
    # a fresh interpreter: this session has already imported every module
    script = (
        "import sys, betabern\n"
        "print(sorted(m for m in sys.modules if m.startswith('betabern.')))\n"
        "betabern.normalize\n"
        "print(sorted(m for m in sys.modules if m.startswith('betabern.')))\n"
        "from betabern import *\n"
        "print(len(sorted(m for m in sys.modules if m.startswith('betabern.'))))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['betabern.normalizer', 'betabern.terms']", str(len(EXPORTS))]
