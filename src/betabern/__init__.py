"""Equational engine for Beta-Bernoulli choice terms.

Decides derivable equality by computing unique normal forms,
cross-validated by an exact-rational denotational evaluator and by
Monte-Carlo simulation (Pólya urn vs. direct Beta sampling).

The public names below are resolved on first use (PEP 562), so importing
the package, or one of its modules, loads only what that needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "terms": (
        "Context", "Nu", "ParamChoice", "ParseError", "RatioChoice",
        "SubstitutionError", "Term", "TermError", "VarApp", "Violation",
        "alpha_eq", "check_wellformed", "format_context", "format_term",
        "free_params", "parse_context", "parse_term", "substitute",
    ),
    "axioms": (
        "AXIOM_NAMES", "AxiomError", "MacroStep", "RewriteStep", "apply_axiom",
        "check_derivation", "parse_derivation",
    ),
    "normalizer": (
        "Chain", "NormalForm", "join_normalize", "normal_form_to_dict", "normalize",
        "reify",
    ),
    "poly": ("Poly", "format_poly", "parse_poly"),
    "semantics": (
        "FuncArg", "bernstein", "bernstein_multi", "beta_moment", "chain_functional",
        "chain_rank_check", "elevate", "functional_eq", "interpret",
        "interpret_normalform", "term_from_bernstein", "to_bernstein",
    ),
    "decide": ("Verdict", "Witness", "equal"),
    "simulate": (
        "TrialReport", "compare", "estimate", "exact_distribution", "run_betabern",
        "run_polya",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
