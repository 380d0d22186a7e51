"""Equational engine for Beta-Bernoulli choice terms.

Decides derivable equality by computing unique normal forms,
cross-validated by an exact-rational denotational evaluator and by
Monte-Carlo simulation (Pólya urn vs. direct Beta sampling).
"""

__version__ = "0.1.0"

from .terms import (  # noqa: F401
    Context,
    Nu,
    ParamChoice,
    ParseError,
    RatioChoice,
    SubstitutionError,
    Term,
    TermError,
    VarApp,
    Violation,
    alpha_eq,
    check_wellformed,
    format_context,
    format_term,
    free_params,
    parse_context,
    parse_term,
    substitute,
)
from .axioms import (  # noqa: F401
    AXIOM_NAMES,
    AxiomError,
    MacroStep,
    RewriteStep,
    apply_axiom,
    check_derivation,
    parse_derivation,
)
from .normalizer import (  # noqa: F401
    Chain,
    NormalForm,
    join_normalize,
    normal_form_to_dict,
    normalize,
    reify,
)
from .poly import Poly, format_poly, parse_poly  # noqa: F401
from .semantics import (  # noqa: F401
    FuncArg,
    bernstein,
    bernstein_multi,
    beta_moment,
    chain_functional,
    chain_rank_check,
    elevate,
    functional_eq,
    interpret,
    interpret_normalform,
    term_from_bernstein,
    to_bernstein,
)
from .decide import Verdict, Witness, equal  # noqa: F401
from .simulate import (  # noqa: F401
    TrialReport,
    compare,
    estimate,
    exact_distribution,
    run_betabern,
    run_polya,
)
