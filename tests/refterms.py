"""Reference renaming and substitution, written recursively as the
definitions read.

``betabern.terms`` renames and substitutes in one capture-avoiding walk
with an explicit stack: a binder that must be freshened is renamed on the
way down, and its body is walked with the old name mapped to the fresh
one.  The reference here renames a freshened binder's body in a separate
``rename_params`` pass and then recurses into the result.  Both pick the
same fresh names from the same avoid sets, so their outputs print the
same; tests compare the two.
"""

from __future__ import annotations

from betabern.terms import (
    Nu,
    ParamChoice,
    RatioChoice,
    SubstitutionError,
    Term,
    TermError,
    VarApp,
    fresh_param,
)


def all_params(t: Term) -> frozenset[str]:
    """Every parameter name occurring in ``t``, free or bound."""
    if isinstance(t, VarApp):
        return frozenset(t.args)
    if isinstance(t, (RatioChoice, ParamChoice)):
        extra = frozenset((t.param,)) if isinstance(t, ParamChoice) else frozenset()
        return all_params(t.left) | all_params(t.right) | extra
    if isinstance(t, Nu):
        return all_params(t.body) | {t.param}
    raise TermError(f"not a term: {t!r}")


def rename_params(t: Term, mapping: dict[str, str]) -> Term:
    """Simultaneously rename free parameters, freshening binders on clashes."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return t
    if isinstance(t, VarApp):
        return VarApp(t.var, tuple(mapping.get(a, a) for a in t.args))
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, rename_params(t.left, mapping),
                           rename_params(t.right, mapping))
    if isinstance(t, ParamChoice):
        return ParamChoice(mapping.get(t.param, t.param),
                           rename_params(t.left, mapping),
                           rename_params(t.right, mapping))
    assert isinstance(t, Nu)
    sub = {k: v for k, v in mapping.items() if k != t.param}
    if t.param in sub.values():
        avoid = set(sub) | set(sub.values()) | all_params(t.body)
        fresh = fresh_param(t.param, avoid)
        sub[t.param] = fresh
        return Nu(t.i, t.j, fresh, rename_params(t.body, sub))
    return Nu(t.i, t.j, t.param, rename_params(t.body, sub))


def substitute(t: Term, bindings: dict[str, tuple[tuple[str, ...], Term]]) -> Term:
    """Simultaneously substitute variables by parameterized replacement
    terms, freshening binders of ``t`` that clash with injected names."""
    inject: set[str] = set()
    for formals, rep in bindings.values():
        inject |= all_params(rep) - set(formals)

    def go(t: Term) -> Term:
        if isinstance(t, VarApp):
            if t.var not in bindings:
                return t
            formals, rep = bindings[t.var]
            if len(formals) != len(t.args):
                raise SubstitutionError(
                    f"occurrence {t} has {len(t.args)} arguments but the "
                    f"replacement declares {len(formals)} formals")
            return rename_params(rep, dict(zip(formals, t.args)))
        if isinstance(t, RatioChoice):
            return RatioChoice(t.i, t.j, go(t.left), go(t.right))
        if isinstance(t, ParamChoice):
            return ParamChoice(t.param, go(t.left), go(t.right))
        assert isinstance(t, Nu)
        if t.param in inject:
            fresh = fresh_param(t.param, inject | all_params(t.body))
            body = rename_params(t.body, {t.param: fresh})
            return Nu(t.i, t.j, fresh, go(body))
        return Nu(t.i, t.j, t.param, go(t.body))

    return go(t)
