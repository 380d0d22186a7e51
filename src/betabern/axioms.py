"""Directed rewrite rules for the Beta-Bernoulli equational theory.

Each axiom scheme is applied at a path inside a term, in a chosen
direction.  The schemes:

* rational convexity: ``ConvexDistr``, ``ConvexSymm``, ``ConvexZero``,
  ``ConvexIdem``
* commutativity: ``C1`` (two bias choices), ``C2`` (two binders), ``C3``
  (binder past a bias choice), ``C4`` (binder past a ratio choice), ``C5``
  (bias choice past a ratio choice)
* discardability: ``D1`` (unused binder), ``D2`` (bias choice between
  identical branches)
* ``Conj``: splitting a binder on a choice at its own parameter, with the
  conjugate hyperparameter update

Scheme metavariables stand for arbitrary subterms, so applying a rule at a
path realizes closure under congruence and substitution.  Two derived laws
(weight scaling and commutativity of ratio choices) are provided as macro
steps that expand into primitive applications, keeping the trusted kernel
at exactly the axiom schemes above.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .terms import (
    MAX_NUMERAL_DIGITS,
    _IDENT_RE,
    AxiomError,
    Context,
    Nu,
    ParamChoice,
    Path,
    RatioChoice,
    Term,
    TermError,
    all_params,
    alpha_eq,
    check_wellformed,
    format_path,
    free_params,
    fresh_param,
    parse_path,
    parse_term,
    rename_params,
    replace_at,
    subterm_at,
)

AXIOM_NAMES = (
    "ConvexDistr", "ConvexSymm", "ConvexZero", "ConvexIdem",
    "C1", "C2", "C3", "C4", "C5", "D1", "D2", "Conj",
)

MACRO_NAMES = ("Scale", "RatioComm")


def _format_step(head: str, step) -> str:
    """A step as a derivation file line: a term value is quoted."""
    parts = [head, step.direction, f"path={format_path(step.path)}"]
    parts += [f"{key}='{value}'" if isinstance(value, Term) else f"{key}={value}"
              for key, value in step.inst.items()]
    return " ".join(parts)


@dataclass
class RewriteStep:
    """One directed axiom application.

    ``inst`` carries the parts of the instantiation that cannot be read off
    the matched subterm: synthesized weights, parameters, or terms needed by
    right-to-left applications of the discarding axioms.
    """

    axiom: str
    direction: str = "lr"  # "lr" or "rl"
    path: Path = ()
    inst: dict = field(default_factory=dict)

    def __str__(self):
        return _format_step(self.axiom, self)


@dataclass
class MacroStep:
    """A derived rule that expands to primitive steps against the current term."""

    name: str
    direction: str = "lr"
    path: Path = ()
    inst: dict = field(default_factory=dict)

    def __str__(self):
        return _format_step(self.name, self)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise AxiomError(message)


def _read(name: str, inst: dict, needs: str, **kinds: type) -> list:
    """``inst``'s values at the keys of ``kinds``: refused with ``needs`` if
    one is missing, and unless each is of its kind, int or str."""
    _need(all(key in inst for key in kinds), needs)
    for key, kind in kinds.items():
        _need(isinstance(inst[key], kind),
              f"{name}: field {key!r} must be {'a numeral' if kind is int else 'a name'}")
    return [inst[key] for key in kinds]


_KIND = {RatioChoice: "ratio choice", ParamChoice: "bias choice", Nu: "nu binder"}


def _merge_binders(left: Nu, right: Nu, block: frozenset[str]) -> tuple[str, Term, Term]:
    """Alpha-align two binders to a common name not clashing with ``block``."""
    p = left.param
    usable = p not in block and (p == right.param or p not in all_params(right.body))
    if not usable:
        avoid = (block | all_params(left.body) | all_params(right.body)
                 | {left.param, right.param})
        p = fresh_param("q", avoid)
    lbody = left.body if p == left.param else rename_params(left.body, {left.param: p})
    rbody = right.body if p == right.param else rename_params(right.body, {right.param: p})
    return p, lbody, rbody


# --- one applier per law shape ---------------------------------------------


def _interchange(name: str, outer: type, inner: type):
    """C1 and C5: an outer choice ``o`` between two equal inner choices ``i``
    swaps with them, so ``(a i b) o (c i d)`` becomes ``(a o c) i (b o d)``."""

    def apply(t: Term, inst: dict) -> Term:
        _need(isinstance(t, outer), f"{name}: expected a {_KIND[outer]}")
        a, b = t.left, t.right
        _need(isinstance(a, inner) and isinstance(b, inner),
              f"{name}: both branches must be {_KIND[inner]}s")
        if inner is ParamChoice:
            _need(a.param == b.param, f"{name}: inner parameters differ ({a.param} vs {b.param})")
        else:
            _need((a.i, a.j) == (b.i, b.j), f"{name}: ratio weights differ between branches")
        return replace(a, left=replace(t, left=a.left, right=b.left),
                       right=replace(t, left=a.right, right=b.right))

    return apply


def _hoist(name: str, choice: type):
    """C3 and C4 ``lr``: a binder over a choice goes into both branches."""

    def apply(t: Term, inst: dict) -> Term:
        _need(isinstance(t, Nu), f"{name}: expected a nu binder")
        body = t.body
        _need(isinstance(body, choice), f"{name}: body must be a {_KIND[choice]}")
        _need(choice is not ParamChoice or body.param != t.param,
              f"{name}: choice parameter equals the bound parameter (use Conj)")
        return replace(body, left=replace(t, body=body.left), right=replace(t, body=body.right))

    return apply


def _sink(name: str, choice: type):
    """C3, C4 and Conj ``rl``: a choice between two binders becomes one binder over it."""

    def apply(t: Term, inst: dict) -> Term:
        _need(isinstance(t, choice), f"{name}: expected a {_KIND[choice]}")
        a, b = t.left, t.right
        _need(isinstance(a, Nu) and isinstance(b, Nu), f"{name}: both branches must be nu binders")
        if name == "Conj":  # the conjugate update, undone
            i, j = t.i, t.j
            _need(i >= 1 and j >= 1, "Conj: ratio weights must be positive hyperparameters")
            _need((a.i, a.j) == (i + 1, j),
                  f"Conj: left binder must be nu[{i + 1},{j}], got nu[{a.i},{a.j}]")
            _need((b.i, b.j) == (i, j + 1),
                  f"Conj: right binder must be nu[{i},{j + 1}], got nu[{b.i},{b.j}]")
        else:
            i, j = a.i, a.j
            _need((i, j) == (b.i, b.j), f"{name}: binder hyperparameters differ")
        block = frozenset((t.param,)) if choice is ParamChoice else frozenset()
        p, left, right = _merge_binders(a, b, block)
        body = (ParamChoice(p, left, right) if name == "Conj"
                else replace(t, left=left, right=right))
        return Nu(i, j, p, body)

    return apply


def _idem(name: str, choice: type):
    """ConvexIdem and D2 ``lr``: a choice between alpha-equal branches."""

    def apply(t: Term, inst: dict) -> Term:
        _need(isinstance(t, choice), f"{name}: expected a {_KIND[choice]}")
        _need(alpha_eq(t.left, t.right), f"{name}: branches are not alpha-equal")
        return t.left

    return apply


def _convex_distr(t: Term, inst: dict) -> Term:
    """Its own inverse: regroups ``(a i,j b) i+j,k+l (c k,l d)`` into
    ``(a i,k c) i+k,j+l (b j,l d)``."""
    _need(isinstance(t, RatioChoice), "ConvexDistr: expected a ratio choice")
    _need(isinstance(t.left, RatioChoice) and isinstance(t.right, RatioChoice),
          "ConvexDistr: both branches must be ratio choices")
    i, j = t.left.i, t.left.j
    k, l = t.right.i, t.right.j
    _need((t.i, t.j) == (i + j, k + l),
          f"ConvexDistr: outer weights must be ({i + j},{k + l}), got ({t.i},{t.j})")
    _need(i + k > 0 and j + l > 0, "ConvexDistr: regrouped weights would have zero total")
    return RatioChoice(i + k, j + l,
                       RatioChoice(i, k, t.left.left, t.right.left),
                       RatioChoice(j, l, t.left.right, t.right.right))


def _convex_symm(t: Term, inst: dict) -> Term:
    _need(isinstance(t, RatioChoice), "ConvexSymm: expected a ratio choice")
    return RatioChoice(t.j, t.i, t.right, t.left)


def _convex_zero_lr(t: Term, inst: dict) -> Term:
    _need(isinstance(t, RatioChoice), "ConvexZero: expected a ratio choice")
    _need(t.j == 0, f"ConvexZero: right weight must be 0, got {t.j}")
    return t.left


def _convex_zero_rl(t: Term, inst: dict) -> Term:
    _need("i" in inst and "y" in inst,
          "ConvexZero rl needs inst i (weight) and y (discarded term)")
    i, y = inst["i"], inst["y"]
    _need(isinstance(i, int) and i > 0, "ConvexZero: weight i must be positive")
    _need(isinstance(y, Term), "ConvexZero: y must be a term")
    return RatioChoice(i, 0, t, y)


def _convex_idem_rl(t: Term, inst: dict) -> Term:
    i, j = _read("ConvexIdem", inst, "ConvexIdem rl needs inst weights i, j", i=int, j=int)
    _need(i >= 0 and j >= 0 and i + j > 0, "ConvexIdem: weights need i+j > 0")
    return RatioChoice(i, j, t, t)


def _c2(t: Term, inst: dict) -> Term:
    _need(isinstance(t, Nu), "C2: expected a nu binder")
    inner = t.body
    _need(isinstance(inner, Nu), "C2: body must be another nu binder")
    _need(t.param != inner.param, "C2: nested binders share a name")
    return Nu(inner.i, inner.j, inner.param, Nu(t.i, t.j, t.param, inner.body))


def _d1_lr(t: Term, inst: dict) -> Term:
    _need(isinstance(t, Nu), "D1: expected a nu binder")
    _need(t.param not in free_params(t.body),
          f"D1: bound parameter {t.param!r} occurs in the body")
    return t.body


def _d1_rl(t: Term, inst: dict) -> Term:
    i, j, p = _read("D1", inst, "D1 rl needs inst i, j (hyperparameters) and p (fresh parameter)",
                    i=int, j=int, p=str)
    _need(i >= 1 and j >= 1, "D1: hyperparameters must be positive")
    _need(p not in all_params(t), f"D1: parameter {p!r} occurs in the term")
    return Nu(i, j, p, t)


def _d2_rl(t: Term, inst: dict) -> Term:
    [p] = _read("D2", inst, "D2 rl needs inst p (choice parameter)", p=str)
    return ParamChoice(p, t, t)


def _conj_lr(t: Term, inst: dict) -> Term:
    _need(isinstance(t, Nu), "Conj: expected a nu binder")
    body = t.body
    _need(isinstance(body, ParamChoice), "Conj: body must be a bias choice")
    _need(body.param == t.param, "Conj: choice parameter must be the bound parameter")
    return RatioChoice(t.i, t.j, Nu(t.i + 1, t.j, t.param, body.left),
                       Nu(t.i, t.j + 1, t.param, body.right))


_C1 = _interchange("C1", ParamChoice, ParamChoice)

_APPLIERS = {  # scheme -> (lr, rl)
    "ConvexDistr": (_convex_distr, _convex_distr),
    "ConvexSymm": (_convex_symm, _convex_symm),
    "ConvexZero": (_convex_zero_lr, _convex_zero_rl),
    "ConvexIdem": (_idem("ConvexIdem", RatioChoice), _convex_idem_rl),
    "C1": (_C1, _C1),
    "C2": (_c2, _c2),
    "C3": (_hoist("C3", ParamChoice), _sink("C3", ParamChoice)),
    "C4": (_hoist("C4", RatioChoice), _sink("C4", RatioChoice)),
    "C5": (_interchange("C5", ParamChoice, RatioChoice),
           _interchange("C5", RatioChoice, ParamChoice)),
    "D1": (_d1_lr, _d1_rl),
    "D2": (_idem("D2", ParamChoice), _d2_rl),
    "Conj": (_conj_lr, _sink("Conj", RatioChoice)),
}


def apply_axiom(t: Term, step: RewriteStep) -> Term:
    """Apply one step at its path; raise :class:`AxiomError` on mismatch."""
    if step.axiom not in AXIOM_NAMES:
        raise AxiomError(f"unknown axiom {step.axiom!r}")
    if step.direction not in ("lr", "rl"):
        raise AxiomError(f"unknown direction {step.direction!r}")
    try:
        target = subterm_at(t, step.path)
    except TermError as e:
        raise AxiomError(f"bad path {format_path(step.path)}: {e}") from None
    new = _APPLIERS[step.axiom][step.direction == "rl"](target, step.inst)
    return replace_at(t, step.path, new)


# --- derived macro rules ---------------------------------------------------


def expand_scale(t: Term, path: Path, factor: int, direction: str) -> list[RewriteStep]:
    """Steps multiplying (``rl``) or dividing (``lr``) ratio weights by ``factor``.

    ``lr`` rewrites ``x rch[f*i, f*j] y`` into ``x rch[i,j] y``; the target
    subterm's weights must be divisible by ``factor``.
    """
    if factor <= 0:
        raise AxiomError("Scale: factor must be positive")
    target = subterm_at(t, path)
    if not isinstance(target, RatioChoice):
        raise AxiomError("Scale: expected a ratio choice")
    if direction == "lr":
        if target.i % factor or target.j % factor:
            raise AxiomError(f"Scale: weights ({target.i},{target.j}) not divisible by {factor}")
        i, j = target.i // factor, target.j // factor
    else:
        i, j = target.i, target.j
    if factor == 1:
        return []
    if i == 0 or j == 0:
        # degenerate column: collapse with Zero/Symm and rebuild at new weights
        keep, dropped = (target.left, target.right) if j == 0 else (target.right, target.left)
        ni, nj = (i, j) if direction == "lr" else (i * factor, j * factor)
        steps = []
        if target.j != 0:
            steps.append(RewriteStep("ConvexSymm", "lr", path))
        steps.append(RewriteStep("ConvexZero", "lr", path))
        steps.append(RewriteStep("ConvexZero", "rl", path, {"i": max(ni, nj), "y": dropped}))
        if nj != 0:
            steps.append(RewriteStep("ConvexSymm", "lr", path))
        return steps

    # One level per unit of the factor, each one branch deeper: a level's
    # opening steps come in order and its closing steps in reverse, as a
    # recursion on the factor would emit them.
    opening: list[RewriteStep] = []
    closing: list[list[RewriteStep]] = []
    for f in range(factor, 1, -1):
        left, right = path + ("l",), path + ("r",)
        if direction == "lr":  # x rch[f*i, f*j] y  ->  x rch[i,j] y
            opening += [
                RewriteStep("ConvexIdem", "rl", left, {"i": i, "j": (f - 1) * i}),
                RewriteStep("ConvexIdem", "rl", right, {"i": j, "j": (f - 1) * j}),
                RewriteStep("ConvexDistr", "lr", path),
            ]
            closing.append([RewriteStep("ConvexIdem", "lr", path)])
        else:  # x rch[i,j] y  ->  x rch[f*i, f*j] y
            opening.append(RewriteStep("ConvexIdem", "rl", path,
                                       {"i": i + j, "j": (f - 1) * (i + j)}))
            closing.append([
                RewriteStep("ConvexDistr", "rl", path),
                RewriteStep("ConvexIdem", "lr", left),
                RewriteStep("ConvexIdem", "lr", right),
            ])
        path = right
    return opening + [step for level in reversed(closing) for step in level]


def expand_ratio_comm(t: Term, path: Path, direction: str) -> list[RewriteStep]:
    """Commutativity of nested ratio choices with positive weights:

    ``(w rch[i,j] x) rch[k,l] (y rch[i,j] z)``
    rewrites to ``(w rch[k,l] y) rch[i,j] (x rch[k,l] z)``.

    Both directions expand to the same shape of step list since the law is
    symmetric; only the roles of (i,j) and (k,l) swap.
    """
    target = subterm_at(t, path)
    if not (isinstance(target, RatioChoice)
            and isinstance(target.left, RatioChoice)
            and isinstance(target.right, RatioChoice)):
        raise AxiomError("RatioComm: expected a ratio choice of ratio choices")
    k, l = target.i, target.j
    i, j = target.left.i, target.left.j
    if (target.right.i, target.right.j) != (i, j):
        raise AxiomError("RatioComm: inner ratio weights differ")
    if min(i, j, k, l) <= 0:
        raise AxiomError("RatioComm: macro requires positive weights")

    steps: list[RewriteStep] = []
    cur = t

    def push(batch):
        nonlocal cur
        for step in batch:
            steps.append(step)
            cur = apply_axiom(cur, step)

    push(expand_scale(cur, path + ("l",), k, "rl"))
    push(expand_scale(cur, path + ("r",), l, "rl"))
    push(expand_scale(cur, path, i + j, "rl"))
    push([RewriteStep("ConvexDistr", "lr", path)])
    push(expand_scale(cur, path, k + l, "lr"))
    push(expand_scale(cur, path + ("l",), i, "lr"))
    push(expand_scale(cur, path + ("r",), j, "lr"))
    return steps


def expand_macro(t: Term, macro: MacroStep) -> list[RewriteStep]:
    if macro.name == "Scale":
        [k] = _read("Scale", macro.inst, "Scale macro needs inst k (factor)", k=int)
        return expand_scale(t, macro.path, k, macro.direction)
    if macro.name == "RatioComm":
        return expand_ratio_comm(t, macro.path, macro.direction)
    raise AxiomError(f"unknown macro {macro.name!r}")


# --- derivation checking ---------------------------------------------------


def check_derivation(ctx: Context, start: Term, steps, end: Term) -> bool:
    """Apply ``steps`` (rewrite or macro) to ``start``; true iff the result
    is alpha-equal to ``end``.

    Any step failure is re-raised with the failing step index, and every
    intermediate term is validated against the context.
    """
    bad = check_wellformed(ctx, start)
    if bad:
        raise AxiomError(f"start term ill-formed: {bad[0]}")
    cur = start
    for idx, step in enumerate(steps):
        try:
            if isinstance(step, MacroStep):
                for sub in expand_macro(cur, step):
                    cur = apply_axiom(cur, sub)
            else:
                cur = apply_axiom(cur, step)
        except AxiomError as e:
            raise AxiomError(f"step {idx} ({step}): {e}") from None
        bad = check_wellformed(ctx, cur)
        if bad:
            raise AxiomError(f"step {idx} ({step}) produced ill-formed term: {bad[0]}")
    return alpha_eq(cur, end)


# --- derivation files ------------------------------------------------------
#
# One step per line:   AXIOM DIR path=l.r.b [key=value ...]
# Values are integers, parameter names, or terms quoted in single quotes.
# Lines starting with '#' are comments.


def parse_derivation(text: str, ctx: Context) -> list:
    steps: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            steps.append(_parse_step_line(line, ctx))
        except (AxiomError, TermError) as e:
            raise AxiomError(f"derivation line {lineno}: {e}") from None
    return steps


_STEP_TOKEN_RE = re.compile(r"(?:[^\s']|'[^']*')+")  # quotes keep their spaces
_NUMERAL_RE = re.compile(r"-?[0-9]+")  # ASCII only, unlike str.isdigit


def _split_tokens(line: str) -> list[str]:
    if line.count("'") % 2:
        raise AxiomError("unterminated quote")
    return _STEP_TOKEN_RE.findall(line)


def _parse_step_line(line: str, ctx: Context):
    tokens = _split_tokens(line)
    if len(tokens) < 3:
        raise AxiomError(f"expected 'AXIOM DIR path=...', got {line!r}")
    name, direction = tokens[0], tokens[1]
    if direction not in ("lr", "rl"):
        raise AxiomError(f"bad direction {direction!r}")
    if not tokens[2].startswith("path="):
        raise AxiomError("third field must be path=...")
    path = parse_path(tokens[2][len("path="):])
    inst: dict = {}
    for tok in tokens[3:]:
        if "=" not in tok:
            raise AxiomError(f"bad instantiation field {tok!r}")
        key, value = tok.split("=", 1)
        if value.startswith("'") and value.endswith("'"):
            inst[key] = parse_term(value[1:-1], ctx)
        elif _NUMERAL_RE.fullmatch(value):
            digits = len(value.lstrip("-"))
            if digits > MAX_NUMERAL_DIGITS:
                raise AxiomError(f"field {key!r}: numeral of {digits} digits exceeds "
                                 f"the limit of {MAX_NUMERAL_DIGITS}")
            inst[key] = int(value)
        elif _IDENT_RE.match(value):
            inst[key] = value
        else:
            raise AxiomError(f"field {key!r}: expected a numeral, a name or a quoted "
                             f"term, got {value!r}")
    if name in MACRO_NAMES:
        return MacroStep(name, direction, path, inst)
    if name in AXIOM_NAMES:
        return RewriteStep(name, direction, path, inst)
    raise AxiomError(f"unknown axiom {name!r}")
