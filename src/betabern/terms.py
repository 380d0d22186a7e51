"""Abstract syntax for Beta-Bernoulli choice terms.

A term is one of:

* ``VarApp(x, (p, q))``      -- continuation variable applied to parameters
* ``RatioChoice(i, j, l, r)`` -- pick ``l`` with probability i/(i+j)
* ``ParamChoice(p, l, r)``    -- pick ``l`` with probability given by ``p``
* ``Nu(i, j, p, body)``       -- bind a fresh Beta(i, j)-distributed parameter

Terms live in a two-zone :class:`Context`: an ordered list of free
parameters and an ordered list of variables with arities.  Everything here
is immutable and operations are pure functions, so terms can be shared
freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

RESERVED_WORDS = frozenset({"rch", "pch", "nu", "params", "vars"})

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")


class TermError(Exception):
    """Malformed term, context, or operation input."""


class SubstitutionError(TermError):
    """Arity mismatch between a variable occurrence and its replacement."""


class ParseError(TermError):
    """Syntax or scoping error in term/context text, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _check_ident(name: str, what: str) -> None:
    if not _IDENT_RE.match(name):
        raise TermError(f"{what} {name!r} is not a valid identifier")
    if name in RESERVED_WORDS:
        raise TermError(f"{what} {name!r} is a reserved word")


@dataclass(frozen=True)
class Context:
    """Two-zone context: free parameter names and variables with arities."""

    params: tuple[str, ...] = ()
    vars: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = list(self.params) + [v for v, _ in self.vars]
        for name in self.params:
            _check_ident(name, "parameter")
        for name, arity in self.vars:
            _check_ident(name, "variable")
            if arity < 0:
                raise TermError(f"variable {name!r} has negative arity")
        if len(set(names)) != len(names):
            raise TermError("context names must be pairwise distinct")

    def arity(self, var: str) -> int | None:
        for name, m in self.vars:
            if name == var:
                return m
        return None

    def param_position(self, param: str) -> int:
        """1-based position of a free parameter."""
        return self.params.index(param) + 1

    def var_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.vars)

    def all_names(self) -> frozenset[str]:
        return frozenset(self.params) | frozenset(self.var_names())

    def __str__(self) -> str:
        return format_context(self)


class Term:
    """Base class for term nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True, repr=False)
class VarApp(Term):
    var: str
    args: tuple[str, ...] = ()

    def __repr__(self):
        return f"VarApp({self.var!r}, {self.args!r})"


@dataclass(frozen=True, repr=False)
class RatioChoice(Term):
    i: int
    j: int
    left: Term
    right: Term

    def __repr__(self):
        return f"RatioChoice({self.i}, {self.j}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False)
class ParamChoice(Term):
    param: str
    left: Term
    right: Term

    def __repr__(self):
        return f"ParamChoice({self.param!r}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False)
class Nu(Term):
    i: int
    j: int
    param: str
    body: Term

    def __repr__(self):
        return f"Nu({self.i}, {self.j}, {self.param!r}, {self.body!r})"


# ---------------------------------------------------------------------------
# Paths into terms.  Selectors: "l"/"r" pick a choice branch, "b" enters a
# nu body.  The empty path is the root.

Path = tuple[str, ...]


def child(t: Term, sel: str) -> Term:
    if sel == "l" and isinstance(t, (RatioChoice, ParamChoice)):
        return t.left
    if sel == "r" and isinstance(t, (RatioChoice, ParamChoice)):
        return t.right
    if sel == "b" and isinstance(t, Nu):
        return t.body
    raise TermError(f"selector {sel!r} does not apply to {type(t).__name__}")


def subterm_at(t: Term, path: Path) -> Term:
    for sel in path:
        t = child(t, sel)
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    sel, rest = path[0], path[1:]
    inner = replace_at(child(t, sel), rest, new)
    if isinstance(t, RatioChoice):
        return RatioChoice(t.i, t.j, inner, t.right) if sel == "l" else RatioChoice(t.i, t.j, t.left, inner)
    if isinstance(t, ParamChoice):
        return ParamChoice(t.param, inner, t.right) if sel == "l" else ParamChoice(t.param, t.left, inner)
    assert isinstance(t, Nu)
    return Nu(t.i, t.j, t.param, inner)


def format_path(path: Path) -> str:
    return ".".join(path) if path else "."


def parse_path(text: str) -> Path:
    text = text.strip()
    if text in ("", "."):
        return ()
    parts = tuple(text.split("."))
    for sel in parts:
        if sel not in ("l", "r", "b"):
            raise TermError(f"bad path selector {sel!r}")
    return parts


# ---------------------------------------------------------------------------
# Free parameters, well-formedness.


_LEAVE = object()  # stack marker: the binder name below it goes out of scope


def free_params(t: Term) -> frozenset[str]:
    """Parameters occurring free in choice subscripts or variable arguments.

    One walk with an explicit stack, so no recursion limit applies.  A
    binder pushes its name and a marker below its body; popping the marker
    means the walk leaves the binder's scope.
    """
    out: set[str] = set()
    bound: dict[str, int] = {}
    stack: list = [t]
    while stack:
        node = stack.pop()
        if node is _LEAVE:
            bound[stack.pop()] -= 1
        elif isinstance(node, VarApp):
            out.update(a for a in node.args if not bound.get(a))
        elif isinstance(node, RatioChoice):
            stack += (node.left, node.right)
        elif isinstance(node, ParamChoice):
            if not bound.get(node.param):
                out.add(node.param)
            stack += (node.left, node.right)
        elif isinstance(node, Nu):
            bound[node.param] = bound.get(node.param, 0) + 1
            stack += (node.param, _LEAVE, node.body)
        else:
            raise TermError(f"not a term: {node!r}")
    return frozenset(out)


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


@dataclass(frozen=True)
class Violation:
    """A single well-formedness defect, located by a path into the term."""

    path: Path
    message: str

    def __str__(self):
        return f"at {format_path(self.path)}: {self.message}"


def check_wellformed(ctx: Context, t: Term) -> list[Violation]:
    """Collect every scoping/arity/side-condition violation in ``t``.

    An empty list means the term is well-formed in ``ctx``.
    """
    out: list[Violation] = []

    def go(t: Term, scope: frozenset[str], path: Path) -> None:
        if isinstance(t, VarApp):
            arity = ctx.arity(t.var)
            if arity is None:
                out.append(Violation(path, f"unknown variable {t.var!r}"))
            elif arity != len(t.args):
                out.append(Violation(
                    path, f"variable {t.var!r} expects {arity} parameters, got {len(t.args)}"))
            for a in t.args:
                if a not in scope:
                    out.append(Violation(path, f"parameter {a!r} not in scope"))
        elif isinstance(t, RatioChoice):
            if t.i < 0 or t.j < 0:
                out.append(Violation(path, "ratio weights must be nonnegative"))
            if t.i + t.j <= 0:
                out.append(Violation(path, "ratio choice needs total weight i+j > 0"))
            go(t.left, scope, path + ("l",))
            go(t.right, scope, path + ("r",))
        elif isinstance(t, ParamChoice):
            if t.param not in scope:
                out.append(Violation(path, f"parameter {t.param!r} not in scope"))
            go(t.left, scope, path + ("l",))
            go(t.right, scope, path + ("r",))
        elif isinstance(t, Nu):
            if t.i < 1 or t.j < 1:
                out.append(Violation(
                    path, f"nu hyperparameters must be positive, got ({t.i},{t.j})"))
            if t.param in scope or t.param in ctx.all_names():
                out.append(Violation(path, f"binder {t.param!r} rebinds a name in scope"))
            go(t.body, scope | {t.param}, path + ("b",))
        else:
            out.append(Violation(path, f"not a term: {t!r}"))

    go(t, frozenset(ctx.params), ())
    return out


# ---------------------------------------------------------------------------
# Alpha-equivalence: compare bound parameters by binding depth.


def alpha_eq(t: Term, u: Term) -> bool:
    """True iff the terms differ only by renaming of bound parameters."""

    def go(t: Term, u: Term, env_t: dict, env_u: dict, depth: int) -> bool:
        if type(t) is not type(u):
            return False
        if isinstance(t, VarApp):
            if t.var != u.var or len(t.args) != len(u.args):
                return False
            return all(env_t.get(a, a) == env_u.get(b, b)
                       for a, b in zip(t.args, u.args))
        if isinstance(t, RatioChoice):
            return (t.i, t.j) == (u.i, u.j) and \
                go(t.left, u.left, env_t, env_u, depth) and \
                go(t.right, u.right, env_t, env_u, depth)
        if isinstance(t, ParamChoice):
            return env_t.get(t.param, t.param) == env_u.get(u.param, u.param) and \
                go(t.left, u.left, env_t, env_u, depth) and \
                go(t.right, u.right, env_t, env_u, depth)
        assert isinstance(t, Nu) and isinstance(u, Nu)
        if (t.i, t.j) != (u.i, u.j):
            return False
        return go(t.body, u.body,
                  {**env_t, t.param: depth}, {**env_u, u.param: depth}, depth + 1)

    return go(t, u, {}, {}, 0)


# ---------------------------------------------------------------------------
# Substitution of terms for variables, avoiding capture of free parameters.


def fresh_param(base: str, avoid) -> str:
    """Deterministic fresh name: smallest numeric suffix not in ``avoid``."""
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


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
    """Simultaneously substitute variables by parameterized replacement terms.

    ``bindings`` maps a variable name to ``(formals, replacement)``; an
    occurrence ``x(q1..qm)`` becomes the replacement with each formal mapped
    to the corresponding actual.  Binders in ``t`` are renamed (fresh numeric
    suffix) whenever they would capture a replacement's free parameter, or
    coincide with one of its bound names (keeps terms shadowing-free).
    """
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


# ---------------------------------------------------------------------------
# Concrete syntax.
#
#   term   := app | "rch[" NAT "," NAT "](" term "," term ")"
#           | "pch[" IDENT "](" term "," term ")"
#           | "nu[" NAT "," NAT "]" IDENT "." term
#   app    := IDENT | IDENT "(" IDENT ("," IDENT)* ")"
#   IDENT  := [A-Za-z][A-Za-z0-9_]*
#   NAT    := [0-9]+
#
# Whitespace (``str.isspace``, which is what ``\s`` matches) separates
# tokens; any other character outside these tokens is an error.

_TOKEN_RE = re.compile(rf"{_IDENT}|[0-9]+|[][(),.;:-]|(\S)")


class _Cursor:
    """The tokens of one text and a position in them.

    A token is ``(text, offset)``; its kind is read from its first
    character, and the end of input is ``("", len(src))``.  The whole text
    is scanned up front, so a bad character is reported before any syntax
    error that comes earlier in the text.
    """

    def __init__(self, src: str):
        self.src = src
        self.toks = []
        for m in _TOKEN_RE.finditer(src):
            tok = (m.group(), m.start())
            if m.lastindex:
                self.fail(f"unexpected character {tok[0]!r}", tok)
            self.toks.append(tok)
        self.toks.append(("", len(src)))
        self.pos = 0

    def peek(self) -> tuple[str, int]:
        return self.toks[self.pos]

    def next(self) -> tuple[str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple[str, int] | None = None):
        """Raise a :class:`ParseError` at ``tok`` (default: the next token)."""
        offset = (tok or self.peek())[1]
        line = self.src.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.src.rfind("\n", 0, offset))

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[0] != text:
            self.fail(f"expected {text!r}, found {tok[0] or 'end of input'!r}", tok)

    def expect_nat(self) -> int:
        tok = self.next()
        if not tok[0][:1].isdigit():
            self.fail(f"expected a number, found {tok[0] or 'end of input'!r}", tok)
        return int(tok[0])

    def expect_ident(self) -> tuple[str, int]:
        tok = self.next()
        if not tok[0][:1].isalpha():
            self.fail(f"expected an identifier, found {tok[0] or 'end of input'!r}", tok)
        return tok


def _term(cur: _Cursor, ctx: Context, scope: frozenset[str]) -> Term:
    tok = cur.peek()
    name = tok[0]
    if not name[:1].isalpha():
        cur.fail(f"expected a term, found {name or 'end of input'!r}")
    cur.next()
    if name == "rch":
        cur.expect("[")
        i = cur.expect_nat()
        cur.expect(",")
        j = cur.expect_nat()
        if i + j == 0:
            cur.fail("ratio choice needs total weight i+j > 0", tok)
        cur.expect("]")
        cur.expect("(")
        left = _term(cur, ctx, scope)
        cur.expect(",")
        right = _term(cur, ctx, scope)
        cur.expect(")")
        return RatioChoice(i, j, left, right)
    if name == "pch":
        cur.expect("[")
        p = cur.expect_ident()
        if p[0] not in scope:
            cur.fail(f"parameter {p[0]!r} not in scope", p)
        cur.expect("]")
        cur.expect("(")
        left = _term(cur, ctx, scope)
        cur.expect(",")
        right = _term(cur, ctx, scope)
        cur.expect(")")
        return ParamChoice(p[0], left, right)
    if name == "nu":
        cur.expect("[")
        i = cur.expect_nat()
        cur.expect(",")
        j = cur.expect_nat()
        if i < 1 or j < 1:
            cur.fail(f"nu binder needs positive hyperparameters, got ({i},{j})", tok)
        cur.expect("]")
        p = cur.expect_ident()
        if p[0] in RESERVED_WORDS:
            cur.fail(f"{p[0]!r} is a reserved word", p)
        if p[0] in scope or p[0] in ctx.all_names():
            cur.fail(f"binder {p[0]!r} rebinds a name in scope", p)
        cur.expect(".")
        body = _term(cur, ctx, scope | {p[0]})
        return Nu(i, j, p[0], body)
    # variable application
    if name in RESERVED_WORDS:
        cur.fail(f"{name!r} is a reserved word", tok)
    arity = ctx.arity(name)
    if arity is None:
        if name in scope:
            cur.fail(f"parameter {name!r} used as a term", tok)
        cur.fail(f"unknown variable {name!r}", tok)
    args: list[str] = []
    if cur.peek()[0] == "(":
        cur.next()
        if cur.peek()[0] != ")":
            while True:
                a = cur.expect_ident()
                if a[0] not in scope:
                    cur.fail(f"parameter {a[0]!r} not in scope", a)
                args.append(a[0])
                if cur.peek()[0] != ",":
                    break
                cur.next()
        cur.expect(")")
    if len(args) != arity:
        cur.fail(f"variable {name!r} expects {arity} parameters, got {len(args)}", tok)
    return VarApp(name, tuple(args))


def parse_term(src: str, ctx: Context) -> Term:
    """Parse a term against a context; raise :class:`ParseError` on defects."""
    cur = _Cursor(src)
    t = _term(cur, ctx, frozenset(ctx.params))
    if cur.peek()[0]:
        cur.fail(f"trailing input {cur.peek()[0]!r}")
    return t


def parse_context(src: str) -> Context:
    """Parse a context declaration like ``params: p, q ; vars: x:2, y:0``."""
    cur = _Cursor(src)

    def name_list(section):
        # '-' or empty means no entries
        out = []
        if cur.peek()[0] == "-":
            cur.next()
            return out
        while cur.peek()[0][:1].isalpha():
            tok = cur.next()
            if tok[0] in RESERVED_WORDS:
                cur.fail(f"{tok[0]!r} is a reserved word", tok)
            if section == "vars":
                arity = 0
                if cur.peek()[0] == ":":
                    cur.next()
                    if not cur.peek()[0][:1].isdigit():
                        cur.fail("expected an arity")
                    arity = cur.expect_nat()
                out.append((tok[0], arity))
            else:
                out.append(tok[0])
            if cur.peek()[0] != ",":
                break
            cur.next()
        return out

    cur.expect("params")
    cur.expect(":")
    params = name_list("params")
    cur.expect(";")
    cur.expect("vars")
    cur.expect(":")
    vars_ = name_list("vars")
    if cur.peek()[0]:
        cur.fail(f"trailing input {cur.peek()[0]!r}")
    try:
        return Context(tuple(params), tuple(vars_))
    except TermError as e:
        raise ParseError(str(e), 1, 1) from None


def format_term(t: Term) -> str:
    """Canonical text form; ``parse_term`` inverts it up to alpha-renaming."""
    if isinstance(t, VarApp):
        if not t.args:
            return t.var
        return f"{t.var}({','.join(t.args)})"
    if isinstance(t, RatioChoice):
        return f"rch[{t.i},{t.j}]({format_term(t.left)}, {format_term(t.right)})"
    if isinstance(t, ParamChoice):
        return f"pch[{t.param}]({format_term(t.left)}, {format_term(t.right)})"
    if isinstance(t, Nu):
        return f"nu[{t.i},{t.j}]{t.param}.{format_term(t.body)}"
    raise TermError(f"not a term: {t!r}")


def format_context(ctx: Context) -> str:
    params = ", ".join(ctx.params) if ctx.params else "-"
    vars_ = ", ".join(f"{v}:{m}" for v, m in ctx.vars) if ctx.vars else "-"
    return f"params: {params} ; vars: {vars_}"
