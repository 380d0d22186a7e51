"""Abstract syntax for Beta-Bernoulli choice terms.

A term is one of:

* ``VarApp(x, (p, q))``      -- continuation variable applied to parameters
* ``RatioChoice(i, j, l, r)`` -- pick ``l`` with probability i/(i+j)
* ``ParamChoice(p, l, r)``    -- pick ``l`` with probability given by ``p``
* ``Nu(i, j, p, body)``       -- bind a fresh Beta(i, j)-distributed parameter

Terms live in a two-zone :class:`Context`: an ordered list of free
parameters and an ordered list of variables with arities.  Everything here
is immutable and operations are pure functions, so terms can be shared
freely between threads.  The nodes are frozen dataclasses with slots: a
field cannot be assigned, and a node's ``__init__`` fills its slots through
their descriptors.  One more slot, ``_parsed_in``, is set only on a root
that :func:`parse_term` returns, to the context object it was parsed in.
It has two readers: :func:`require_wellformed` trusts that root in that
context and walks every other term with :func:`check_wellformed`, and the
normalizer's fold takes a stamped root for a tree, as the parser builds
every node afresh, and skips counting each node's parents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from itertools import count

RESERVED_WORDS = frozenset({"rch", "pch", "nu", "params", "vars"})
# Python's default limit on int <-> str conversion, which is quadratic in
# length; input numerals are held to it whatever the interpreter's setting.
MAX_NUMERAL_DIGITS = 4300

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


# The errors of the polynomial parser and of derivation checking live here,
# next to the term errors, so that the CLI maps all of them to exit 65
# without importing ``poly`` or ``axioms``; those modules re-export them.


class PolyError(Exception):
    """Malformed polynomial or evaluation argument."""


class AxiomError(Exception):
    """Pattern mismatch or violated side condition in a rewrite step."""


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

    # set by parse_term, read by require_wellformed and by the normalizer's
    # fold, which takes a stamped root for a tree; a parser that shares nodes
    # (hash-consing) must revisit the fold and test_terms' TestParsedTree
    __slots__ = ("_parsed_in",)

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        # the dataclass repr, built with an explicit stack so deep terms print
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Term):
                out.append(item)
                continue
            parts = [f"{type(item).__name__}("]
            for f in fields(item):
                value = getattr(item, f.name)
                parts += (value if isinstance(value, Term) else repr(value), ", ")
            parts[-1] = ")"
            stack += reversed(parts)
        return "".join(out)

    def __eq__(self, other):
        """Same class and equal fields, compared with an explicit stack; a
        pair of nodes met again through shared subterms is compared once."""
        if type(other) is not type(self):
            return NotImplemented
        done: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            data, kids = _parts(a)
            data_b, kids_b = _parts(b)
            if data != data_b:
                return False
            if kids and (id(a), id(b)) not in done:
                done.add((id(a), id(b)))
                stack += zip(kids, kids_b)
        return True

    def __hash__(self):
        """A hash of the class and fields, built bottom-up once per node
        object."""
        hashes: dict[int, int] = {}
        stack = [self]
        while stack:
            node = stack[-1]
            data, kids = _parts(node)
            todo = [k for k in kids if id(k) not in hashes]
            if todo:
                stack += todo
                continue
            stack.pop()
            hashes[id(node)] = hash((type(node), data, tuple([hashes[id(k)] for k in kids])))
        return hashes[id(self)]


# The frozen ``__setattr__`` refuses every assignment, so a node's
# ``__init__`` fills its slots through the descriptor setters bound below.


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class VarApp(Term):
    var: str
    args: tuple[str, ...] = ()

    def __init__(self, var: str, args: tuple[str, ...] = ()):
        set_var, set_args = _VARAPP
        set_var(self, var)
        set_args(self, args)


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class RatioChoice(Term):
    i: int
    j: int
    left: Term
    right: Term

    def __init__(self, i: int, j: int, left: Term, right: Term):
        set_i, set_j, set_left, set_right = _RATIO
        set_i(self, i)
        set_j(self, j)
        set_left(self, left)
        set_right(self, right)


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class ParamChoice(Term):
    param: str
    left: Term
    right: Term

    def __init__(self, param: str, left: Term, right: Term):
        set_param, set_left, set_right = _PARAM
        set_param(self, param)
        set_left(self, left)
        set_right(self, right)


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Nu(Term):
    i: int
    j: int
    param: str
    body: Term

    def __init__(self, i: int, j: int, param: str, body: Term):
        set_i, set_j, set_param, set_body = _NU
        set_i(self, i)
        set_j(self, j)
        set_param(self, param)
        set_body(self, body)


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_VARAPP, _RATIO, _PARAM, _NU = map(_slot_setters, (VarApp, RatioChoice, ParamChoice, Nu))
_stamp = Term._parsed_in.__set__


def _parts(t: Term) -> tuple[tuple, tuple]:
    """A node's own fields and its subterms."""
    cls = type(t)
    if cls is VarApp:
        return (t.var, t.args), ()
    if cls is Nu:
        return (t.i, t.j, t.param), (t.body,)
    if cls is RatioChoice:
        return (t.i, t.j), (t.left, t.right)
    if cls is ParamChoice:
        return (t.param,), (t.left, t.right)
    # not a node: a bare Term is compared and hashed by identity, any
    # other object as a value
    return ((id(t),) if isinstance(t, Term) else (t,)), ()


_DONE = object()  # postorder's stack marker: the node below it is complete


def postorder(*roots: Term) -> list[Term]:
    """Every node under ``roots`` once, children before parents."""
    out: list[Term] = []
    seen: set[int] = set()
    stack: list = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is _DONE:
            out.append(stack.pop())
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = type(node)
        if kind is RatioChoice or kind is ParamChoice:
            stack += (node, _DONE, node.right, node.left)
        elif kind is Nu:
            stack += (node, _DONE, node.body)
        elif kind is VarApp:
            out.append(node)
        else:
            raise TermError(f"not a term: {node!r}")
    return out


# ---------------------------------------------------------------------------
# Paths into terms.  Selectors: "l"/"r" pick a choice branch, "b" enters a
# nu body.  The empty path is the root.

Path = tuple[str, ...]


_FIELD = {"l": "left", "r": "right", "b": "body"}  # selector -> node field


def child(t: Term, sel: str) -> Term:
    try:  # only choices have ``left``/``right`` and only binders ``body``
        return getattr(t, _FIELD[sel])
    except (KeyError, AttributeError):
        raise TermError(f"selector {sel!r} does not apply to {type(t).__name__}") from None


def subterm_at(t: Term, path: Path) -> Term:
    for sel in path:
        t = child(t, sel)
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    """``t`` with the subterm at ``path`` replaced by ``new``: a walk down the
    path, then one ``replace`` per node on the way back up."""
    spine = []
    for sel in path:
        spine.append(t)
        t = child(t, sel)
    for node, sel in zip(reversed(spine), reversed(path)):
        new = replace(node, **{_FIELD[sel]: new})
    return new


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


_LEAVE = object()  # stack marker: a binder's name goes out of scope


def free_params(t: Term) -> frozenset[str]:
    """Parameters occurring free in choice subscripts or variable arguments.

    One walk with an explicit stack.  A binder pushes its name and a marker
    below its body; popping the marker means the walk leaves the binder's
    scope.  As in :func:`check_wellformed`, a choice or binder node object
    reached again in the same binder scope is not walked again.
    """
    out: set[str] = set()
    bound: dict[str, int] = {}
    scopes, serial = [0], count(1)  # serial numbers of the open binder scopes
    seen: dict[int, int] = {}  # node id -> scope it was walked in
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is VarApp:
            out.update(a for a in node.args if not bound.get(a))
        elif node is _LEAVE:
            bound[stack.pop()] -= 1
            scopes.pop()
        elif cls is not RatioChoice and cls is not ParamChoice and cls is not Nu:
            raise TermError(f"not a term: {node!r}")
        elif seen.get(id(node)) != scopes[-1]:
            seen[id(node)] = scopes[-1]
            if cls is Nu:
                bound[node.param] = bound.get(node.param, 0) + 1
                scopes.append(next(serial))
                stack += (node.param, _LEAVE, node.body)
                continue
            if cls is ParamChoice and not bound.get(node.param):
                out.add(node.param)
            stack += (node.left, node.right)
    return frozenset(out)


def all_params(t: Term) -> frozenset[str]:
    """Every parameter name occurring in ``t``, free or bound: one pass over
    :func:`postorder`, so a shared subterm is read once."""
    out: set[str] = set()
    for node in postorder(t):
        if type(node) is VarApp:
            out.update(node.args)
        elif type(node) is not RatioChoice:
            out.add(node.param)
    return frozenset(out)


@dataclass(frozen=True)
class Violation:
    """A single well-formedness defect, located by a path into the term."""

    path: Path
    message: str

    def __str__(self):
        return f"at {format_path(self.path)}: {self.message}"


def _spell(link) -> Path:
    """The path of a ``(parent link, selector)`` chain; the root is ``()``."""
    sels = []
    while link:
        link, sel = link
        sels.append(sel)
    return tuple(reversed(sels))


def check_wellformed(ctx: Context, t: Term) -> list[Violation]:
    """Collect every scoping/arity/side-condition violation in ``t``, in
    pre-order, left branch first.

    An empty list means the term is well-formed in ``ctx``.  One walk with
    an explicit stack; a node's path is kept as a link to its parent's until
    a violation spells it out.  A choice or binder node object reached again
    in the same binder scope, with no violation found so far, is not walked
    again: its first walk found none, so a term that shares subterms (a
    reified normal form) is checked in time linear in its distinct nodes.
    """
    out: list[tuple] = []
    arity = dict(ctx.vars)
    scope = set(ctx.params)
    here, opened, outer = 0, 0, []  # serial numbers of the open binder scopes
    seen: dict[int, int] = {}  # node id -> scope it was walked in
    stack: list = [(t, ())]
    while stack:
        t, link = stack.pop()
        cls = type(t)
        if cls is VarApp:
            m = arity.get(t.var)
            if m is None:
                out.append((link, f"unknown variable {t.var!r}"))
            elif m != len(t.args):
                out.append((link, f"variable {t.var!r} expects {m} parameters, got {len(t.args)}"))
            for a in t.args:
                if a not in scope:
                    out.append((link, f"parameter {a!r} not in scope"))
        elif t is _LEAVE:
            scope.remove(link)
            here = outer.pop()
        elif cls is not RatioChoice and cls is not ParamChoice and cls is not Nu:
            out.append((link, f"not a term: {t!r}"))
        elif seen.get(id(t)) != here or out:
            seen[id(t)] = here
            if cls is Nu:
                if t.i < 1 or t.j < 1:
                    out.append((link, f"nu hyperparameters must be positive, got ({t.i},{t.j})"))
                if t.param in RESERVED_WORDS:
                    out.append((link, f"binder {t.param!r} is a reserved word"))
                if t.param in scope or t.param in arity:
                    out.append((link, f"binder {t.param!r} rebinds a name in scope"))
                if t.param not in scope:  # in scope for the body only
                    scope.add(t.param)
                    outer.append(here)
                    opened += 1
                    here = opened
                    stack.append((_LEAVE, t.param))
                stack.append((t.body, (link, "b")))
                continue
            if cls is RatioChoice:
                if t.i < 0 or t.j < 0:
                    out.append((link, "ratio weights must be nonnegative"))
                if t.i + t.j <= 0:
                    out.append((link, "ratio choice needs total weight i+j > 0"))
            elif t.param not in scope:
                out.append((link, f"parameter {t.param!r} not in scope"))
            stack += ((t.right, (link, "r")), (t.left, (link, "l")))
    return [Violation(_spell(link), message) for link, message in out]


def require_wellformed(ctx: Context, t: Term) -> None:
    """Raise :class:`TermError` unless ``t`` is well-formed in ``ctx``.

    A root that :func:`parse_term` returned for this very ``ctx`` object is
    taken as it is: the parser refuses every violation that
    :func:`check_wellformed` reports, and nodes are immutable.  Any other
    term, its subterms and copies included, is checked in full.
    """
    if getattr(t, "_parsed_in", None) is ctx:
        return
    bad = check_wellformed(ctx, t)
    if bad:
        raise TermError(f"term ill-formed: {bad[0]}")


# ---------------------------------------------------------------------------
# Alpha-equivalence: compare bound parameters by binding depth.


def alpha_eq(t: Term, u: Term) -> bool:
    """True iff the terms differ only by renaming of bound parameters.

    One walk over both terms with an explicit stack of pairs.  Each side
    maps a bound name to the depth of its binder; a binder pair sets its
    names for its bodies and a ``_LEAVE`` entry below them restores them.
    As in :func:`check_wellformed`, a pair of choice or binder node objects
    reached again in the same binder scope is not compared again.
    """
    env_t: dict[str, object] = {}  # a free name maps to itself, if at all
    env_u: dict[str, object] = {}
    scopes, serial = [0], count(1)  # serial numbers of the open binder scopes
    seen: dict[tuple[int, int], int] = {}  # node ids -> scope compared in
    stack: list = [(t, u)]
    while stack:
        t, u = stack.pop()
        cls = type(t)
        if t is _LEAVE:
            p, old_p, q, old_q = u
            env_t[p], env_u[q] = old_p, old_q
            scopes.pop()
        elif cls is not type(u):
            return False
        elif cls is VarApp:
            if t.var != u.var or len(t.args) != len(u.args) or any(
                    env_t.get(a, a) != env_u.get(b, b) for a, b in zip(t.args, u.args)):
                return False
        elif cls is not RatioChoice and cls is not ParamChoice and cls is not Nu:
            raise TermError(f"not a term: {t!r}")
        elif seen.get((id(t), id(u))) != scopes[-1]:
            seen[(id(t), id(u))] = scopes[-1]
            if cls is Nu:
                if (t.i, t.j) != (u.i, u.j):
                    return False
                p, q = t.param, u.param
                stack += ((_LEAVE, (p, env_t.get(p, p), q, env_u.get(q, q))), (t.body, u.body))
                env_t[p] = env_u[q] = len(scopes)
                scopes.append(next(serial))
                continue
            if cls is RatioChoice:
                same = (t.i, t.j) == (u.i, u.j)
            else:
                same = env_t.get(t.param, t.param) == env_u.get(u.param, u.param)
            if not same:
                return False
            stack += ((t.right, u.right), (t.left, u.left))
    return True


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
    return _rewrite(t, {k: v for k, v in mapping.items() if k != v}, {}, frozenset())


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
    return _rewrite(t, {}, bindings, frozenset(inject))


def _rewrite(t: Term, env: dict[str, str], bindings, inject: frozenset[str]) -> Term:
    """Rename the free parameters of ``t`` by ``env`` and substitute its
    variables by ``bindings`` in one walk with an explicit stack.  A binder
    is freshened when ``env`` maps a name onto it or, with bindings, when it
    is in ``inject``; its body is walked with its name mapped to the fresh
    one.  With bindings, ``env`` renames no binder, so a body's names once
    renamed are its own and the images of its free names (the names mapped
    away are in ``inject``).  An entry ``(constructor, fields, count)`` builds a node
    from the last ``count`` terms done."""
    done: list[Term] = []
    stack: list = [(t, env, bindings)]
    while stack:
        t, env, binds = stack.pop()
        if isinstance(t, type):
            done[-binds:] = [t(*env, *done[-binds:])]
        elif not env and not binds:
            done.append(t)
        elif isinstance(t, VarApp):
            app = VarApp(t.var, tuple(env.get(a, a) for a in t.args))
            if t.var not in binds:
                done.append(app)
                continue
            formals, rep = binds[t.var]
            if len(formals) != len(app.args):
                raise SubstitutionError(
                    f"occurrence {app} has {len(app.args)} arguments but the "
                    f"replacement declares {len(formals)} formals")
            actual = dict(zip(formals, app.args))
            stack.append((rep, {f: a for f, a in actual.items() if f != a}, {}))
        elif isinstance(t, (RatioChoice, ParamChoice)):
            head = (t.i, t.j) if isinstance(t, RatioChoice) else (env.get(t.param, t.param),)
            stack += ((type(t), head, 2), (t.right, env, binds), (t.left, env, binds))
        elif isinstance(t, Nu):
            p = t.param
            env = {k: v for k, v in env.items() if k != p}
            if p in env.values():
                env[p] = fresh_param(p, set(env) | set(env.values()) | all_params(t.body))
            elif binds and p in inject:
                free = free_params(t.body) & env.keys()
                env[p] = fresh_param(p, inject | all_params(t.body) | {env[a] for a in free})
            stack += ((Nu, (t.i, t.j, env.get(p, p)), 1), (t.body, env, binds))
        else:
            raise TermError(f"not a term: {t!r}")
    return done[0]


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
# tokens; any other character outside these tokens is an error.  Tokens are
# plain strings; their offsets in the text are found only to report an error.

_TOKEN_RE = re.compile(rf"{_IDENT}|[0-9]+|[][(),.;:-]|\S")
# A character no token takes: one outside every token, or an underscore
# that no letter precedes in its run of ``[A-Za-z0-9_]`` (an identifier
# takes the rest of its run, a numeral only digits).  The match ends at it.
# ``_ODD_RE``, a plain character set, finds the first such character or
# underscore; only an underscore needs the slower ``_BAD_RE``.
_ODD_RE = re.compile(r"[^\sA-Za-z0-9\][(),.;:-]")
_BAD_RE = re.compile(r"[^\sA-Za-z0-9_\][(),.;:-]|(?<![A-Za-z0-9_])[0-9]*_")
# A numeral token over the limit: a digit run that starts a run of
# ``[A-Za-z0-9_]``; a digit run inside an identifier is part of it.
_LONG_RE = re.compile(rf"(?<![A-Za-z0-9_])[0-9]{{{MAX_NUMERAL_DIGITS + 1},}}")


class _Cursor:
    """The tokens of one text, and errors located at one of them.

    A token is a string from one ``findall``, its kind read from its first
    character; ``""`` ends the list.  :meth:`fail` scans the text again for
    the failing token's offset.  Two searches of the whole text come first,
    for a bad character and then for a numeral over the limit, so these are
    reported before any earlier syntax error.
    """

    def __init__(self, src: str):
        self.src = src
        bad = _ODD_RE.search(src)
        if bad and bad.group() == "_":
            bad = _BAD_RE.search(src)
        if bad:
            self._fail_at(f"unexpected character {src[bad.end() - 1]!r}", bad.end() - 1)
        long = _LONG_RE.search(src)
        if long:
            self._fail_at(f"numeral of {long.end() - long.start()} digits exceeds the limit "
                          f"of {MAX_NUMERAL_DIGITS}", long.start())
        self.toks = _TOKEN_RE.findall(src)
        self.toks.append("")

    def fail(self, message: str, k: int):
        """Raise a :class:`ParseError` at token ``k``."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.src)]
        self._fail_at(message, starts[k] if k < len(starts) else len(self.src))

    def _fail_at(self, message: str, offset: int):
        line = self.src.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.src.rfind("\n", 0, offset))

    def expected(self, what: str, k: int):
        self.fail(f"expected {what}, found {self.toks[k] or 'end of input'!r}", k)


def parse_term(src: str, ctx: Context) -> Term:
    """Parse a term against a context; raise :class:`ParseError` on defects.

    One loop over the tokens with an explicit stack of frames: ``(Nu, i, j,
    p)`` awaits a body, ``(constructor, fields)`` a left branch and
    ``(constructor, fields, left)`` a right one.  A binder's name is in the
    scope set until its body closes; rebinding a name in scope is an error.
    The parser refuses every violation that :func:`check_wellformed`
    reports, so the root it returns is stamped with ``ctx`` for
    :func:`require_wellformed`.
    """
    cur = _Cursor(src)
    toks, fail, expected = cur.toks, cur.fail, cur.expected
    arity = dict(ctx.vars)
    scope = set(ctx.params)
    stack: list = []
    pos = 0
    while True:
        tok = toks[pos]
        m = arity.get(tok)
        if m is not None:  # variable application
            k = pos + 1
            args = []
            if toks[k] == "(":
                k += 1
                while toks[k] != ")" or args:  # after a ',' an argument must follow
                    a = toks[k]
                    if a not in scope:
                        if not a[:1].isalpha():
                            expected("an identifier", k)
                        fail(f"parameter {a!r} not in scope", k)
                    args.append(a)
                    k += 1
                    if toks[k] != ",":
                        break
                    k += 1
                if toks[k] != ")":
                    expected("')'", k)
                k += 1
            if len(args) != m:
                fail(f"variable {tok!r} expects {m} parameters, got {len(args)}", pos)
            t = VarApp(tok, tuple(args))
            pos = k
        elif tok == "rch" or tok == "pch" or tok == "nu":
            if toks[pos + 1] != "[":
                expected("'['", pos + 1)
            if tok == "pch":
                p = toks[pos + 2]
                if p not in scope:
                    if not p[:1].isalpha():
                        expected("an identifier", pos + 2)
                    fail(f"parameter {p!r} not in scope", pos + 2)
                fields = (p,)
                k = pos + 3
            else:
                if not toks[pos + 2].isdigit():
                    expected("a number", pos + 2)
                if toks[pos + 3] != ",":
                    expected("','", pos + 3)
                if not toks[pos + 4].isdigit():
                    expected("a number", pos + 4)
                i, j = int(toks[pos + 2]), int(toks[pos + 4])
                if tok == "rch" and i + j == 0:
                    fail("ratio choice needs total weight i+j > 0", pos)
                if tok == "nu" and (i < 1 or j < 1):
                    fail(f"nu binder needs positive hyperparameters, got ({i},{j})", pos)
                fields = (i, j)
                k = pos + 5
            if toks[k] != "]":
                expected("']'", k)
            if tok == "nu":
                p = toks[k + 1]
                if not p[:1].isalpha():
                    expected("an identifier", k + 1)
                if p in RESERVED_WORDS:
                    fail(f"{p!r} is a reserved word", k + 1)
                if p in scope or p in arity:
                    fail(f"binder {p!r} rebinds a name in scope", k + 1)
                if toks[k + 2] != ".":
                    expected("'.'", k + 2)
                scope.add(p)
                stack.append((Nu, i, j, p))
                pos = k + 3
            else:
                if toks[k + 1] != "(":
                    expected("'('", k + 1)
                stack.append((RatioChoice if tok == "rch" else ParamChoice, fields))
                pos = k + 2
            continue
        else:
            if not tok[:1].isalpha():
                expected("a term", pos)
            if tok in RESERVED_WORDS:
                fail(f"{tok!r} is a reserved word", pos)
            if tok in scope:
                fail(f"parameter {tok!r} used as a term", pos)
            fail(f"unknown variable {tok!r}", pos)
        # ``t`` is complete: close the frames it completes
        while stack:
            frame = stack.pop()
            if frame[0] is Nu:
                scope.remove(frame[3])
                t = Nu(frame[1], frame[2], frame[3], t)
            elif len(frame) == 2:
                if toks[pos] != ",":
                    expected("','", pos)
                stack.append((*frame, t))
                pos += 1
                break
            else:
                if toks[pos] != ")":
                    expected("')'", pos)
                t = frame[0](*frame[1], frame[2], t)
                pos += 1
        else:
            if toks[pos]:
                fail(f"trailing input {toks[pos]!r}", pos)
            _stamp(t, ctx)
            return t


def parse_context(src: str) -> Context:
    """Parse a context declaration like ``params: p, q ; vars: x:2, y:0``."""
    cur = _Cursor(src)
    toks = cur.toks
    zones: list[list] = []
    k = 0
    for want in ("params", ":", None, ";", "vars", ":", None):  # None: a name list
        if want is not None:
            if toks[k] != want:
                cur.expected(repr(want), k)
            k += 1
            continue
        zones.append([])
        if toks[k] == "-":  # '-' or nothing means no entries
            k += 1
            continue
        while toks[k][:1].isalpha():
            name = toks[k]
            if name in RESERVED_WORDS:
                cur.fail(f"{name!r} is a reserved word", k)
            k += 1
            if len(zones) == 2:  # a variable, with its arity
                arity = 0
                if toks[k] == ":":
                    if not toks[k + 1].isdigit():
                        cur.fail("expected an arity", k + 1)
                    arity = int(toks[k + 1])
                    k += 2
                name = (name, arity)
            zones[-1].append(name)
            if toks[k] != ",":
                break
            k += 1
    if toks[k]:
        cur.fail(f"trailing input {toks[k]!r}", k)
    try:
        return Context(tuple(zones[0]), tuple(zones[1]))
    except TermError as e:
        raise ParseError(str(e), 1, 1) from None


_SEP, _CLOSE = object(), object()  # format_term's stack markers for ", " and ")"


def format_term(t: Term) -> str:
    """Canonical text form; ``parse_term`` inverts it up to alpha-renaming.
    One walk with an explicit stack, so no recursion limit applies."""
    out = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if t is _SEP or t is _CLOSE:
            out.append(", " if t is _SEP else ")")
        elif isinstance(t, VarApp):
            out.append(f"{t.var}({','.join(t.args)})" if t.args else t.var)
        elif isinstance(t, (RatioChoice, ParamChoice)):
            out.append(f"rch[{t.i},{t.j}](" if isinstance(t, RatioChoice) else f"pch[{t.param}](")
            stack += (_CLOSE, t.right, _SEP, t.left)
        elif isinstance(t, Nu):
            out.append(f"nu[{t.i},{t.j}]{t.param}.")
            stack.append(t.body)
        else:
            raise TermError(f"not a term: {t!r}")
    return "".join(out)


def format_context(ctx: Context) -> str:
    params = ", ".join(ctx.params) if ctx.params else "-"
    vars_ = ", ".join(f"{v}:{m}" for v, m in ctx.vars) if ctx.vars else "-"
    return f"params: {params} ; vars: {vars_}"
