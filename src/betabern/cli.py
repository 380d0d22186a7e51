"""Command-line front end.

Subcommands: ``check``, ``normalize``, ``decide``, ``eval``, ``replay``,
``simulate``, ``paper-suite``.  Exit codes: 64 usage error, 65 malformed
input, 70 internal error; ``decide`` additionally exits 0 when equal and 1
when not.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__

# Each command imports the modules it runs, so that a call pays start-up
# only for its own command; every error that ``main`` maps to exit 65 is
# defined in ``terms``.
from .terms import (
    AxiomError,
    Context,
    PolyError,
    Term,
    TermError,
    format_term,
    parse_context,
    parse_term,
    require_wellformed,
)

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="betabern", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    # each command takes only the options it reads
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--context", help='context, e.g. "params: p ; vars: x:2, y:0"')
    base.add_argument("--no-banner", action="store_true",
                      help="suppress the version banner")
    terms = argparse.ArgumentParser(add_help=False, parents=[base])
    terms.add_argument("-t", "--term", action="append", default=[],
                       help="inline term (repeatable)")
    terms.add_argument("--term-file", action="append", default=[],
                       help="file holding one term (repeatable)")
    formatted = argparse.ArgumentParser(add_help=False, parents=[terms])
    formatted.add_argument("--format", choices=("text", "structured"), default="text")

    sub.add_parser("check", parents=[terms], help="well-formedness diagnostics")
    sub.add_parser("normalize", parents=[formatted], help="print the unique normal form")

    p_decide = sub.add_parser("decide", parents=[formatted], help="decide equality")
    p_decide.add_argument("--corpus", help="directory of .bbt files, two terms each")

    p_eval = sub.add_parser("eval", parents=[terms], help="evaluate on polynomial arguments")
    p_eval.add_argument("-a", "--arg", action="append", default=[],
                        help='argument, e.g. "f_x(a,b) = a*b + 1/2" (repeatable)')

    p_replay = sub.add_parser("replay", parents=[base], help="check a recorded derivation")
    p_replay.add_argument("--start", required=True, help="starting term")
    p_replay.add_argument("--end", required=True, help="expected final term")
    p_replay.add_argument("--steps", required=True, help="derivation file")

    p_sim = sub.add_parser("simulate", parents=[terms], help="Monte-Carlo vs exact distribution")
    p_sim.add_argument("--impl", choices=("polya", "betabern"), default="polya")
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)

    p_suite = sub.add_parser("paper-suite", help="run the golden example checks")
    p_suite.add_argument("--no-banner", action="store_true")

    return parser


@contextmanager
def _long_ints():
    """Lift Python's int-string limit while output is formatted.  Input
    numerals are capped by the parsers, but the weights derived from them
    may pass the limit, and they print in full."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _banner(opts) -> None:
    if not getattr(opts, "no_banner", False):
        print(f"betabern {__version__}")


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_context(opts) -> Context:
    if not opts.context:
        raise UsageError("--context is required for this command")
    return parse_context(opts.context)


def _gather_terms(opts, ctx: Context) -> list[Term]:
    texts = list(opts.term)
    for path in opts.term_file:
        texts.append(Path(path).read_text().strip())
    return [parse_term(text, ctx) for text in texts]


def _cmd_check(opts) -> int:
    ctx = _load_context(opts)
    terms = _gather_terms(opts, ctx)
    if not terms:
        raise UsageError("check needs at least one term")
    for t in terms:
        require_wellformed(ctx, t)
        print(f"ok: {format_term(t)}")
    return 0


def _cmd_normalize(opts) -> int:
    from .normalizer import format_normal_form, normal_form_to_dict, normalize

    ctx = _load_context(opts)
    terms = _gather_terms(opts, ctx)
    if len(terms) != 1:
        raise UsageError("normalize needs exactly one term")
    nf = normalize(ctx, terms[0])
    with _long_ints():
        if opts.format == "structured":
            _print_json(normal_form_to_dict(nf))
        else:
            print(format_normal_form(nf))
    return 0


def _read_corpus_file(path: Path, default_ctx: Context | None):
    lines = [line.strip() for line in path.read_text().splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    ctx = default_ctx
    if lines and lines[0].startswith("context:"):
        ctx = parse_context(lines.pop(0)[len("context:"):].strip())
    if ctx is None:
        raise UsageError(f"{path}: no context given (file header or --context)")
    if len(lines) != 2:
        raise TermError(f"{path}: expected exactly two terms, found {len(lines)}")
    return ctx, parse_term(lines[0], ctx), parse_term(lines[1], ctx)


@_long_ints()
def _print_verdict(ctx: Context, verdict, fmt: str, label: str = "") -> None:
    from .normalizer import normal_form_to_dict

    prefix = f"{label}: " if label else ""
    if fmt == "structured":
        payload = {
            "equal": verdict.equal,
            "left": normal_form_to_dict(verdict.left),
            "right": normal_form_to_dict(verdict.right),
        }
        if verdict.witness:
            payload["witness"] = {
                "index": list(verdict.witness.index),
                "column": verdict.witness.column,
                "chain": verdict.witness.chain.describe(ctx),
                "left_weight": verdict.witness.left_weight,
                "right_weight": verdict.witness.right_weight,
            }
        _print_json(payload)
        return
    print(f"{prefix}{'equal' if verdict.equal else 'not equal'} "
          f"(k={verdict.k}, n={verdict.n})")
    if verdict.witness:
        print(f"{prefix}witness: {verdict.witness.describe(ctx)}")


def _cmd_decide(opts) -> int:
    from .decide import equal

    if opts.corpus:
        default_ctx = parse_context(opts.context) if opts.context else None
        corpus = Path(opts.corpus)
        if not corpus.is_dir():
            raise TermError(f"corpus {opts.corpus!r} is not a directory")
        paths = sorted(corpus.glob("*.bbt"))
        if not paths:
            raise TermError(f"corpus {opts.corpus!r} has no .bbt files")
        status = 0
        for path in paths:
            ctx, t, u = _read_corpus_file(path, default_ctx)
            verdict = equal(ctx, t, u)
            _print_verdict(ctx, verdict, opts.format, label=path.name)
            if not verdict.equal:
                status = 1
        return status
    ctx = _load_context(opts)
    terms = _gather_terms(opts, ctx)
    if len(terms) != 2:
        raise UsageError("decide needs exactly two terms")
    verdict = equal(ctx, terms[0], terms[1])
    _print_verdict(ctx, verdict, opts.format)
    return 0 if verdict.equal else 1


def _parse_func_arg(text: str, ctx: Context):
    from .poly import NAME_RE, parse_poly
    from .semantics import FuncArg

    head, _, body = text.partition("=")
    if not body:
        raise PolyError(f"argument {text!r} needs the form 'f_<var>(formals) = poly'")
    head = head.strip()
    if not head.startswith("f_"):
        raise PolyError(f"argument head {head!r} must start with 'f_'")
    name = head[2:]
    formals: tuple[str, ...] = ()
    if "(" in name:
        name, _, rest = name.partition("(")
        if not rest.endswith(")"):
            raise PolyError(f"unbalanced formals in {head!r}")
        inner = rest[:-1].strip()
        formals = tuple(s.strip() for s in inner.split(",")) if inner else ()
        for formal in formals:
            if not NAME_RE.fullmatch(formal):
                raise PolyError(f"formal {formal!r} in {head!r} is not an identifier")
    arity = ctx.arity(name)
    if arity is None:
        raise PolyError(f"unknown variable {name!r} in argument")
    if len(formals) != arity:
        raise PolyError(f"variable {name!r} has arity {arity}, got {len(formals)} formals")
    poly = parse_poly(body.strip(), allowed_vars=set(formals))
    return name, FuncArg(formals, poly)


def _cmd_eval(opts) -> int:
    from .poly import format_poly
    from .semantics import interpret

    ctx = _load_context(opts)
    terms = _gather_terms(opts, ctx)
    if len(terms) != 1:
        raise UsageError("eval needs exactly one term")
    args = {}
    for text in opts.arg:
        name, arg = _parse_func_arg(text, ctx)
        if name in args:
            raise UsageError(f"repeated --arg for variable {name!r}")
        args[name] = arg
    missing = [name for name, _ in ctx.vars if name not in args]
    if missing:
        raise UsageError(f"missing --arg for variables: {', '.join(missing)}")
    value = interpret(ctx, terms[0], args)
    with _long_ints():
        print(format_poly(value))
    return 0


def _cmd_replay(opts) -> int:
    from .axioms import check_derivation, parse_derivation

    ctx = _load_context(opts)
    start = parse_term(opts.start, ctx)
    end = parse_term(opts.end, ctx)
    steps = parse_derivation(Path(opts.steps).read_text(), ctx)
    ok = check_derivation(ctx, start, steps, end)
    print("derivation ok" if ok else "derivation reaches a different term")
    return 0 if ok else 1


def _cmd_simulate(opts) -> int:
    from .simulate import compare

    ctx = _load_context(opts)
    terms = _gather_terms(opts, ctx)
    if len(terms) != 1:
        raise UsageError("simulate needs exactly one term")
    report = compare(ctx, terms[0], opts.trials, opts.seed, opts.impl)
    print(report)
    return 0 if report.passed else 1


def _cmd_paper_suite(opts) -> int:
    from .papersuite import run_paper_suite

    results = run_paper_suite()
    failures = 0
    for name, ok, detail in results:
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "check": _cmd_check,
    "normalize": _cmd_normalize,
    "decide": _cmd_decide,
    "eval": _cmd_eval,
    "replay": _cmd_replay,
    "simulate": _cmd_simulate,
    "paper-suite": _cmd_paper_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        opts = parser.parse_args(argv)
        if not opts.command:
            raise UsageError("a command is required (see --help)")
        _banner(opts)
        return _COMMANDS[opts.command](opts)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except (TermError, PolyError, AxiomError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_DATAERR
    except Exception as e:  # pragma: no cover - internal invariant failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
