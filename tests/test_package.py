"""The package's public surface: every exported name, resolved on first use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


# The stage 1-2 term rewrites, which only tests and the benchmark's tracer
# call; no command reaches them.
RECURSIVE = {"normalizer.push_nu_to_leaves.go", "normalizer._raise", "normalizer._nu_expand"}


# the fields of a statement that hold statements, where a def may sit
BLOCKS = ("body", "orelse", "handlers", "finalbody")


def call_graph(package: str) -> dict[str, set[str]]:
    """Each function of the package's modules, nested ones included, by
    qualified name, and the functions its body names.

    A bare name resolves through the enclosing functions, the module and
    its ``from .module import`` names; ``module.f`` through a sibling module
    imported whole.  ``x.m`` names every method ``m`` of the package, but
    a method reaches itself this way only through ``self`` or ``cls``.
    Without types, ``self.chain.describe`` in ``Witness.describe`` would
    otherwise be a cycle; the price is that recursion through another
    instance of the one class that defines ``m`` goes unseen.
    """
    defs, methods, imports, modules = {}, {}, {}, {}
    for path in sorted(Path(package).glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module:
                        imports[mod, name] = f"{node.module}.{alias.name}"
                    else:
                        modules[mod, name] = alias.name
        todo = [(tree.body, mod, (), False)]
        while todo:
            body, prefix, scopes, in_class = todo.pop()
            for node in body:
                if isinstance(node, ast.FunctionDef):
                    qual = f"{prefix}.{node.name}"
                    defs[qual] = (node, mod, (*scopes, qual))
                    if in_class:
                        methods.setdefault(node.name, set()).add(qual)
                    todo.append((node.body, qual, (*scopes, qual), False))
                elif isinstance(node, ast.ClassDef):
                    todo.append((node.body, f"{prefix}.{node.name}", scopes, True))
                else:
                    parts = (getattr(node, f, None) for f in BLOCKS)
                    todo += [(part, prefix, scopes, in_class) for part in parts
                             if isinstance(part, list)]

    def resolve(node, mod, scopes):
        if isinstance(node, ast.Name):
            for qual in (*(f"{s}.{node.id}" for s in reversed(scopes)), f"{mod}.{node.id}",
                         imports.get((mod, node.id))):
                if qual in defs:
                    return {qual}
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if (mod, owner) in modules:
                return {f"{modules[mod, owner]}.{node.attr}"} & defs.keys()
            own = set() if owner in ("self", "cls") else {scopes[-1]}
            return methods.get(node.attr, set()) - own
        return set()

    graph = {}
    for qual, (fn, mod, scopes) in defs.items():
        graph[qual] = out = set()
        todo = [*fn.body, *fn.args.defaults, *fn.args.kw_defaults]
        while todo:
            node = todo.pop()
            if node is None or isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if isinstance(getattr(node, "ctx", None), ast.Load):
                out |= resolve(node, mod, scopes)
            todo.extend(ast.iter_child_nodes(node))
    return graph


def test_no_recursion_outside_the_stage_rewrites():
    # every command path walks with its own stack, so no input is refused
    # for its depth; a function that can reach itself would bring a limit back
    graph = call_graph(os.path.dirname(betabern.__file__))
    on_cycle = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(graph[node])
        if start in seen:
            on_cycle.add(start)
    assert on_cycle == RECURSIVE
