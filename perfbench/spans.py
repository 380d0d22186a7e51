"""Spans around the program's public functions, recorded from outside.

:meth:`Tracer.install` replaces each traced function at every module
attribute that holds it (``decide.join_normalize``, ``cli.equal``,
``simulate.normalize`` and so on), so calls the program makes to itself
are traced too.  A recursive function gets a span only for its outermost
call.  Spans are kept in memory as ``[name, start, end, parent, op]`` and
written out once at the end; a layer's self time is its spans' duration
minus that of their children.  Counts are taken at the same boundaries,
inside child spans named ``trace.count`` so that their cost is charged
to no layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

COUNT_SPAN = "trace.count"


def tree_nodes(t, tip_types) -> tuple[int, int]:
    """(nodes, chain tips) of a program term, walked as a tree.

    Shared subterms count once per path, as the normalizer walks them;
    ratio branches of weight 0 are skipped, as its leaf tables skip them.
    A tip is a variable application or a binder at a choice position.
    """
    nodes = tips = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, tip_types):
            tips += 1
            nodes += 1
            while hasattr(node, "body"):
                node = node.body
                nodes += 1
            continue
        nodes += 1
        if getattr(node, "i", 1):
            stack.append(node.left)
        if getattr(node, "j", 1):
            stack.append(node.right)
    return nodes, tips


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, fn, *args) -> None:
        """Run a counting function inside a ``trace.count`` span."""
        idx = self.open(COUNT_SPAN)
        try:
            fn(*args)
        finally:
            self.close(idx)

    def wrap(self, name, fn, after=None, recursive=False, name_of=None):
        """A traced stand-in for ``fn``; ``after(result, args, kwargs)``
        records counts, ``name_of(args, kwargs)`` picks the span name."""
        tracer = self

        def traced(*args, **kwargs):
            if recursive and tracer.active[name]:
                return fn(*args, **kwargs)
            span = name_of(args, kwargs) if name_of else name
            tracer.active[name] += 1
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.active[name] -= 1
            if after is not None:
                tracer.count(after, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions of the imported ``betabern`` modules."""
        from betabern import decide, normalizer, poly, semantics, simulate, terms

        tip_types = (terms.VarApp, terms.Nu)

        def add(key, result):
            self.counts[key] += result

        def nodes_out(key, paths_key=None):
            def after(result, args, kwargs):
                nodes, tips = tree_nodes(result, tip_types)
                add(key, nodes)
                if paths_key:
                    add(paths_key, tips)
            return after

        def forms(result, args, kwargs):
            for nf in result if isinstance(result, tuple) else (result,):
                add("normalizer.grid_cells", len(nf.weights))
                add("normalizer.chains", len(nf.chains))

        def trials(result, args, kwargs):
            add("simulate.trials", sum(result.values()))

        def impl_name(args, kwargs):
            impl = kwargs["impl"] if "impl" in kwargs else args[4]
            return f"simulate.{impl}"

        plan = [
            (terms.parse_term, dict(name="terms.parse")),
            (terms.check_wellformed, dict(name="terms.check_wellformed")),
            (normalizer.push_nu_to_leaves,
             dict(name="normalizer.push", recursive=True,
                  after=nodes_out("normalizer.push.nodes_out"))),
            (normalizer.raise_level,
             dict(name="normalizer.raise",
                  after=nodes_out("normalizer.raise.nodes_out", "normalizer.paths"))),
            (normalizer.normalize, dict(name="normalizer.tables", after=forms)),
            (normalizer.join_normalize, dict(name="normalizer.tables", after=forms)),
            (normalizer.reify, dict(name="normalizer.reify")),
            (decide.equal, dict(name="decide.compare")),
            (semantics.functional_eq, dict(name="semantics.sweep")),
            (semantics.functional_eq_sampled, dict(name="semantics.sampled")),
            (simulate.estimate,
             dict(name="simulate.sampler", name_of=impl_name, after=trials)),
        ]
        replace = {id(fn): self.wrap(fn=fn, **opts) for fn, opts in plan}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "betabern" or mod_name.startswith("betabern."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace and callable(value):
                        setattr(mod, attr, replace[id(value)])

        zero_args = semantics.zero_args

        def counted_zero_args(ctx):
            if self.active["semantics.sweep"]:
                self.counts["semantics.sweep.args"] += 1
            return zero_args(ctx)

        semantics.zero_args = counted_zero_args

        make = poly.Poly.make

        def counted_make(vars, terms):
            self.counts["poly.make.calls"] += 1
            return make(vars, terms)

        poly.Poly.make = staticmethod(counted_make)

        tracer = self
        chi2 = simulate.chi2

        class TimedChi2:
            def ppf(self, *args, **kwargs):
                idx = tracer.open("simulate.chi2")
                try:
                    return chi2.ppf(*args, **kwargs)
                finally:
                    tracer.close(idx)

        simulate.chi2 = TimedChi2()

    def self_times(self) -> Counter:
        """Seconds per span name, each span less its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
