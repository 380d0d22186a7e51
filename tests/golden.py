"""Golden digests of normal forms and verdicts, one sha256 per group.

    python tests/golden.py          # recompute every group, report matches
    python tests/golden.py --write  # rewrite tests/golden.json

Run from the root of a checkout with ``src`` on ``PYTHONPATH``.  Each
group rebuilds its records from seeds, with no download:

* ``decide-ground`` and ``decide-params``: every pair of seeds 1-3 that
  ``perfbench/workloads.py`` builds, decided in both directions;
* ``termgen``: 300 ``tests/termgen.py`` terms, 100 in each of its three
  contexts, normalized at the least and at a larger depth and level, and
  decided against the previous term of their context and against their
  own reified form.

A record is a verdict's two forms as ``normal_form_to_dict``, the verdict
and ``Witness.describe``, or a lone form; each is hashed as compact sorted
JSON, one line per record.  ``tests/test_golden.py`` recomputes the
digests and compares them with the stored ones, so any change to a normal
form, a verdict or a witness shows as a changed digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from betabern import equal, normal_form_to_dict, normalize, parse_context, parse_term, reify

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
SEEDS = (1, 2, 3)
TERMS_PER_CONTEXT = 100


class _Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.records = 0

    def add(self, record) -> None:
        self.sha.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        self.sha.update(b"\n")
        self.records += 1

    def verdict(self, ctx, t, u) -> None:
        v = equal(ctx, t, u)
        self.add({"left": normal_form_to_dict(v.left), "right": normal_form_to_dict(v.right),
                  "equal": v.equal,
                  "witness": v.witness.describe(ctx) if v.witness else None})


def _workload(name: str) -> _Digest:
    """Every pair the benchmark builds for ``name`` on seeds 1-3, both ways."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import workloads

    out = _Digest()
    for seed in SEEDS:
        for op in workloads.WORKLOADS[name](random.Random(f"{name}:{seed}")):
            ctx = parse_context(op.ctx)
            a, b = (parse_term(text, ctx) for text in op.texts)
            out.verdict(ctx, a, b)
            out.verdict(ctx, b, a)
    return out


def _termgen() -> _Digest:
    from termgen import CONTEXTS, gen_term

    out = _Digest()
    rng = random.Random("golden:termgen")
    for ctx in CONTEXTS:
        previous = None
        for _ in range(TERMS_PER_CONTEXT):
            t = gen_term(rng, ctx, rng.randint(3, 40), weight_max=4)
            nf = normalize(ctx, t)
            out.add(normal_form_to_dict(nf))
            out.add(normal_form_to_dict(normalize(ctx, t, k=nf.k + 1, n=nf.n + 1)))
            out.verdict(ctx, reify(nf), t)
            if previous is not None:
                out.verdict(ctx, t, previous)
            previous = t
    return out


GROUPS = {
    "decide-ground": lambda: _workload("decide-ground"),
    "decide-params": lambda: _workload("decide-params"),
    "termgen": _termgen,
}


def digest(group: str) -> tuple[str, int]:
    """The sha256 of a group's records and their number."""
    out = GROUPS[group]()
    return out.sha.hexdigest(), out.records


def stored() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def main(argv) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    want = {} if write else stored()
    got = {}
    for group in GROUPS:
        sha, records = digest(group)
        got[group] = {"sha256": sha, "records": records}
        if not write:
            same = want.get(group) == got[group]
            print(f"{group}: {records} records, {'matches' if same else 'DIFFERS'}")
    if write:
        with open(GOLDEN, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(got)} digests to {GOLDEN}")
        return 0
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1:]))
