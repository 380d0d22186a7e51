"""The golden digests of ``tests/golden.json`` still hold.

Each group's records are rebuilt from seeds and hashed by
``tests/golden.py``; a changed normal form, verdict, witness or parse error
changes the digest.  Run ``python tests/golden.py --write`` only when such a change is
meant, and say what changed and why.
"""

import time

import pytest

import golden

BUDGET_S = {"decide-ground": 60.0, "decide-params": 60.0, "termgen": 20.0, "parse-errors": 20.0}


@pytest.mark.parametrize("group", sorted(golden.GROUPS))
def test_digest_unchanged(group):
    started = time.time()
    sha, records = golden.digest(group)
    assert {"sha256": sha, "records": records} == golden.stored()[group], \
        f"{group}: normal forms, verdicts or witnesses differ from tests/golden.json"
    elapsed = time.time() - started
    budget = BUDGET_S[group]
    print(f"golden {group}: {records} records match ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"golden {group} exceeded its {budget}s budget"
