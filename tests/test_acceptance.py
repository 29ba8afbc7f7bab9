"""Top-level acceptance suite: each criterion is exact (zero tolerance) and
carries its own wall-clock budget, enforced inside the criterion."""

import pytest

from skeletron.acceptance import CRITERIA


@pytest.mark.parametrize(
    "name,criterion", CRITERIA, ids=[name for name, _ in CRITERIA]
)
def test_criterion(name, criterion):
    ok, detail, seconds, budget_s = criterion(seed=0)
    assert 0 <= seconds and budget_s > 0
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail
