"""The proptest families are the tier-1 tests of the randomized invariants:
each family in ``proptest.ALL_CHECKS`` runs here once, at seed 0."""

import numpy as np
import pytest

from carpetlab import proptest


@pytest.mark.parametrize(
    "name,check", proptest.ALL_CHECKS, ids=[name for name, _ in proptest.ALL_CHECKS]
)
def test_family(name, check):
    result = check(np.random.default_rng(0))
    assert result.name == name
    assert result.passed, result.detail


def test_proptest_seed_invariance_of_hard_checks():
    for seed in (3, 17):
        assert proptest.check_gibbs_chains(np.random.default_rng(seed)).passed
        assert proptest.check_magnify_identity(np.random.default_rng(seed)).passed
