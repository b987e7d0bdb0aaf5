"""The proptest families are the tier-1 tests of the randomized invariants:
each family in ``proptest.ALL_CHECKS`` runs here once, at seed 0, and its
result is pinned to the line ``proptest --seed 0`` prints for it."""

import math

import numpy as np
import pytest

from carpetlab import proptest, scenery

# (cases, detail) of every family at seed 0; adding, removing or changing a
# family's output is an edit here
SEED_0 = {
    "transpose_normal_form": (163, ""),
    "carry_shift_composition": (20, ""),
    "approx_square_diameter": (50, ""),
    "entropy_bounds": (10000, ""),
    "entropy_concavity": (1000, ""),
    "condition_rescale_mass": (1000, ""),
    "slice_conservative": (10, ""),
    "slice_nesting": (6, ""),
    "tv_residual_trend": (20, ""),
    "phase_equidistribution": (10000, "discrepancy=0.00061"),
    "bound_chain": (200, ""),
}


def test_seed_0_table_names_every_family():
    assert list(SEED_0) == [name for name, _ in proptest.ALL_CHECKS]


@pytest.mark.parametrize(
    "name,check", proptest.ALL_CHECKS, ids=[name for name, _ in proptest.ALL_CHECKS]
)
def test_family(name, check):
    result = check(np.random.default_rng(0))
    assert result.name == name
    assert result.passed, result.detail
    assert (result.cases, result.detail) == SEED_0[name]


def test_bound_chain_fails_through_the_report_raise(monkeypatch):
    # the family compares no slack itself: bound_chain_report raises on a
    # slack below -SLACK_TOL, and run_all records the raise as a failure
    monkeypatch.setattr(scenery, "SLACK_TOL", -math.inf)
    monkeypatch.setattr(proptest, "ALL_CHECKS", [("bound_chain", proptest.check_bound_chain)])
    (result,) = proptest.run_all(0)
    assert not result.passed and "chain violated" in result.detail
