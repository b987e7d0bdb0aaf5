import math

import numpy as np
import pytest

from carpetlab import (
    DiscreteMeasure,
    GridPartition,
    SymbolWord,
    condition_rescale,
    entropy,
    finite_scale_dimension,
    gibbs_gap,
)
from carpetlab.errors import (
    InsufficientLevels,
    SupportMismatch,
    UnnormalizedMeasure,
    ZeroMassCell,
)
from carpetlab.symbolic import ApproxSquare


def grid_measure(base: int, depth: int) -> DiscreteMeasure:
    """Uniform measure on the full base**depth grid of cell centers."""
    side = base**depth
    coords = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(coords, coords)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return DiscreteMeasure.uniform_on(pts)


# -- entropy --


def test_entropy_examples():
    mu = DiscreteMeasure.uniform_on([[0.1, 0.1], [0.4, 0.4], [0.6, 0.6], [0.9, 0.9]])
    rep = entropy(mu, GridPartition.square(2, 2))
    assert abs(rep.entropy - math.log(4)) < 1e-12
    assert rep.cell_count == 4
    assert abs(rep.normalized - math.log(4) / (2 * math.log(2))) < 1e-12

    point = DiscreteMeasure.point_mass(0.3, 0.7)
    assert entropy(point, GridPartition.square(3, 4)).entropy == 0.0

    mu = DiscreteMeasure([[0.1, 0.1], [0.4, 0.4], [0.9, 0.9]], [0.5, 0.25, 0.25])
    rep = entropy(mu, GridPartition.square(2, 2))
    assert abs(rep.entropy - 1.5 * math.log(2)) < 1e-12


def test_entropy_requires_normalized():
    mu = DiscreteMeasure([[0.5, 0.5]], [0.7])
    with pytest.raises(UnnormalizedMeasure):
        entropy(mu, GridPartition.square(2, 1))


def test_grid_partition_int64_cut(rng):
    # 7**22 < 2**63 < 7**23 and 2**62 < 2**63: the cell indices of the
    # larger scales would wrap in int64, so those partitions are refused
    mu = DiscreteMeasure(rng.random((50, 2)), np.full(50, 1 / 50))
    assert entropy(mu, GridPartition.square(7, 22)).cell_count == 50
    assert entropy(mu, GridPartition.square(2, 62)).cell_count == 50
    for base, level in ((7, 23), (7, 30), (2, 63), (3, -1)):
        with pytest.raises(ValueError):
            GridPartition.square(base, level)
    with pytest.raises(ValueError):
        GridPartition(2, 1, 2, -1)


def test_mixed_partition_axes():
    mu = DiscreteMeasure.uniform_on([[0.1, 0.2], [0.8, 0.2], [0.1, 0.9]])
    part_x = GridPartition(3, 1, 3, 0)
    assert entropy(mu, part_x).cell_count == 2
    part_y = GridPartition(2, 0, 2, 1)
    assert entropy(mu, part_y).cell_count == 2
    part = GridPartition(3, 1, 2, 1)
    assert entropy(mu, part).cell_count == 3


# -- gibbs gap --


def test_gibbs_gap_examples():
    assert gibbs_gap([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert abs(gibbs_gap([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-12
    with pytest.raises(SupportMismatch):
        gibbs_gap([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(SupportMismatch):
        gibbs_gap([0.5, 0.5], [0.3, 0.3, 0.4])


# -- conditioning --


def test_condition_rescale_uniform_self_similarity():
    mu = grid_measure(2, 3)  # 64 atoms
    cell = ApproxSquare(SymbolWord(2, (1,)), SymbolWord(2, (0,)))
    out = condition_rescale(mu, cell)
    assert len(out) == 16
    assert abs(out.total_mass - 1.0) < 1e-12
    assert np.allclose(np.sort(out.weights), 1.0 / 16)
    rep = entropy(out, GridPartition.square(2, 2))
    assert abs(rep.entropy - math.log(16)) < 1e-12


def test_condition_rescale_point_mass():
    mu = DiscreteMeasure.point_mass(0.4, 0.6)
    cell = ApproxSquare(SymbolWord(3, (1,)), SymbolWord(2, (1,)))
    out = condition_rescale(mu, cell)
    assert len(out) == 1
    assert abs(out.points[0, 0] - (0.4 * 3 - 1)) < 1e-12
    assert abs(out.points[0, 1] - (0.6 * 2 - 1)) < 1e-12


def test_condition_rescale_zero_mass():
    mu = DiscreteMeasure.point_mass(0.1, 0.1)
    cell = ApproxSquare(SymbolWord(3, (2,)), SymbolWord(2, (1,)))
    with pytest.raises(ZeroMassCell):
        condition_rescale(mu, cell)


# -- finite-scale dimension --


def test_finite_scale_dimension_plane():
    mu = grid_measure(2, 8)
    # exact entropies: 2 * level * log 2 for levels up to the grid depth
    for level in (2, 5, 8):
        rep = entropy(mu, GridPartition.square(2, level))
        assert abs(rep.entropy - 2 * level * math.log(2)) < 1e-9
    slope = finite_scale_dimension(mu, 2, range(2, 9))
    assert abs(slope - 2.0) < 0.01


def test_finite_scale_dimension_point_and_line():
    assert finite_scale_dimension(DiscreteMeasure.point_mass(0.3, 0.3), 2, range(1, 6)) == 0.0
    side = 2**10
    coords = (np.arange(side) + 0.5) / side
    diag = DiscreteMeasure.uniform_on(np.column_stack([coords, coords]))
    assert abs(finite_scale_dimension(diag, 2, range(2, 9)) - 1.0) < 0.02


def test_finite_scale_dimension_product_rule():
    # product of two digit-restricted measures: slopes add
    def cantor_axis(digits, base, depth):
        vals = [0.0]
        for _ in range(depth):
            vals = [v / base + d / base for v in vals for d in digits]
        return np.array(vals) + 0.5 / base**depth

    xs = cantor_axis([0, 2], 3, 5)
    ys = cantor_axis([0, 1], 2, 8)
    gx, gy = np.meshgrid(xs, ys)
    mu = DiscreteMeasure.uniform_on(np.column_stack([gx.ravel(), gy.ravel()]))
    sx = finite_scale_dimension(
        DiscreteMeasure.uniform_on(np.column_stack([xs, np.full_like(xs, 0.5)])), 2, range(2, 7)
    )
    sy = finite_scale_dimension(
        DiscreteMeasure.uniform_on(np.column_stack([np.full_like(ys, 0.5), ys])), 2, range(2, 7)
    )
    s = finite_scale_dimension(mu, 2, range(2, 7))
    assert abs(s - (sx + sy)) < 0.02


def test_finite_scale_dimension_needs_levels():
    with pytest.raises(InsufficientLevels):
        finite_scale_dimension(DiscreteMeasure.point_mass(0.1, 0.1), 2, [3])

