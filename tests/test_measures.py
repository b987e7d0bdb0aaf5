import math

import numpy as np
import pytest

from carpetlab import (
    DiscreteMeasure,
    GridPartition,
    SymbolWord,
    condition_rescale,
    covering_number,
    entropy,
    finite_scale_dimension,
    gibbs_gap,
    restricted_entropy,
)
from carpetlab.errors import (
    InsufficientLevels,
    SupportMismatch,
    UnnormalizedMeasure,
    ZeroMassCell,
    ZeroMassRegion,
)
from carpetlab.symbolic import ApproxSquare


def grid_measure(base: int, depth: int) -> DiscreteMeasure:
    """Uniform measure on the full base**depth grid of cell centers."""
    side = base**depth
    coords = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(coords, coords)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return DiscreteMeasure.uniform_on(pts)


def min_diameter_cover(points: np.ndarray, r: float) -> int:
    """Exact minimal number of diameter<=r sets covering the points.

    Branch and bound over group assignments; a group stays valid iff all
    pairwise distances inside it are <= r.  Exponential, fine for <= 12."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    ok = d <= r + 1e-12
    best = n

    def rec(i: int, groups: list[list[int]]):
        nonlocal best
        if len(groups) >= best:
            return
        if i == n:
            best = len(groups)
            return
        for g in groups:
            if all(ok[i, j] for j in g):
                g.append(i)
                rec(i + 1, groups)
                g.pop()
        groups.append([i])
        rec(i + 1, groups)
        groups.pop()

    rec(0, [])
    return best


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
    assert mu.normalized().is_normalized


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


# -- restricted entropy --


def test_restricted_entropy_full_region():
    mu = grid_measure(2, 2)
    part = GridPartition.square(2, 2)
    rep, mass = restricted_entropy(mu, [(0.0, 1.0, 0.0, 1.0)], part)
    assert abs(mass - 1.0) < 1e-12
    assert abs(rep.entropy - entropy(mu, part).entropy) < 1e-12


def test_restricted_entropy_single_cell():
    mu = grid_measure(2, 2)
    part = GridPartition.square(2, 2)
    rep, mass = restricted_entropy(mu, [(0.0, 0.25, 0.0, 0.25)], part)
    assert abs(mass - 1.0 / 16) < 1e-12
    assert rep.entropy == 0.0


def test_restricted_entropy_zero_region():
    mu = DiscreteMeasure.point_mass(0.9, 0.9)
    with pytest.raises(ZeroMassRegion):
        restricted_entropy(mu, [(0.0, 0.1, 0.0, 0.1)], GridPartition.square(2, 1))


def test_restricted_entropy_drop_bound(rng):
    # removing mass delta can lower the entropy by at most the binary
    # entropy of delta plus delta * log(cell count)
    part = GridPartition.square(2, 3)
    for _ in range(200):
        n = int(rng.integers(5, 40))
        mu = DiscreteMeasure(rng.random((n, 2)), rng.dirichlet(np.ones(n)))
        x0, y0 = rng.random(2) * 0.5
        keep = [(x0, x0 + 0.5, y0, y0 + 0.5), (0.0, 1.0, 0.0, y0 / 2 + 1e-9)]
        try:
            rep, mass = restricted_entropy(mu, keep, part)
        except ZeroMassRegion:
            continue
        delta = 1.0 - mass
        full = entropy(mu, part)
        if delta <= 0.0:
            assert abs(rep.entropy - full.entropy) < 1e-9
            continue
        h2 = -delta * math.log(delta) - (1 - delta) * math.log(1 - delta) if 0 < delta < 1 else 0.0
        drop = full.entropy - rep.entropy
        assert drop <= h2 + delta * math.log(max(full.cell_count, 2)) + 1e-9


# -- covering numbers --


def test_covering_number_examples():
    assert covering_number([[0.5, 0.5]], 0.1) == 1
    pts = np.array([[0.05, 0.05], [0.55, 0.05], [0.05, 0.55], [0.95, 0.95]])
    assert covering_number(pts, 0.2) == 4  # pairwise farther than 2r = 0.4
    with pytest.raises(ValueError):
        covering_number(pts, 0.0)


def test_covering_number_vs_exact_cover(rng):
    # two-sided factor-4 comparability with the true minimal cover; the
    # grid count can undercut the exact count when two points share a cell
    # but sit more than r apart, so only the factor bounds are theorems
    for _ in range(200):
        n = int(rng.integers(3, 13))
        pts = rng.random((n, 2))
        r = float(rng.uniform(0.15, 0.45))
        grid = covering_number(pts, r)
        exact = min_diameter_cover(pts, r)
        assert exact >= grid / 4.0 - 1e-9
        assert exact <= 4 * grid


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

