import math
from fractions import Fraction

import numpy as np
import pytest

from carpetlab import (
    DiscreteMeasure,
    GridPartition,
    SymbolWord,
    condition_rescale,
    entropy,
    finite_scale_dimension,
)
from carpetlab.errors import (
    InsufficientLevels,
    UnnormalizedMeasure,
    ZeroMassCell,
)
from carpetlab import measures
from carpetlab.measures import MIN_ATOM_WEIGHT
from carpetlab.symbolic import ApproxSquare


def grid_measure(base: int, depth: int) -> DiscreteMeasure:
    """Uniform measure on the full base**depth grid of cell centers."""
    side = base**depth
    coords = (np.arange(side) + 0.5) / side
    xs, ys = np.meshgrid(coords, coords)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return DiscreteMeasure.uniform_on(pts)


# -- validation --


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_rejects_non_finite(bad):
    # NaN passes both the sign and the range comparisons
    with pytest.raises(ValueError, match="non-finite"):
        DiscreteMeasure([[bad, 0.5]], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        DiscreteMeasure([[0.5, 0.5], [0.2, 0.2]], [bad, 0.5])


def test_measure_owns_copies_of_its_arrays():
    # the caller's arrays stay writable and apart from the measure's, in
    # any layout; the measure's own arrays are C-ordered and read-only
    pts = np.array([[0.1, 0.2], [0.3, 0.4]])
    wts = np.array([0.5, 0.5])
    for points in (pts, np.asfortranarray(pts), pts.tolist()):
        mu = DiscreteMeasure(points, wts)
        assert mu.points is not points and mu.weights is not wts
        assert mu.points.flags.c_contiguous and mu.weights.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            mu.points[0, 0] = 0.9
    pts[0, 0] = 0.9
    wts[0] = 0.25
    assert mu.points[0, 0] == 0.1 and mu.weights[0] == 0.5


def test_uniform_on_refuses_no_points():
    for points in ([], np.empty((0, 2))):
        with pytest.raises(ValueError, match="at least one point"):
            DiscreteMeasure.uniform_on(points)


@pytest.mark.parametrize("base", [1, 0, -2])
def test_grid_partition_refuses_base_below_two(base):
    with pytest.raises(ValueError, match=f"grid base must be >= 2, got {base}"):
        GridPartition(base, 1)
    with pytest.raises(ValueError, match="grid base must be >= 2"):
        finite_scale_dimension(DiscreteMeasure.point_mass(0.1, 0.1), base, [2, 3])


# -- entropy --


def test_entropy_examples():
    mu = DiscreteMeasure.uniform_on([[0.1, 0.1], [0.4, 0.4], [0.6, 0.6], [0.9, 0.9]])
    rep = entropy(mu, GridPartition(2, 2))
    assert abs(rep.entropy - math.log(4)) < 1e-12
    assert rep.cell_count == 4
    assert abs(rep.normalized - math.log(4) / (2 * math.log(2))) < 1e-12

    point = DiscreteMeasure.point_mass(0.3, 0.7)
    assert entropy(point, GridPartition(3, 4)).entropy == 0.0

    mu = DiscreteMeasure([[0.1, 0.1], [0.4, 0.4], [0.9, 0.9]], [0.5, 0.25, 0.25])
    rep = entropy(mu, GridPartition(2, 2))
    assert abs(rep.entropy - 1.5 * math.log(2)) < 1e-12


def test_entropy_requires_normalized():
    for weight in (0.7, 0.0):
        mu = DiscreteMeasure([[0.5, 0.5]], [weight])
        with pytest.raises(UnnormalizedMeasure):
            entropy(mu, GridPartition(2, 1))


def test_grid_partition_int64_cut(rng):
    # 7**22 < 2**63 < 7**23 and 2**62 < 2**63: the cell indices of the
    # larger scales would wrap in int64, so those partitions are refused
    mu = DiscreteMeasure(rng.random((50, 2)), np.full(50, 1 / 50))
    assert entropy(mu, GridPartition(7, 22)).cell_count == 50
    assert entropy(mu, GridPartition(2, 62)).cell_count == 50
    for base, level in ((7, 23), (7, 30), (2, 63), (3, -1), (2, -1)):
        with pytest.raises(ValueError):
            GridPartition(base, level)


def reference_entropy(points, weights, part: GridPartition) -> tuple[float, int]:
    """Entropy with each cell's mass summed in atom order and the cells read
    out in sorted (ix, iy) order, the summation order ``entropy`` promises.
    The last row and column are closed: 1.0 lies in the cell scale - 1."""
    scale = part.base**part.level
    masses: dict[tuple[int, int], float] = {}
    for (x, y), w in zip(points.tolist(), weights.tolist()):
        if w > 0.0:
            key = (min(math.floor(x * scale), scale - 1), min(math.floor(y * scale), scale - 1))
            masses[key] = masses.get(key, 0.0) + w
    cells = np.array([masses[key] for key in sorted(masses)])
    h = float(-(cells * np.log(cells)).sum()) if len(cells) else 0.0
    return max(h, 0.0) + 0.0, len(cells)


@pytest.mark.parametrize(
    "base,levels", [(2, (0, 1, 4, 12, 30, 52, 62)), (3, (1, 5, 20, 39)), (7, (2, 22))]
)
def test_entropy_summation_order(rng, base, levels):
    for trial in range(6):
        n = (1, 7, 300, 2000, 2000, 5000)[trial]
        # few distinct points, so that cells hold many atoms at every level
        distinct = rng.random((max(1, n // 50), 2))
        if trial % 2:
            distinct[:, 0] = np.floor(distinct[:, 0] * 4) / 4
        points = distinct[rng.integers(0, len(distinct), n)]
        weights = rng.random(n) * 10.0 ** rng.integers(-8, 1, n)
        weights[rng.random(n) < 0.2] = 0.0
        weights[0] = max(weights[0], 0.5)
        mu = DiscreteMeasure(points, weights / weights.sum())
        for level in levels:
            part = GridPartition(base, level)
            rep = entropy(mu, part)
            h, count = reference_entropy(mu.points, mu.weights, part)
            assert rep.entropy.hex() == h.hex()
            assert rep.cell_count == count


@pytest.mark.parametrize("weight", [1.0, 1.0 - 5e-13])
def test_entropy_one_atom_matches_array_sum(weight):
    # a one-atom measure skips the mask and the grouping; its entropy keeps
    # the bits of the array computation, -0.0 cleared for weight 1
    points = np.array([[-0.0, 1.0]])
    for part in (GridPartition(2, 0), GridPartition(3, 4), GridPartition(7, 22)):
        rep = entropy(DiscreteMeasure(points, [weight]), part)
        h, count = reference_entropy(points, np.array([weight]), part)
        assert (rep.entropy.hex(), rep.cell_count) == (h.hex(), count)
        norm = h / part.norm_log if part.level else 0.0
        assert rep.normalized.hex() == norm.hex()
    assert h > 0.0 if weight < 1.0 else h.hex() == (0.0).hex()


def entropy_edge_cases():
    """Small clouds at the edges of the aggregation: no atom to sort, atoms
    sharing a cell, atoms apart in one coordinate only, a zero weight."""
    cases = [
        ("one atom", [[0.3, 0.7]], [1.0], GridPartition(2, 3)),
        ("two atoms one cell", [[0.3, 0.7], [0.31, 0.71]], [0.25, 0.75], GridPartition(2, 3)),
        ("apart in ix only", [[0.1, 0.7], [0.9, 0.7]], [0.25, 0.75], GridPartition(2, 3)),
        ("apart in iy only", [[0.3, 0.1], [0.3, 0.9]], [0.25, 0.75], GridPartition(2, 3)),
        ("beside a zero weight", [[0.1, 0.1], [0.9, 0.9]], [0.0, 1.0], GridPartition(2, 3)),
        ("after a zero weight", [[0.9, 0.9], [0.1, 0.1]], [1.0, 0.0], GridPartition(3, 2)),
        ("one weight counted", [[0.9, 0.9], [0.1, 0.1]], [0.0, 1.0], GridPartition(2, 1)),
    ]
    three = [[0.1, 0.7], [0.9, 0.7], [0.1, 0.2]], [0.5, 0.25, 0.25]
    cases += [(f"base 2 level {level}", *three, GridPartition(2, level)) for level in (0, 62)]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("points,weights,part", entropy_edge_cases())
def test_entropy_small_cloud_edges(points, weights, part):
    mu = DiscreteMeasure(points, weights)
    rep = entropy(mu, part)
    h, count = reference_entropy(mu.points, mu.weights, part)
    assert rep.entropy.hex() == h.hex()
    assert rep.cell_count == count


@pytest.mark.parametrize(
    "base,level,atoms,counted",
    [(2, 3, 16, True), (3, 2, 20, False), (3, 2, 21, True)],
    ids=["scale**2 == 4 len", "scale**2 == 4 len + 1", "odd scale counted"],
)
def test_entropy_counting_cut(rng, monkeypatch, base, level, atoms, counted):
    # a grid of scale**2 cells is counted while scale**2 <= 4 * atoms and
    # sorted past that; both sides must keep the summation order.  Atoms
    # on the edge 1.0 take the last index, scale - 1, so the key
    # ix * scale + iy keeps (0.5, 1.0) and (0.625, 0.0) apart at scales 8
    # and 9, and (1.0, 1.0) shares the closed last cell with (0.99, 0.99)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda *a, **k: sorts.append(1) or lexsort(*a, **k))
    edges = [[0.5, 1.0], [0.625, 0.0], [1.0, 1.0], [1.0, 0.0], [0.99, 0.99]]
    distinct = np.array(edges + [[0.3, 0.45], [0.05, 0.7]])
    points = distinct[np.arange(atoms) % len(distinct)]
    weights = rng.random(atoms) * 10.0 ** rng.integers(-12, 1, atoms)
    mu = DiscreteMeasure(points, weights / weights.sum())
    part = GridPartition(base, level)
    rep = entropy(mu, part)
    h, count = reference_entropy(mu.points, mu.weights, part)
    assert rep.entropy.hex() == h.hex()
    assert rep.cell_count == count == len(distinct) - 1
    assert (len(sorts) == 0) == counted


@pytest.mark.parametrize("level,cells", [(0, 1), (1, 1), (2, 2)])
def test_entropy_edge_coordinate_in_last_cell(level, cells):
    # 1.0 lies in the closed last row and column, not in a cell of its own
    part = GridPartition(2, level)
    assert part.cell_indices(np.array([[0.0, 1.0]])).tolist() == [[0, 2**level - 1]]
    mu = DiscreteMeasure([[0.5, 0.5], [1.0, 1.0]], [0.5, 0.5])
    rep = entropy(mu, part)
    assert rep.cell_count == cells
    assert rep.entropy.hex() == reference_entropy(mu.points, mu.weights, part)[0].hex()


# -- conditioning --


def test_condition_rescale_uniform_self_similarity():
    mu = grid_measure(2, 3)  # 64 atoms
    cell = ApproxSquare(SymbolWord(2, (1,)), SymbolWord(2, (0,)))
    out = condition_rescale(mu, cell)
    assert len(out) == 16
    assert abs(out.total_mass - 1.0) < 1e-12
    assert np.allclose(np.sort(out.weights), 1.0 / 16)
    rep = entropy(out, GridPartition(2, 2))
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


def two_column_mask(mu, sq):
    """The cell's atoms, decided column by column: the reference."""
    ix = np.floor(mu.points[:, 0].astype(np.longdouble) * sq.x_scale)
    iy = np.floor(mu.points[:, 1].astype(np.longdouble) * sq.y_scale)
    return (ix == sq.x_index) & (iy == sq.y_index)


def two_column_rescale(mu, sq, mask):
    """``condition_rescale``'s points as they were computed column by column."""
    pts = mu.points[mask].astype(np.longdouble)
    scaled = np.empty_like(pts)
    scaled[:, 0] = pts[:, 0] * sq.x_scale - sq.x_index
    scaled[:, 1] = pts[:, 1] * sq.y_scale - sq.y_index
    out = scaled.astype(np.float64)
    np.clip(out, 0.0, np.nextafter(1.0, 0.0), out=out)
    return out


def index_word(index: int, base: int, depth: int) -> SymbolWord:
    """The depth-``depth`` base-``base`` digits of a cell index."""
    digits = []
    for _ in range(depth):
        index, d = divmod(index, base)
        digits.append(d)
    return SymbolWord(base, tuple(reversed(digits)))


def cell_word(coord: float, base: int, depth: int) -> SymbolWord:
    """The exact depth-``depth`` base-``base`` digits of a double."""
    return index_word(math.floor(Fraction(coord) * base**depth), base, depth)


# cell scales m**p x n**k below 2**53, between 2**53 and 2**64, and above 2**64
@pytest.mark.parametrize(
    "m,n,p,k", [(3, 2, 5, 8), (7, 6, 18, 20), (5, 2, 23, 60), (10, 9, 19, 20), (5, 2, 40, 90)]
)
def test_cell_mask_and_rescale_match_two_column_reference(rng, m, n, p, k):
    hits = 0
    for _ in range(30):
        anchor = rng.random(2) * 10.0 ** -rng.integers(0, 4, 2)
        # the anchor, doubles within 3 ulps of it (the anchor again among
        # them) and far atoms
        near = anchor + rng.integers(-3, 4, (40, 2)) * np.spacing(anchor)
        far = rng.random((20, 2))
        points = np.clip(np.vstack([anchor[None, :], near, far]), 0.0, 1.0)
        mu = DiscreteMeasure(points, np.full(len(points), 1.0 / len(points)))
        sq = ApproxSquare(cell_word(anchor[0], m, p), cell_word(anchor[1], n, k))
        want = two_column_mask(mu, sq)
        if not want.any():
            with pytest.raises(ZeroMassCell):
                condition_rescale(mu, sq)
            continue
        hits += 1
        out = condition_rescale(mu, sq)
        assert out.cell_mass == float(mu.weights[want].sum())
        assert out.points.tobytes() == two_column_rescale(mu, sq, want).tobytes()
        assert out.weights.tobytes() == (mu.weights[want] / mu.weights[want].sum()).tobytes()
    assert hits >= 10


def edge_coordinates(rng, base: int, depth: int) -> tuple[list[float], list[int]]:
    """Doubles nearest to cell edges e / base**depth and one double either
    side of each, -0.0 among them, with the cells that meet at those edges."""
    scale = base**depth
    inner = [int(rng.integers(1, 2**62)) * scale // 2**62 for _ in range(4)]
    coords, cells = [-0.0], set()
    for edge in [0, 1, scale - 1, scale] + inner:
        c = float(Fraction(edge, scale))
        coords += [c, np.nextafter(c, -1.0), np.nextafter(c, 2.0)]
        cells.update({max(edge - 1, 0), min(edge, scale - 1)})
    return [c for c in coords if 0.0 <= c <= 1.0], sorted(cells)


def rescaled_or_none(mu: DiscreteMeasure, sq: ApproxSquare):
    """The conditioned points, or None where the cell carries no mass."""
    try:
        return condition_rescale(mu, sq).points
    except ZeroMassCell:
        return None


# the scale regimes of the reference test: below 2**53, between 2**53 and
# 2**64 (in one or both coordinates), and above 2**64
@pytest.mark.parametrize("m,n,p,k", [(3, 2, 5, 8), (5, 2, 23, 60), (10, 9, 19, 20), (5, 2, 40, 90)])
def test_locate_range_test_at_cell_edges(rng, m, n, p, k):
    # ``_locate`` decides floor(product) == index by 0 <= product - index < 1;
    # at and beside every edge it must agree with floorl, and the rescaled
    # points with the column-by-column reference.  Each edge point alone, as
    # a one-atom measure, takes the scalar path: the same decision and the
    # same offsets as inside the cloud, the same rescaled point, bit for bit,
    # and ZeroMassCell exactly when it is outside the cell
    xs, x_cells = edge_coordinates(rng, m, p)
    ys, y_cells = edge_coordinates(rng, n, k)
    points = np.array([(x, y) for x in xs for y in ys])
    mu = DiscreteMeasure(points, np.full(len(points), 1.0 / len(points)))
    atoms = [DiscreteMeasure.point_mass(x, y) for x, y in points.tolist()]
    scales = np.array([m**p, n**k], dtype=np.longdouble)
    hits = 0
    for ix in x_cells:
        for iy in y_cells:
            sq = ApproxSquare(index_word(ix, m, p), index_word(iy, n, k))
            origin = np.array([ix, iy], dtype=np.longdouble)
            want = (np.floor(mu.points * scales) == origin).all(axis=1)
            in_cell, offsets = measures._locate(mu, sq)
            assert in_cell.tolist() == want.tolist()
            located = [measures._locate(atom, sq) for atom in atoms]
            assert [hit for hit, _ in located] == want.tolist()
            assert all(type(hit) is bool for hit, _ in located)
            # equal with equal signs: a longdouble's bytes hold padding
            alone = np.array([offset for _, offset in located])
            assert (alone == offsets).all()
            assert (np.signbit(alone) == np.signbit(offsets)).all()
            rescaled = [rescaled_or_none(atom, sq) for atom in atoms]
            assert [r is not None for r in rescaled] == want.tolist()
            if not want.any():
                with pytest.raises(ZeroMassCell):
                    condition_rescale(mu, sq)
                continue
            hits += 1
            out = condition_rescale(mu, sq)
            # np.clip keeps -0.0 and the clamp of condition_rescale gives +0.0
            ref = two_column_rescale(mu, sq, want) + 0.0
            assert out.points.tobytes() == ref.tobytes()
            assert np.concatenate([r for r in rescaled if r is not None]).tobytes() == ref.tobytes()
    assert hits >= 4
    assert np.signbit(mu.points).any()  # the -0.0 atoms are in the cloud


# x * base**depth rounds, as a longdouble, to within 2**-54 below 1: in the
# cell [0, 1), but 1.0 in float64.  The double nearest 1/3 gives 1 - 2**-54,
# a tie that rounds to even; the others were found by a search over the
# doubles at and beside k / base**depth, k < 3000, for scales between 2**53
# and 2**64
@pytest.mark.parametrize(
    "base,depth,x",
    [(3, 1, "0x1.5555555555555p-2"), (5, 23, "0x1.82db34012b251p-54"), (10, 19, "0x1.d83c94fb6d2acp-64")],
)
def test_condition_rescale_clamps_offset_rounded_up_to_one(base, depth, x):
    x = float.fromhex(x)
    sq = ApproxSquare(index_word(0, base, depth), SymbolWord(2, (0,)))
    atom = DiscreteMeasure.point_mass(x, 0.25)
    hit, (ox, _) = measures._locate(atom, sq)
    assert hit and ox < 1 and float(ox) == 1.0
    alone = condition_rescale(atom, sq)
    cloud = condition_rescale(DiscreteMeasure([[x, 0.25], [x, 0.3]], [0.5, 0.5]), sq)
    assert alone.points.tolist() == [[float(measures.BELOW_ONE), 0.5]]
    assert alone.points.tobytes() == cloud.points[:1].tobytes()


def test_condition_rescale_cell_mass_with_light_atoms():
    # atoms at or below MIN_ATOM_WEIGHT are dropped from the conditioned
    # measure but still count in the cell's mass
    sq = ApproxSquare(SymbolWord(3, (1,)), SymbolWord(2, (0,)))  # [1/3, 2/3) x [0, 1/2)
    points = [[0.4, 0.1], [0.5, 0.2], [0.6, 0.3], [0.45, 0.4], [0.9, 0.9], [0.1, 0.6]]
    for light in (1e-301, 0.0):
        weights = np.array([0.3, light, 0.1, light, 0.4, 0.2])
        mu = DiscreteMeasure(points, weights / weights.sum())
        want = two_column_mask(mu, sq)
        assert want.sum() == 4
        out = condition_rescale(mu, sq)
        assert out.cell_mass.hex() == float(mu.weights[want].sum()).hex()
        kept = want & (mu.weights > MIN_ATOM_WEIGHT)
        assert kept.sum() == 2
        assert out.points.tobytes() == two_column_rescale(mu, sq, kept).tobytes()
        assert out.weights.tobytes() == (mu.weights[kept] / mu.weights[kept].sum()).tobytes()

    # kept atoms just above MIN_ATOM_WEIGHT: the light atoms change the sum,
    # so the kept weights' sum is not the cell's mass
    mu = DiscreteMeasure(points, [2e-300, 1e-301, 3e-300, 1e-301, 0.5, 0.5])
    out = condition_rescale(mu, sq)
    assert len(out) == 2
    assert out.cell_mass.hex() == float(mu.weights[two_column_mask(mu, sq)].sum()).hex()
    assert out.cell_mass != float(mu.weights[[0, 2]].sum())

    # a cell whose only atoms are light carries no mass
    mu = DiscreteMeasure(points, [0.0, 1e-301, 0.0, 1e-301, 0.5, 0.5])
    with pytest.raises(ZeroMassCell):
        condition_rescale(mu, sq)

    # one atom in the cell: light, it carries no mass; heavier, it is the
    # cell's mass and becomes an atom of weight w / w = 1
    for light in (1e-301, 0.0):
        with pytest.raises(ZeroMassCell):
            condition_rescale(DiscreteMeasure([[0.4, 0.1]], [light]), sq)
    for w in (0.3, 2e-300, 1.0 - 5e-13):
        mu = DiscreteMeasure([[0.4, 0.1]], [w])
        out = condition_rescale(mu, sq)
        assert out.cell_mass.hex() == w.hex()
        assert out.weights.tolist() == [1.0]
        assert out.points.tobytes() == two_column_rescale(mu, sq, [True]).tobytes()


# -- finite-scale dimension --


def test_finite_scale_dimension_plane():
    mu = grid_measure(2, 8)
    # exact entropies: 2 * level * log 2 for levels up to the grid depth
    for level in (2, 5, 8):
        rep = entropy(mu, GridPartition(2, level))
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

