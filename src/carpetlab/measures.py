"""Finitely supported measures on the unit square and their grid entropies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InsufficientLevels, UnnormalizedMeasure, ZeroMassCell
from .symbolic import ApproxSquare

MASS_TOL = 1e-12
MIN_ATOM_WEIGHT = 1e-300  # below this, conditioning drops the atom outright
BELOW_ONE = np.nextafter(1.0, 0.0)  # rescaled coordinates are clamped into [0, BELOW_ONE]
# _locate's range as longdouble scalars: a Python float bound would be converted on every call
_LD_ZERO, _LD_ONE = np.longdouble(0), np.longdouble(1)
# a counted grid's mass table may hold this many cells per atom; past that a
# sort groups the atoms, so memory stays bounded
_COUNT_TABLE_PER_ATOM = 4


class DiscreteMeasure:
    """Weighted atoms in [0, 1]^2, treated as an immutable value.

    Aggregations are deterministic for a fixed atom array but depend on its
    order: a grid cell's mass is the sum of its atoms' weights taken one by
    one in atom order, and cells come out in lexicographic (ix, iy) order.
    ``cell_mass`` is the conditioned cell's mass (see ``condition_rescale``).
    """

    cell_mass: float | None = None

    def __init__(self, points, weights, *, validate: bool = True):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        wts = np.ascontiguousarray(weights, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or wts.shape != (pts.shape[0],):
            raise ValueError("points must be (N, 2) and weights (N,)")
        if validate:
            if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
                raise ValueError("non-finite coordinates or weights")
            if np.any(wts < 0.0):
                raise ValueError("negative weights")
            if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
                raise ValueError("atoms outside the unit square")
        pts.setflags(write=False)
        wts.setflags(write=False)
        self.points = pts
        self.weights = wts

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL

    def require_normalized(self):
        if not self.is_normalized:
            raise UnnormalizedMeasure(f"total mass {self.total_mass} != 1")

    @classmethod
    def point_mass(cls, x: float, y: float) -> "DiscreteMeasure":
        return cls(np.array([[x, y]]), np.array([1.0]))

    @classmethod
    def uniform_on(cls, points) -> "DiscreteMeasure":
        pts = np.asarray(points, dtype=np.float64)
        n = len(pts)
        return cls(pts, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class GridPartition:
    """Square grid partition of the unit square into base**level cells a side.

    Cells are half-open, left-closed, except that the last row and column
    are closed: the cell index of a coordinate is
    min(floor(coordinate * base**level), base**level - 1), so 1.0 lies in
    the last cell.  Cell indices are int64, so a negative level or a scale
    base**level of 2**63 or more is rejected.
    """

    base: int
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"grid level must be >= 0, got {self.level}")
        if self.base**self.level >= 2**63:
            raise ValueError(f"grid scale {self.base}**{self.level} overflows int64 cell indices")

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        scale = self.base**self.level
        indices = np.floor(points * scale).astype(np.int64)
        return np.minimum(indices, scale - 1, out=indices)

    @property
    def norm_log(self) -> float:
        """Normalizing log-scale: the log of the number of cells a side."""
        return self.level * math.log(self.base)


@dataclass(frozen=True)
class EntropyReport:
    entropy: float
    cell_count: int
    normalized: float


def entropy(mu: DiscreteMeasure, part: GridPartition) -> EntropyReport:
    """Shannon entropy (nats) of the cell masses of ``mu``."""
    mu.require_normalized()
    mask = mu.weights > 0.0
    masses = _aggregate(mu.points[mask], mu.weights[mask], part)
    h = float(-(masses * np.log(masses)).sum()) if len(masses) else 0.0
    h = max(h, 0.0) + 0.0  # clamp rounding noise; + 0.0 drops negative zero
    log_side = part.norm_log
    norm = h / log_side if log_side > 0.0 else 0.0
    return EntropyReport(entropy=h, cell_count=len(masses), normalized=norm)


def _aggregate(points: np.ndarray, weights: np.ndarray, part: GridPartition) -> np.ndarray:
    """Masses of the occupied cells of ``part``, in lexicographic (ix, iy) order.

    Each cell's weights are added one by one in atom order (``bincount``),
    so the masses do not depend on how the cells are found.  Fewer than two
    atoms need no cell indices: a single atom is its own cell.  A small grid,
    ``scale**2 <= 4 * len(weights)``, is counted: the key ix * scale + iy
    ascends in (ix, iy) order.  A larger grid is sorted, so memory stays
    bounded.
    """
    if len(weights) < 2:
        return weights[weights > 0.0]
    scale = part.base**part.level
    indices = part.cell_indices(points)
    if scale**2 <= _COUNT_TABLE_PER_ATOM * len(weights):
        sums = np.bincount(indices[:, 0] * scale + indices[:, 1], weights)
        return sums[sums > 0.0]
    order = np.lexsort((indices[:, 1], indices[:, 0]))
    cells = indices[order]
    new_cell = np.empty(len(order), dtype=bool)
    new_cell[0] = True
    np.not_equal(cells[1:, 0], cells[:-1, 0], out=new_cell[1:])
    new_cell[1:] |= cells[1:, 1] != cells[:-1, 1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new_cell) - 1
    sums = np.bincount(inverse, weights)
    return sums[sums > 0.0]


def _locate(mu: DiscreteMeasure, sq: ApproxSquare) -> tuple[np.ndarray, np.ndarray]:
    """Cell membership of the atoms and their (N, 2) offsets in the cell:
    the products with the cell's scales less its index pair, in
    ``np.longdouble``.

    An atom is in the cell when both offsets lie in [0, 1), a range test
    that decides ``floor(product) == index`` exactly, without ``floorl``:
    where the product s satisfies o <= s < o + 1 for the whole index o
    (as a ``longdouble``, rounded when above 2**64), s - o is exact
    (Sterbenz), and rounding is monotone and maps no nonzero difference to
    0, so outside that range the offset is negative or at least 1.  The
    products are exact enough for iterated zooms only where ``longdouble``
    has a 64-bit significand (x87 extended, as on x86-64 Linux); where it
    is plain float64, acceptance criterion 6 fails.
    """
    scales, origin = np.array(
        [[sq.x_scale, sq.y_scale], [sq.x_index, sq.y_index]], dtype=np.longdouble
    )
    offset = mu.points * scales
    offset -= origin
    hit = offset >= _LD_ZERO
    hit &= offset < _LD_ONE
    return hit[:, 0] & hit[:, 1], offset


def condition_rescale(mu: DiscreteMeasure, sq: ApproxSquare) -> DiscreteMeasure:
    """Condition ``mu`` on the cell and blow the cell up to the unit square.

    Atoms in the cell are renormalized to total mass 1 and mapped by
    (x, y) -> (frac(x * m^p), frac(y * n^k)); the result's ``cell_mass`` is
    the weight of every atom in the cell, those too light to keep included.
    The kept weights are summed once; that sum is the cell mass unless light
    atoms sit in the cell, and only then is the cell summed again.
    The new coordinates are ``_locate``'s offsets, computed in
    ``np.longdouble`` with a 64-bit significand, so that iterating
    single-level zooms agrees with one deep zoom to well below 1e-9 per
    coordinate.
    """
    in_cell, offset = _locate(mu, sq)
    mask = in_cell & (mu.weights > MIN_ATOM_WEIGHT)
    wts = mu.weights[mask]
    if not len(wts):
        raise ZeroMassCell("cell carries no mass")
    total = wts.sum()  # positive: every kept weight exceeds MIN_ATOM_WEIGHT
    out = offset[mask].astype(np.float64)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, BELOW_ONE, out=out)
    conditioned = DiscreteMeasure(out, wts / total, validate=False)
    # with no light atom in the cell, the kept weights are the cell's weights
    # in the same order, so their sum has the bits of the cell's sum
    if np.count_nonzero(in_cell) == len(wts):
        conditioned.cell_mass = float(total)
    else:
        conditioned.cell_mass = float(mu.weights[in_cell].sum())
    return conditioned


def finite_scale_dimension(mu: DiscreteMeasure, base: int, levels: Iterable[int]) -> float:
    """Least-squares slope of grid entropy against level * log(base).

    A finite-scale stand-in for the dimension of the measure; exact only in
    the limit, reported as an estimate everywhere.
    """
    lvls = sorted(set(int(l) for l in levels))
    if len(lvls) < 2:
        raise InsufficientLevels("need at least 2 levels")
    xs = np.array([l * math.log(base) for l in lvls])
    hs = np.array([entropy(mu, GridPartition(base, l)).entropy for l in lvls])
    slope = np.polyfit(xs, hs, 1)[0]
    return float(slope)
