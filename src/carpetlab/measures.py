"""Finitely supported measures on the unit square and their grid entropies."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InsufficientLevels, UnnormalizedMeasure, ZeroMassCell
from .fit import log_scale_fit
from .symbolic import ApproxSquare

MASS_TOL = 1e-12
MIN_ATOM_WEIGHT = 1e-300  # below this, conditioning drops the atom outright
BELOW_ONE = np.nextafter(1.0, 0.0)  # rescaled coordinates are clamped into [0, BELOW_ONE]
_BELOW_ONE = float(BELOW_ONE)
# _locate's range as longdouble scalars: a Python float bound would be converted on every call
_LD_ZERO, _LD_ONE = np.longdouble(0), np.longdouble(1)
# np.longdouble(int) costs about as much as the rest of a one-atom locate, and
# a magnification step's scales and digit indices repeat, so the immutable
# scalars are kept, at most 4096 of them
_to_longdouble = functools.lru_cache(maxsize=4096)(np.longdouble)
# the weights of every conditioned one-atom measure, w / w; read-only, so shared
_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)
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

    def __init__(self, points, weights):
        # copies: the caller's arrays stay its own, and writable
        pts = np.array(points, dtype=np.float64, order="C")
        wts = np.array(weights, dtype=np.float64, order="C")
        if pts.ndim != 2 or pts.shape[1] != 2 or wts.shape != (pts.shape[0],):
            raise ValueError("points must be (N, 2) and weights (N,)")
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

    @classmethod
    def _trusted(cls, points: np.ndarray, weights: np.ndarray) -> "DiscreteMeasure":
        """A measure on float64 arrays of shapes (N, 2) and (N,) that the
        caller built valid and hands over: they are made read-only, with no
        copy and no check."""
        points.setflags(write=False)
        weights.setflags(write=False)
        mu = object.__new__(cls)
        mu.points = points
        mu.weights = weights
        return mu

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def require_normalized(self):
        if not abs(self.total_mass - 1.0) <= MASS_TOL:  # NaN fails too
            raise UnnormalizedMeasure(f"total mass {self.total_mass} != 1")

    @classmethod
    def point_mass(cls, x: float, y: float) -> "DiscreteMeasure":
        return cls([[x, y]], [1.0])

    @classmethod
    def uniform_on(cls, points) -> "DiscreteMeasure":
        pts = np.asarray(points, dtype=np.float64)
        n = len(pts)
        if n == 0:
            raise ValueError("a uniform measure needs at least one point")
        return cls(pts, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class GridPartition:
    """Square grid partition of the unit square into base**level cells a side.

    Cells are half-open, left-closed, except that the last row and column
    are closed: the cell index of a coordinate is
    min(floor(coordinate * base**level), base**level - 1), so 1.0 lies in
    the last cell.  A base below 2 has no cells to refine, and cell indices
    are int64, so a base below 2, a negative level or a scale base**level
    of 2**63 or more is rejected.
    """

    base: int
    level: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"grid base must be >= 2, got {self.base}")
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
    """Shannon entropy (nats) of the cell masses of ``mu``.

    A normalized one-atom measure has one positive weight w in one cell, so
    its points are not grouped: h is -(w * log w) on the numpy
    scalar w, the same ``np.log`` and the same product as the array sum of
    one term, and so the same bits.  Zero weights, which the checked
    constructor allows, are not masked out: each adds an exact 0.0 to its
    cell's sum, and ``_aggregate`` drops every cell whose sum is 0.0, in
    either of its branches, so the masses are the same bits.
    """
    mu.require_normalized()
    if len(mu.weights) == 1:
        w = mu.weights[0]
        h, cells = float(-(w * np.log(w))), 1
    else:
        masses = _aggregate(mu.points, mu.weights, part)
        h = float(-(masses * np.log(masses)).sum())
        cells = len(masses)
    h = max(h, 0.0) + 0.0  # clamp rounding noise; + 0.0 drops negative zero
    log_side = part.norm_log
    norm = h / log_side if log_side > 0.0 else 0.0
    return EntropyReport(entropy=h, cell_count=cells, normalized=norm)


def _aggregate(points: np.ndarray, weights: np.ndarray, part: GridPartition) -> np.ndarray:
    """Masses of the occupied cells of ``part``, in lexicographic (ix, iy) order.

    Each cell's weights are added one by one in atom order (``bincount``),
    so the masses do not depend on how the cells are found.  A small grid,
    ``scale**2 <= 4 * len(weights)``, is counted: the key ix * scale + iy
    ascends in (ix, iy) order.  A larger grid is sorted, so memory stays
    bounded.
    """
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


def _locate(
    mu: DiscreteMeasure, sq: ApproxSquare
) -> tuple[np.ndarray | bool, np.ndarray | tuple[np.longdouble, np.longdouble]]:
    """Cell membership of the atoms and their (N, 2) offsets in the cell:
    the products with the cell's scales less its index pair, in
    ``np.longdouble``.  A one-atom measure takes the same operations on
    scalars, with no array: its membership is one bool and its offsets a
    pair of ``np.longdouble`` scalars.  Each scale and index is converted
    by ``np.longdouble(int)``, which rounds an int as the array build does,
    above 2**64 too, and is cached.

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
    if len(mu.weights) == 1:
        ((x, y),) = mu.points.tolist()
        ox = x * _to_longdouble(sq.x_scale) - _to_longdouble(sq.x_index)
        oy = y * _to_longdouble(sq.y_scale) - _to_longdouble(sq.y_index)
        return bool(_LD_ZERO <= ox < _LD_ONE and _LD_ZERO <= oy < _LD_ONE), (ox, oy)
    scales, origin = np.array(
        [[sq.x_scale, sq.y_scale], [sq.x_index, sq.y_index]], dtype=np.longdouble
    )
    offset = mu.points * scales
    offset -= origin
    hit = offset >= _LD_ZERO
    hit &= offset < _LD_ONE
    return hit[:, 0] & hit[:, 1], offset


def holds_mass(mu: DiscreteMeasure, sq: ApproxSquare) -> bool:
    """Whether ``condition_rescale(mu, sq)`` would keep an atom: some atom
    in the cell outweighs ``MIN_ATOM_WEIGHT``.  Nothing is conditioned."""
    in_cell, _ = _locate(mu, sq)
    return bool(np.any(in_cell & (mu.weights > MIN_ATOM_WEIGHT)))


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

    A one-atom measure takes the same steps on scalars: the weight test,
    the cast of each offset to float64 and the clamp, which, as
    ``np.maximum`` does, gives +0.0 for -0.0.  Its new weight is w / w = 1,
    its ``cell_mass`` is w, and its arrays are built with no copy and no
    validation pass.
    """
    in_cell, offset = _locate(mu, sq)
    if len(mu.weights) == 1:
        w = mu.weights.item()
        if not (in_cell and w > MIN_ATOM_WEIGHT):
            raise ZeroMassCell("cell carries no mass")
        x, y = (_clamp(float(o)) for o in offset)
        conditioned = DiscreteMeasure._trusted(np.array([[x, y]]), _UNIT_WEIGHT)
        conditioned.cell_mass = w
        return conditioned
    mask = in_cell & (mu.weights > MIN_ATOM_WEIGHT)
    wts = mu.weights[mask]
    if not len(wts):
        raise ZeroMassCell("cell carries no mass")
    total = wts.sum()  # positive: every kept weight exceeds MIN_ATOM_WEIGHT
    out = offset[mask].astype(np.float64)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, BELOW_ONE, out=out)
    conditioned = DiscreteMeasure._trusted(out, wts / total)
    # with no light atom in the cell, the kept weights are the cell's weights
    # in the same order, so their sum has the bits of the cell's sum
    if np.count_nonzero(in_cell) == len(wts):
        conditioned.cell_mass = float(total)
    else:
        conditioned.cell_mass = float(mu.weights[in_cell].sum())
    return conditioned


def _clamp(v: float) -> float:
    """``np.minimum(np.maximum(v, 0.0), BELOW_ONE)`` for one float.

    Python's ``max(-0.0, 0.0)`` is -0.0, while ``np.maximum`` gives +0.0,
    so the lower bound is a comparison that sends -0.0 to +0.0 as well.
    """
    if v >= _BELOW_ONE:
        return _BELOW_ONE
    return v if v > 0.0 else 0.0


def finite_scale_dimension(mu: DiscreteMeasure, base: int, levels: Iterable[int]) -> float:
    """Least-squares slope of grid entropy against level * log(base)
    (``log_scale_fit``).

    A finite-scale stand-in for the dimension of the measure; exact only in
    the limit, reported as an estimate everywhere.
    """
    lvls = sorted(set(int(l) for l in levels))
    if len(lvls) < 2:
        raise InsufficientLevels("need at least 2 levels")
    hs = [entropy(mu, GridPartition(base, l)).entropy for l in lvls]
    return log_scale_fit(lvls, hs, base)[0]
