"""Finitely supported measures on the unit square and their grid entropies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientLevels, SupportMismatch, UnnormalizedMeasure, ZeroMassCell
from .symbolic import ApproxSquare

MASS_TOL = 1e-12
MIN_ATOM_WEIGHT = 1e-300  # below this, conditioning drops the atom outright


class DiscreteMeasure:
    """Weighted atoms in [0, 1]^2, treated as an immutable value.

    Aggregations use numpy reductions, which are deterministic and
    order-independent for a fixed atom array.
    """

    def __init__(self, points, weights, *, validate: bool = True):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        wts = np.ascontiguousarray(weights, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or wts.shape != (pts.shape[0],):
            raise ValueError("points must be (N, 2) and weights (N,)")
        if validate:
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
    """Product grid partition with independent horizontal/vertical scales.

    Cells are half-open, left-closed: the cell index of a coordinate is
    floor(coordinate * base**level).  A level of 0 on one axis means that
    axis is not partitioned at all.  Cell indices are int64, so a negative
    level or a scale base**level of 2**63 or more is rejected.
    """

    x_base: int
    x_level: int
    y_base: int
    y_level: int

    def __post_init__(self):
        for base, level in ((self.x_base, self.x_level), (self.y_base, self.y_level)):
            if level < 0:
                raise ValueError(f"grid level must be >= 0, got {level}")
            if base**level >= 2**63:
                raise ValueError(f"grid scale {base}**{level} overflows int64 cell indices")

    @classmethod
    def square(cls, base: int, level: int) -> "GridPartition":
        return cls(base, level, base, level)

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        xs = self.x_base ** self.x_level
        ys = self.y_base ** self.y_level
        ix = np.floor(points[:, 0] * xs).astype(np.int64)
        iy = np.floor(points[:, 1] * ys).astype(np.int64)
        return np.stack([ix, iy], axis=1)

    @property
    def norm_log(self) -> float:
        """Normalizing log-scale: vertical side when present, else horizontal."""
        if self.y_level > 0:
            return self.y_level * math.log(self.y_base)
        if self.x_level > 0:
            return self.x_level * math.log(self.x_base)
        return 0.0


@dataclass(frozen=True)
class EntropyReport:
    entropy: float
    cell_count: int
    normalized: float


def entropy(mu: DiscreteMeasure, part: GridPartition) -> EntropyReport:
    """Shannon entropy (nats) of the cell masses of ``mu``."""
    mu.require_normalized()
    mask = mu.weights > 0.0
    idx = part.cell_indices(mu.points[mask])
    masses = _aggregate(idx, mu.weights[mask])
    h = float(-(masses * np.log(masses)).sum()) if len(masses) else 0.0
    h = max(h, 0.0) + 0.0  # clamp rounding noise; + 0.0 drops negative zero
    norm = h / part.norm_log if part.norm_log > 0.0 else 0.0
    return EntropyReport(entropy=h, cell_count=len(masses), normalized=norm)


def _aggregate(indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    if len(weights) == 0:
        return np.empty(0)
    _, inverse = np.unique(indices, axis=0, return_inverse=True)
    sums = np.zeros(inverse.max() + 1)
    np.add.at(sums, inverse, weights)
    return sums[sums > 0.0]


def gibbs_gap(p: Sequence[float], q: Sequence[float]) -> float:
    """Cross entropy minus entropy of p relative to q; nonnegative,
    zero iff the vectors coincide."""
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape:
        raise SupportMismatch("probability vectors differ in length")
    support = pa > 0.0
    if np.any(support & (qa <= 0.0)):
        raise SupportMismatch("q vanishes on the support of p")
    ps = pa[support]
    qs = qa[support]
    return float((ps * (np.log(ps) - np.log(qs))).sum())


def cell_mask(mu: DiscreteMeasure, sq: ApproxSquare) -> np.ndarray:
    """Atoms lying in the cell (left-closed convention, extended precision)."""
    ix = np.floor(mu.points[:, 0].astype(np.longdouble) * sq.x_scale)
    iy = np.floor(mu.points[:, 1].astype(np.longdouble) * sq.y_scale)
    return (ix == sq.x_index) & (iy == sq.y_index)


def condition_rescale(mu: DiscreteMeasure, sq: ApproxSquare) -> DiscreteMeasure:
    """Condition ``mu`` on the cell and blow the cell up to the unit square.

    Atoms in the cell are renormalized to total mass 1 and mapped by
    (x, y) -> (frac(x * m^p), frac(y * n^k)).  The rescaling runs in
    extended precision so that iterating single-level zooms agrees with one
    deep zoom to well below 1e-9 per coordinate.
    """
    mask = cell_mask(mu, sq) & (mu.weights > MIN_ATOM_WEIGHT)
    if not np.any(mask):
        raise ZeroMassCell("cell carries no mass")
    wts = mu.weights[mask]
    total = wts.sum()
    if total <= 0.0:
        raise ZeroMassCell("cell carries no mass")
    pts = mu.points[mask].astype(np.longdouble)
    scaled = np.empty_like(pts)
    scaled[:, 0] = pts[:, 0] * sq.x_scale - sq.x_index
    scaled[:, 1] = pts[:, 1] * sq.y_scale - sq.y_index
    out = scaled.astype(np.float64)
    np.clip(out, 0.0, np.nextafter(1.0, 0.0), out=out)
    return DiscreteMeasure(out, wts / total, validate=False)


def finite_scale_dimension(mu: DiscreteMeasure, base: int, levels: Iterable[int]) -> float:
    """Least-squares slope of grid entropy against level * log(base).

    A finite-scale stand-in for the dimension of the measure; exact only in
    the limit, reported as an estimate everywhere.
    """
    lvls = sorted(set(int(l) for l in levels))
    if len(lvls) < 2:
        raise InsufficientLevels("need at least 2 levels")
    xs = np.array([l * math.log(base) for l in lvls])
    hs = np.array([entropy(mu, GridPartition.square(base, l)).entropy for l in lvls])
    slope = np.polyfit(xs, hs, 1)[0]
    return float(slope)
