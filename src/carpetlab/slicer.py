"""Conservative covers of a line slice through a carpet by near-square cells.

The enumeration walks the tree of digit-addressed cells that are consistent
with the carpet's digit set, keeping a cell exactly when the line passes
within the inflation radius of it.  The line-versus-rectangle test rounds
every intermediate value outward, so at inflation 0 the kept set is a
guaranteed superset of the truly intersecting cells: false positives only
loosen a count, false negatives would corrupt it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .carpet import Carpet, dimension_report
from .errors import (
    AxisParallelLine,
    CellBudgetExceeded,
    EmptySlice,
    InsufficientData,
)
from .measures import DiscreteMeasure
from .symbolic import ApproxSquare, RotationOrbit, SymbolWord

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class Line:
    """Non-vertical, non-horizontal line y = slope * x + intercept.

    ``u0`` records the slope exponent when the line was built as
    sign * m**u0; literal-slope lines recover it from log |slope|.
    """

    slope: float
    intercept: float
    u0: float | None = None

    def __post_init__(self):
        if self.slope == 0.0 or not math.isfinite(self.slope):
            raise AxisParallelLine(f"slope {self.slope} is not usable")

    @classmethod
    def from_exponent(
        cls, m: int, u0: float, intercept: float = 0.0, sign: int = 1
    ) -> "Line":
        if not (0.0 <= u0 < 1.0):
            raise ValueError(f"u0 must be in [0, 1), got {u0}")
        return cls(slope=sign * float(m) ** u0, intercept=intercept, u0=u0)

    def exponent(self, m: int) -> float:
        if self.u0 is not None:
            return self.u0
        return math.log(abs(self.slope)) / math.log(m) % 1.0


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _line_meets_cell(
    slope: float,
    intercept: float,
    inflation: float,
    x_index: int,
    x_scale: int,
    y_index: int,
    y_scale: int,
) -> bool:
    # cell corners: int/int division is correctly rounded, one ulp outward
    # makes the bracket safe
    x0 = _down(_down(x_index / x_scale) - inflation)
    x1 = _up(_up((x_index + 1) / x_scale) + inflation)
    y0 = _down(_down(y_index / y_scale) - inflation)
    y1 = _up(_up((y_index + 1) / y_scale) + inflation)
    lo = math.inf
    hi = -math.inf
    for e in (x0, x1):
        prod = slope * e
        lo = min(lo, _down(_down(prod) + intercept))
        hi = max(hi, _up(_up(prod) + intercept))
    return lo <= y1 and hi >= y0


_Node = tuple[tuple[int, ...], tuple[int, ...]]  # (x digits, y digits)


def _children(c: Carpet, node: _Node, depth: int, carry: bool) -> Iterable[_Node]:
    """Expand a depth-``depth`` cell one level down the carpet tree.

    Digit pairs at equal positions must belong to the carpet, which couples
    the new vertical digit to an existing horizontal one whenever the
    horizontal word runs a position ahead, and vice versa on carry steps.
    """
    xw, yw = node
    p = len(xw)
    if p >= depth + 1:
        y_choices = sorted(c.column_rows(xw[depth]))
    else:
        y_choices = list(c.rows)
    for b in y_choices:
        if not carry:
            yield (xw, yw + (b,))
        elif p + 1 <= depth:
            for a in sorted(c.row_digits(yw[p])):
                yield (xw + (a,), yw + (b,))
        elif p + 1 == depth + 1:
            for a in sorted(c.row_digits(b)):
                yield (xw + (a,), yw + (b,))
        else:  # horizontal word moves a position ahead of the vertical one
            for a in c.columns:
                yield (xw + (a,), yw + (b,))


def _roots(c: Carpet, p0: int) -> list[_Node]:
    if p0 == 0:
        return [((), ())]
    return [((a,), ()) for a in c.columns]


def _walk(
    c: Carpet,
    orbit: RotationOrbit,
    line: Line,
    inflation: float,
    max_depth: int,
    budget: int,
) -> tuple[list[int], list[_Node]]:
    """Depth-first pruned traversal; returns kept counts per depth and the
    kept nodes at ``max_depth``.  Deterministic: children are expanded in
    lexicographic digit order."""
    returns = orbit.return_counts(max_depth + 1)
    visited = 0
    counts = [0] * (max_depth + 1)
    collected: list[_Node] = []
    stack: list[tuple[_Node, int]] = []

    def admit(node: _Node) -> bool:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise CellBudgetExceeded(f"visited more than {budget} cells")
        xw, yw = node
        return _line_meets_cell(
            line.slope,
            line.intercept,
            inflation,
            _digits_to_index(xw, c.m),
            c.m ** len(xw),
            _digits_to_index(yw, c.n),
            c.n ** len(yw),
        )

    for root in reversed(_roots(c, int(returns[0]))):
        stack.append((root, 0))
    while stack:
        node, depth = stack.pop()
        if not admit(node):
            continue
        counts[depth] += 1
        if depth == max_depth:
            collected.append(node)
        else:
            carry = returns[depth + 1] > returns[depth]
            for child in reversed(list(_children(c, node, depth, bool(carry)))):
                stack.append((child, depth + 1))
    return counts, collected


def _digits_to_index(digits: tuple[int, ...], base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def _node_to_square(c: Carpet, node: _Node) -> ApproxSquare:
    xw, yw = node
    return ApproxSquare(SymbolWord(c.m, xw), SymbolWord(c.n, yw))


@dataclass
class SliceCover:
    """Kept cells at one depth plus the per-depth counts of the traversal."""

    depth: int
    cells: list[ApproxSquare]
    counts: list[int]  # counts[j] = kept cells at depth j, j = 0..depth
    inflation: float
    line: Line

    @property
    def count(self) -> int:
        return self.counts[self.depth]


def slice_cover(
    c: Carpet,
    line: Line,
    depth: int,
    inflation: float = 0.0,
    budget: int = DEFAULT_BUDGET,
) -> SliceCover:
    """Cells of depth ``depth`` whose (inflated) rectangle the line may meet."""
    if depth > 20:
        raise ValueError("depth capped at 20")
    if inflation < 0.0:
        raise ValueError("inflation must be >= 0")
    orbit = RotationOrbit(c.theta, line.exponent(c.m))
    counts, nodes = _walk(c, orbit, line, inflation, depth, budget)
    cells = [_node_to_square(c, nd) for nd in nodes]
    return SliceCover(depth=depth, cells=cells, counts=counts, inflation=inflation, line=line)


def slice_counts(
    c: Carpet,
    line: Line,
    depths: Iterable[int],
    inflation: float = 0.0,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, int]]:
    """(depth, kept-cell count) pairs from one traversal of the pruned tree."""
    ks = sorted(set(int(k) for k in depths))
    cover = slice_cover(c, line, max(ks), inflation=inflation, budget=budget)
    return [(k, cover.counts[k]) for k in ks]


@dataclass
class SliceEstimate:
    """Regression readout of a multiscale cover-count series."""

    slope: float
    stderr: float
    depths: list[int]
    counts: list[tuple[int, int]]
    bounds: dict[str, float]
    empty: bool = False

    def to_dict(self) -> dict:
        return {
            "schema": "carpet-lab/1",
            "slope": self.slope,
            "stderr": self.stderr,
            "depths": self.depths,
            "bounds": self.bounds,
            "empty": self.empty,
        }


def carpet_bounds(c: Carpet) -> dict[str, float]:
    rep = dimension_report(c)
    return {
        "theorem_h": rep.slice_bound_h,
        "theorem_p": rep.slice_bound_p,
        "prior": rep.prior_bound,
        "marstrand_h": rep.marstrand_h,
        "marstrand_p": rep.marstrand_p,
    }


def estimate_slice_dimension(
    c: Carpet, counts: list[tuple[int, int]], drop_head: int = 3
) -> SliceEstimate:
    """Least-squares slope of log N_k against k log n.

    The first ``drop_head`` entries are discarded as transient: shallow
    counts are dominated by the bounded aspect-ratio constant of the cells,
    not by the slice itself.
    """
    tail = counts[drop_head:]
    usable = [(k, nk) for k, nk in tail if nk > 0]
    if len(usable) < 3:
        raise InsufficientData(f"need >= 3 positive depths after drop_head, have {len(usable)}")
    log_n = math.log(c.n)
    xs = np.array([k * log_n for k, _ in usable])
    ys = np.array([math.log(nk) for _, nk in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = len(usable) - 2
    sxx = float(((xs - xs.mean()) ** 2).sum())
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx) if dof > 0 and sxx > 0 else 0.0
    return SliceEstimate(
        slope=max(0.0, float(slope)),
        stderr=stderr,
        depths=[k for k, _ in usable],
        counts=list(counts),
        bounds=carpet_bounds(c),
    )


def cover_measure(
    c: Carpet, line: Line, depth: int, inflation: float = 0.0
) -> DiscreteMeasure:
    """Uniform probability measure on the centers of the depth-k cover cells."""
    cover = slice_cover(c, line, depth, inflation=inflation)
    if not cover.cells:
        raise EmptySlice("cover is empty at the requested depth")
    centers = np.array([sq.center() for sq in cover.cells])
    return DiscreteMeasure.uniform_on(centers)


def exact_cover_cells(
    c: Carpet,
    slope: Fraction,
    intercept: Fraction,
    depth: int,
    u0: float,
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact-rational reference cover at one depth.

    Enumerates every carpet-consistent cell of the given depth (no pruning)
    and keeps those whose closed rectangle the line meets, decided entirely
    in rational arithmetic.  Independent of the floating-point route: used
    to certify that the conservative cover is a superset.
    """
    orbit = RotationOrbit(c.theta, u0)
    returns = orbit.return_counts(depth + 1)
    level: list[_Node] = _roots(c, int(returns[0]))
    for d in range(depth):
        carry = returns[d + 1] > returns[d]
        nxt: list[_Node] = []
        for node in level:
            nxt.extend(_children(c, node, d, bool(carry)))
        level = nxt
    kept: set[_Node] = set()
    for xw, yw in level:
        xs = Fraction(c.m) ** len(xw)
        ys = Fraction(c.n) ** len(yw)
        x0 = Fraction(_digits_to_index(xw, c.m)) / xs
        x1 = x0 + 1 / xs
        y0 = Fraction(_digits_to_index(yw, c.n)) / ys
        y1 = y0 + 1 / ys
        va = slope * x0 + intercept
        vb = slope * x1 + intercept
        lo, hi = min(va, vb), max(va, vb)
        if lo <= y1 and hi >= y0:
            kept.add((xw, yw))
    return kept
