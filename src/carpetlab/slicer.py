"""Covers of a line slice through a carpet by near-square cells.

The enumeration walks the tree of digit-addressed cells that are consistent
with the carpet's digit set, keeping a cell exactly when the line meets its
closed rectangle: a float64 test with a proven error bound decides nearly
every cell, and integer arithmetic decides the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .carpet import Carpet, dimension_report
from .errors import AxisParallelLine, CellBudgetExceeded, InsufficientData
from .symbolic import ApproxSquare, RotationOrbit, SymbolWord, digits_to_index

DEFAULT_BUDGET = 10**8
MAX_DEPTH = 20


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
        if not math.isfinite(self.slope):
            raise ValueError(f"slope must be finite, got {self.slope}")
        if self.slope == 0.0:
            raise AxisParallelLine(f"slope {self.slope} is not usable")
        if not math.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept}")

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
        e = math.log(abs(self.slope)) / math.log(m) % 1.0
        return e if e < 1.0 else 0.0  # % rounds a tiny negative quotient up to 1.0


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


def _cell_meets_line(q: int, rise: int, height: int) -> bool:
    """Exact closed-cell test: [min(q, q + rise), max(q, q + rise)] meets [0, height].

    For the cell [x, x+1]/X x [y, y+1]/Y and the line y = (S·x + T)/D, all
    scaled by D·X·Y: q = Y·(S·x + T·X) - y·X·D, rise = Y·S, height = X·D.
    """
    return min(q, q + rise) <= height and max(q, q + rise) >= 0


def _meets_line(
    slope: np.ndarray, intercept: np.ndarray, x: np.ndarray, x_scale: int, y: np.ndarray, y_scale: int
) -> np.ndarray:
    """Exact test of the closed cells [x, x+1]/x_scale x [y, y+1]/y_scale.

    ``slope`` and ``intercept`` hold each cell's line, element by element.  A
    line meets a cell iff the gaps y1 - lo and hi - y0 are >= 0, lo and hi
    being its values at the cell's x ends; float64 decides every gap outside
    the line's margin, and ``_cell_meets_line`` the others.
    """
    at0 = (x / x_scale).astype(np.float64, copy=False)
    at1 = ((x + 1) / x_scale).astype(np.float64, copy=False)
    np.add(np.multiply(slope, at0, out=at0), intercept, out=at0)
    np.add(np.multiply(slope, at1, out=at1), intercept, out=at1)
    lo = np.minimum(at0, at1)
    hi = np.maximum(at0, at1, out=at0)
    del at1  # this test's float arrays set the walk's memory peak: hold few at once
    np.subtract(((y + 1) / y_scale).astype(np.float64, copy=False), lo, out=lo)
    np.subtract(hi, (y / y_scale).astype(np.float64, copy=False), out=hi)
    gap = np.minimum(lo, hi, out=lo)
    keep = gap >= 0
    # With u = 2**-53: a quotient index/scale lies in [0, 1] and is correctly
    # rounded (the dtype rule of _walk), so it is off by <= u; a line value,
    # one rounded product and sum, by <= u(3|s| + |t|) + O(u**2); and a gap,
    # one more quotient and rounded difference, by <= 4u(|s| + |t| + 1) +
    # O(u**2).  The margin is twice that, which covers its own rounding.
    margin = (np.abs(slope) + np.abs(intercept) + 1.0) * 2.0**-50
    for i in np.flatnonzero(np.abs(gap, out=gap) <= margin):
        (s, ds), (t, dt) = slope[i].as_integer_ratio(), intercept[i].as_integer_ratio()
        s, t, d = s * dt, t * ds, ds * dt  # over one denominator d
        q = y_scale * (s * int(x[i]) + t * x_scale) - int(y[i]) * x_scale * d
        keep[i] = _cell_meets_line(q, y_scale * s, x_scale * d)
    return keep


def _digit(index: np.ndarray, base: int, place: int) -> np.ndarray:
    """Digit of weight ``base**place`` of every index, as array indices."""
    return (index // base**place % base).astype(np.intp)


def _walk(
    c: Carpet,
    returns: Sequence[int],
    lines: list[Line],
    max_depth: int,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-synchronous pruned traversal of the carpet tree for lines of one carry sequence.

    A line's slope exponent reaches the walk only through ``returns``, so
    lines that share their carries walk as one frontier, whatever their
    exponents.  A level's frontier holds the digit indices ``x_index``
    (base m, length ``returns[depth]``) and ``y_index`` (base n, length
    ``depth``) of its kept cells and the index of the line each cell
    belongs to, line-major, each line's cells in depth-first preorder.
    Returns the kept counts as a (line, depth) table and the index arrays
    of the kept cells at ``max_depth``.  Every tested cell of every line
    counts against ``budget``, checked before a level is built, so one
    line tests exactly the cells it tests alone.
    """
    m, n = c.m, c.n
    # int64 -> float64 division is correctly rounded only while both
    # operands are below 2**53; past that, object arrays of Python ints run
    # the same expressions with exact integer arithmetic
    exact_in_int64 = m ** returns[max_depth] < 2**53 and n**max_depth < 2**53
    dtype = np.int64 if exact_in_int64 else object
    pairs = np.zeros((n, m), dtype=bool)  # pairs[b, a]: digit pair (a, b) allowed
    for a, b in c.digits:
        pairs[b, a] = True
    rows, columns = pairs.any(axis=1), pairs.any(axis=0)
    slopes = np.array([line.slope for line in lines])
    intercepts = np.array([line.intercept for line in lines])

    roots = np.array(c.columns if returns[0] else [0], dtype=dtype)
    x = np.tile(roots, len(lines))
    y = np.zeros(len(x), dtype=dtype)
    owner = np.repeat(np.arange(len(lines)), len(roots))
    tested = len(x)
    if tested > budget:
        raise CellBudgetExceeded(f"visited more than {budget} cells")
    counts = np.zeros((len(lines), max_depth + 1), dtype=np.int64)
    for depth in range(max_depth + 1):
        keep = _meets_line(slopes[owner], intercepts[owner], x, m ** returns[depth], y, n**depth)
        x, y, owner = x[keep], y[keep], owner[keep]
        counts[:, depth] = np.bincount(owner, minlength=len(lines))
        if depth == max_depth:
            break
        # the coupling cases of _children as a (node, b, a) mask; node-major
        # nonzero expands the level in depth-first preorder, line by line
        p, carry = returns[depth], returns[depth + 1] > returns[depth]
        if p > depth:  # the horizontal word is a position ahead: b pairs with xw[depth]
            b_ok = pairs[:, _digit(x, m, p - 1 - depth)].T
        else:
            b_ok = np.broadcast_to(rows, (len(x), n))
        if not carry:
            a_ok = np.ones((1, 1, 1), dtype=bool)
        elif p < depth:  # the new a pairs with yw[p]
            a_ok = pairs[_digit(y, n, depth - 1 - p)][:, None, :]
        elif p == depth:  # the new a pairs with the new b
            a_ok = pairs[None]
        else:
            a_ok = columns[None, None, :]
        mask = b_ok[:, :, None] & a_ok
        tested += int(np.count_nonzero(mask))
        if tested > budget:
            raise CellBudgetExceeded(f"visited more than {budget} cells")
        node, b, a = np.nonzero(mask)
        y = y[node] * n + b
        x = x[node] * m + a if carry else x[node]
        owner = owner[node]
        del mask, node, b, a  # freed before the next level's test, the walk's memory peak
    return counts, x, y


def _index_to_digits(index: np.ndarray, base: int, length: int) -> list[tuple[int, ...]]:
    """Length-``length`` base-``base`` words of the indices, most significant first."""
    places = [_digit(index, base, length - 1 - j).tolist() for j in range(length)]
    return list(zip(*places)) if places else [()] * len(index)


@dataclass(eq=False)
class SliceCover:
    """Per-depth counts of the traversal plus the kept cells at one depth.

    A cover of several lines holds the cells of every line, line-major.
    """

    depth: int
    counts: list[int]  # counts[j] = kept cells at depth j, j = 0..depth, over all lines
    line_counts: list[list[int]]  # line_counts[i][j] = kept cells of line i at depth j
    carpet: Carpet
    x_depth: int  # horizontal word length of the kept cells
    x_index: np.ndarray  # kept cells at ``depth``, in depth-first order
    y_index: np.ndarray

    @property
    def count(self) -> int:
        return self.counts[self.depth]

    @cached_property
    def cells(self) -> list[ApproxSquare]:
        """Kept cells at ``depth`` as approximate squares, built on first use."""
        return self._squares(slice(None))

    def cell(self, i: int) -> ApproxSquare:
        """The i-th kept cell, built alone."""
        return self._squares(slice(i, i + 1))[0]

    def _squares(self, which: slice) -> list[ApproxSquare]:
        m, n = self.carpet.m, self.carpet.n
        xs = _index_to_digits(self.x_index[which], m, self.x_depth)
        ys = _index_to_digits(self.y_index[which], n, self.depth)
        return [ApproxSquare(SymbolWord(m, xw), SymbolWord(n, yw)) for xw, yw in zip(xs, ys)]

    @property
    def centers(self) -> np.ndarray:
        """(count, 2) float64 centers of the kept cells, without building them.

        The same operations as ``ApproxSquare.center``: int64 indices stay
        below 2**53, so they convert to float64 exactly; object arrays run
        the Python-int expressions element by element.
        """
        x = (self.x_index + 0.5) / self.carpet.m**self.x_depth
        y = (self.y_index + 0.5) / self.carpet.n**self.depth
        return np.column_stack((x, y)).astype(np.float64)


def carries(c: Carpet, exponent: float, depth: int) -> tuple[int, ...]:
    """Return counts R(0..depth) of the rotation orbit of ``exponent``.

    A walk to ``depth`` reads a line's slope exponent only through them,
    so lines with equal carries can share one walk.
    """
    return tuple(int(r) for r in RotationOrbit(c.theta, exponent).return_counts(depth))


def slice_cover(
    c: Carpet,
    line: Line | Sequence[Line],
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> SliceCover:
    """Cells of depth ``depth`` whose closed rectangle the line meets.

    ``line`` may also be a sequence of lines that share one carry sequence
    (see ``carries``), whatever their exponents: they walk the carpet tree
    as one frontier, and ``budget`` caps the cells tested over all of them.
    Each line's counts and kept cells are those it has alone.
    """
    if depth > MAX_DEPTH:
        raise ValueError(f"depth capped at {MAX_DEPTH}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    lines = [line] if isinstance(line, Line) else list(line)
    keys = {carries(c, e, depth) for e in {ln.exponent(c.m) for ln in lines}}
    if len(keys) != 1:
        raise ValueError(f"a batch needs lines of one carry sequence, got {len(keys)}")
    returns = keys.pop()
    # A line value in _meets_line overflows to +-inf only when the line's
    # margin |s| + |t| + 1 does too, and an infinite margin sends every cell
    # of that line to the exact integer kernel: the cover stays exact, so the
    # overflow warning is noise.  One errstate per walk, since each entry
    # costs about a microsecond.
    with np.errstate(over="ignore"):
        counts, x_index, y_index = _walk(c, returns, lines, depth, budget)
    return SliceCover(
        depth=depth,
        counts=counts.sum(axis=0).tolist(),
        line_counts=counts.tolist(),
        carpet=c,
        x_depth=returns[depth],
        x_index=x_index,
        y_index=y_index,
    )


def slice_counts(
    c: Carpet,
    line: Line,
    depths: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, int]]:
    """(depth, kept-cell count) pairs from one traversal of the pruned tree."""
    ks = sorted(set(int(k) for k in depths))
    cover = slice_cover(c, line, max(ks), budget=budget)
    return [(k, cover.counts[k]) for k in ks]


@dataclass
class SliceEstimate:
    """Regression readout of a multiscale cover-count series."""

    slope: float
    stderr: float
    depths: list[int]


def carpet_bounds(c: Carpet) -> dict[str, float]:
    """The carpet's slice-dimension bounds, in the order of ``sweep``'s columns."""
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
    if drop_head < 0:
        raise ValueError(f"drop_head must be >= 0, got {drop_head}")
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
    )


def exact_cover_cells(
    c: Carpet,
    slope: Fraction,
    intercept: Fraction,
    depth: int,
    u0: float,
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact-rational reference cover at one depth.

    Walks the carpet-consistent cells level by level and keeps those whose
    closed rectangle the line meets, decided entirely in rational
    arithmetic.  Only kept cells are expanded: a child's closed rectangle
    lies inside its parent's, so a parent the line misses has no child the
    line meets, and the pruning returns the same set as testing every cell
    of the given depth.  Independent of the walk's float and integer tests:
    the tests check that ``slice_cover`` keeps exactly this set.
    """

    def meets(node: _Node) -> bool:
        xw, yw = node
        xs = Fraction(c.m) ** len(xw)
        ys = Fraction(c.n) ** len(yw)
        x0 = Fraction(digits_to_index(xw, c.m)) / xs
        x1 = x0 + 1 / xs
        y0 = Fraction(digits_to_index(yw, c.n)) / ys
        y1 = y0 + 1 / ys
        va = slope * x0 + intercept
        vb = slope * x1 + intercept
        lo, hi = min(va, vb), max(va, vb)
        return lo <= y1 and hi >= y0

    orbit = RotationOrbit(c.theta, u0)
    returns = orbit.return_counts(depth)
    level: list[_Node] = [node for node in _roots(c, int(returns[0])) if meets(node)]
    for d in range(depth):
        carry = bool(returns[d + 1] > returns[d])
        level = [child for node in level for child in _children(c, node, d, carry) if meets(child)]
    return set(level)
