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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .carpet import Carpet, dimension_report
from .errors import AxisParallelLine, CellBudgetExceeded, InsufficientData
from .fit import log_scale_fit
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


class _Lines(NamedTuple):
    """A walk's lines as the line test reads them.

    ``slope`` and ``intercept`` are one float when every line shares it (a
    ``--u0s`` or ``--grid`` batch shares its slope), else an array with one
    per line, which the test gathers per cell; ``spread`` is the largest
    |s| + |t| + 1.
    """

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    slope: float | np.ndarray
    intercept: float | np.ndarray
    spread: float

    @classmethod
    def of(cls, lines: list[Line]) -> "_Lines":
        slopes = tuple(line.slope for line in lines)
        intercepts = tuple(line.intercept for line in lines)

        def shared(v: tuple[float, ...]) -> float | np.ndarray:
            return v[0] if len(set(v)) == 1 else np.array(v)

        spread = max(abs(s) + abs(t) for s, t in zip(slopes, intercepts)) + 1.0
        return cls(slopes, intercepts, shared(slopes), shared(intercepts), spread)


def _meets_line(
    lines: _Lines, owner: np.ndarray, x: np.ndarray, x_scale: int, y: np.ndarray, y_scale: int
) -> np.ndarray:
    """Exact test of the closed cells [x, x+1]/x_scale x [y, y+1]/y_scale.

    Cell i belongs to line ``owner[i]``.  Over the cell's x interval the
    line's values are s(x+1/2)/X + t +- |s|/2X, and the cell's y interval is
    (y+1/2)/Y +- 1/2Y.  Scaled by Y, the two meet iff the gap
    |a(x+1/2) + tY - 1/2 - y| - (|a|/2 + 1/2) is <= 0, with a = sY/X.  The
    float test computes it as |a·x + c - y| - r, with c = a/2 + tY - 1/2
    and r = |a|/2 + 1/2 taken once per line and call, and decides every
    cell whose gap lies outside the margin; ``_cell_meets_line`` decides
    the others.
    """
    y_float = float(y_scale)
    a = lines.slope * (y_scale / x_scale)  # y_scale / x_scale on Python ints: correctly rounded
    c = a * 0.5 + (lines.intercept * y_float - 0.5)
    r = abs(a) * 0.5 + 0.5
    if isinstance(a, np.ndarray):
        a, r = a[owner], r[owner]
    if isinstance(c, np.ndarray):
        c = c[owner]
    gap = np.multiply(x, a) if x.dtype != object else x.astype(np.float64) * a
    gap += c
    gap -= y if y.dtype != object else y.astype(np.float64)
    np.abs(gap, out=gap)
    gap -= r
    keep = gap <= 0
    # The error bound, with u = 2**-53, S = |s|Y and T = |t|Y, each rounding
    # off by u times its result, barring underflow (whose 2**-1075 the
    # margin's Y term absorbs).  fl(Y/X) and the product with s put 2u|a| on
    # a.  The float x is exact below 2**53 (the dtype rule of _walk) and
    # rounded once past it, so a·x is off by 4u|a|x; x + 1/2 is never
    # formed, as the 1/2 is folded into c, so nothing rounds there.  fl(Y),
    # rounded once past 2**53, its product with t, the - 1/2 and the sum
    # with a/2 put 4uT + 1.5u|a| + u on c.  The sum a·x + c, the float y
    # (rounded once past 2**53) and the difference add u(|a|x + T + |a|/2 +
    # 1/2) + uy + u(|a|x + T + |a|/2 + 1/2 + y); r is off by 1.5u|a| + u/2
    # and the last difference by u(|a·x + c - y| + r).  Since |a|(x + 1) <=
    # S and y < Y, in all |gap^ - gap| <= 7u(|s| + |t| + 1)Y + O(u**2).  The
    # margin is 16u(|s| + |t| + 1)Y for the walk's largest |s| + |t|, which
    # covers the O(u**2) terms and its own rounding.  It is taken from a
    # doubled product, so it overflows to inf, sending every cell to the
    # integer kernel, before any float above can overflow: past that, inf -
    # inf is NaN, which compares false, and is sent there too.
    margin = lines.spread * y_float * 2.0 * 2.0**-50
    np.abs(gap, out=gap)
    if not np.minimum.reduce(gap, initial=np.inf) > margin:
        for i in np.flatnonzero(~(gap > margin)):
            line = owner[i]
            s, ds = lines.slopes[line].as_integer_ratio()
            t, dt = lines.intercepts[line].as_integer_ratio()
            s, t, d = s * dt, t * ds, ds * dt  # over one denominator d
            q = y_scale * (s * int(x[i]) + t * x_scale) - int(y[i]) * x_scale * d
            keep[i] = _cell_meets_line(q, y_scale * s, x_scale * d)
    return keep


def _digit(index: np.ndarray, base: int, place: int) -> np.ndarray:
    """Digit of weight ``base**place`` of every index, as array indices."""
    return (index // base**place % base).astype(np.intp, copy=False)


CHUNK = 1 << 14  # children expanded at once: bounds the walk's memory


def _walk(
    c: Carpet,
    returns: Sequence[int],
    lines: list[Line],
    max_depth: int,
    budget: int,
    keep_cells: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Chunked depth-first traversal of the carpet tree for lines of one carry sequence.

    A line's slope exponent reaches the walk only through ``returns``, so
    lines that share their carries walk as one frontier, whatever their
    exponents.  A chunk of a level holds the digit indices ``x``
    (base m, length ``returns[depth]``) and ``y`` (base n, length
    ``depth``) of its cells and the index of the line each cell belongs
    to.  The walk tests a chunk, then expands its kept cells at most
    ``CHUNK`` children at a time, finishing each batch of children's
    subtree before the next: so at every depth the chunks come in the
    order of one whole level, line-major, each line's cells in depth-first
    preorder, and memory stays bounded by ``CHUNK`` per level.  Returns the
    kept counts as a (line, depth) table and, if ``keep_cells``, the index
    arrays of the kept cells at ``max_depth`` (else ``None``).  Every
    tested cell of every line counts against ``budget``, on the running
    total, so one line tests exactly the cells it tests alone and a walk
    raises whatever its chunks.
    """
    m, n = c.m, c.n
    # int64 -> float64 conversion is exact, and the cell centers of
    # SliceCover.centers are ApproxSquare's, only while the indices are
    # below 2**53; past that, object arrays of Python ints run the same
    # expressions with exact integer arithmetic
    exact_in_int64 = m ** returns[max_depth] < 2**53 and n**max_depth < 2**53
    dtype = np.int64 if exact_in_int64 else object
    pairs = np.zeros((n, m), dtype=bool)  # pairs[b, a]: digit pair (a, b) allowed
    for a, b in c.digits:
        pairs[b, a] = True
    rows, columns = pairs.any(axis=1), pairs.any(axis=0)
    # Each coupling case of _children as slots (b, a) that a cell's children
    # may take, in _children's order (b ascending, then a), and, where the
    # allowed slots depend on one digit of the cell, a table of them by that
    # digit.  A child's indices are its parent's times (n, m) plus its slot.
    pair_b, pair_a = np.nonzero(pairs)
    grid_b, grid_a = np.divmod(np.arange(n * m), m)
    pairs_t = np.ascontiguousarray(pairs.T)  # pairs_t[a, b] = pairs[b, a]
    cases = {
        "same": (np.flatnonzero(rows), None, None),
        "same, carry": (pair_b, pair_a, None),  # the new a pairs with the new b
        # the horizontal word is a position ahead: b pairs with xw[depth]
        "ahead": (np.arange(n), None, pairs_t),
        "ahead, carry": (grid_b, grid_a, (pairs_t[:, :, None] & columns).reshape(m, n * m)),
        # the new a pairs with yw[p]
        "behind, carry": (grid_b, grid_a, (rows[:, None] & pairs[:, None, :]).reshape(n, n * m)),
    }
    # a cell's number of children, by its coupling digit
    widths = {case: table.sum(axis=1) for case, (_, _, table) in cases.items() if table is not None}
    batch = _Lines.of(lines)
    counts = np.zeros((len(lines), max_depth + 1), dtype=np.int64)
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    line_ends = np.arange(len(lines) + 1)
    tested = 0

    def test(depth: int, x: np.ndarray, y: np.ndarray, owner: np.ndarray):
        """Count a chunk's tested and kept cells; return the kept ones, or None at ``max_depth``."""
        nonlocal tested
        tested += len(x)
        if tested > budget:
            raise CellBudgetExceeded(f"visited more than {budget} cells")
        keep = _meets_line(batch, owner, x, m ** returns[depth], y, n**depth).nonzero()[0]
        owner = owner[keep]
        ends = owner.searchsorted(line_ends)  # owner ascends: a line's cells are one run
        counts[:, depth] += ends[1:] - ends[:-1]
        if depth < max_depth:
            return x[keep], y[keep], owner
        if keep_cells:
            kept.append((x[keep], y[keep]))
        return None

    def expand(depth: int, case: str, x: np.ndarray, y: np.ndarray, owner: np.ndarray):
        """The children of the cells, in order."""
        slot_b, slot_a, table = cases[case]
        carry = slot_a is not None
        cy = np.add.outer(y * n, slot_b).ravel()
        cx = np.add.outer(x * m, slot_a).ravel() if carry else None
        if table is None:  # every cell has the same children: an outer product
            k = len(slot_b)
            return cx if carry else x.repeat(k), cy, owner.repeat(k)
        p = returns[depth]
        digit = _digit(x, m, p - 1 - depth) if p > depth else _digit(y, n, depth - 1 - p)
        on, k = table[digit].ravel().nonzero()[0], widths[case][digit]
        return cx.take(on) if carry else x.repeat(k), cy.take(on), owner.repeat(k)

    def descend(depth: int, x: np.ndarray, y: np.ndarray, owner: np.ndarray):
        """Walk the subtrees of kept cells shallower than ``max_depth``, CHUNK children at a time.

        Each frame holds only kept cells: a chunk's tested children are
        dropped once ``test`` returns.
        """
        p, carry = returns[depth], returns[depth + 1] > returns[depth]
        if p > depth:
            case = "ahead, carry" if carry else "ahead"
        elif carry:
            case = "same, carry" if p == depth else "behind, carry"
        else:
            case = "same"
        step = max(1, CHUNK // len(cases[case][0]))  # one parent at least
        for lo in range(0, len(x), step):
            part = slice(lo, lo + step)
            chunk = test(depth + 1, *expand(depth, case, x[part], y[part], owner[part]))
            if chunk is not None:
                descend(depth + 1, *chunk)

    roots = np.array(c.columns if returns[0] else [0], dtype=dtype)
    x = np.tile(roots, len(lines))
    chunk = test(0, x, np.zeros(len(x), dtype=dtype), np.repeat(line_ends[:-1], len(roots)))
    if chunk is not None:
        descend(0, *chunk)
    if not keep_cells:
        return counts, None, None
    if not kept:
        return counts, np.zeros(0, dtype=dtype), np.zeros(0, dtype=dtype)
    return counts, np.concatenate([x for x, _ in kept]), np.concatenate([y for _, y in kept])


def _index_to_digits(index: np.ndarray, base: int, length: int) -> list[tuple[int, ...]]:
    """Length-``length`` base-``base`` words of the indices, most significant first."""
    places = [_digit(index, base, length - 1 - j).tolist() for j in range(length)]
    return list(zip(*places)) if places else [()] * len(index)


@dataclass(eq=False)
class SliceCover:
    """Per-depth counts of the traversal plus the kept cells at one depth.

    A cover of several lines holds the cells of every line, line-major.  A
    counts-only cover (``slice_cover(..., keep_cells=False)``) holds no
    cells, and refuses to read them.
    """

    depth: int
    counts: list[int]  # counts[j] = kept cells at depth j, j = 0..depth, over all lines
    line_counts: list[list[int]]  # line_counts[i][j] = kept cells of line i at depth j
    carpet: Carpet
    x_depth: int  # horizontal word length of the kept cells
    x_index: np.ndarray | None  # kept cells at ``depth``, in depth-first order
    y_index: np.ndarray | None

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

    def _indices(self) -> tuple[np.ndarray, np.ndarray]:
        if self.x_index is None or self.y_index is None:
            raise ValueError("a counts-only cover holds no cells: walk with keep_cells=True")
        return self.x_index, self.y_index

    def _squares(self, which: slice) -> list[ApproxSquare]:
        m, n = self.carpet.m, self.carpet.n
        x_index, y_index = self._indices()
        xs = _index_to_digits(x_index[which], m, self.x_depth)
        ys = _index_to_digits(y_index[which], n, self.depth)
        return [ApproxSquare(SymbolWord(m, xw), SymbolWord(n, yw)) for xw, yw in zip(xs, ys)]

    @property
    def centers(self) -> np.ndarray:
        """(count, 2) float64 centers of the kept cells, without building them.

        The same operations as ``ApproxSquare.center``: int64 indices stay
        below 2**53, so they convert to float64 exactly; object arrays run
        the Python-int expressions element by element.
        """
        x_index, y_index = self._indices()
        x = (x_index + 0.5) / self.carpet.m**self.x_depth
        y = (y_index + 0.5) / self.carpet.n**self.depth
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
    keep_cells: bool = True,
) -> SliceCover:
    """Cells of depth ``depth`` whose closed rectangle the line meets.

    ``line`` may also be a sequence of lines that share one carry sequence
    (see ``carries``), whatever their exponents: they walk the carpet tree
    as one frontier, and ``budget`` caps the cells tested over all of them.
    Each line's counts and kept cells are those it has alone.  With
    ``keep_cells=False`` the cover holds the counts only, and the walk
    keeps no cell past its chunk.
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
    # A float in _meets_line overflows to +-inf, or turns NaN as inf - inf,
    # only when its margin is infinite, which sends every cell to the exact
    # integer kernel: the cover stays exact, so the warnings are noise.  One
    # errstate per walk, since each entry costs about a microsecond.
    with np.errstate(over="ignore", invalid="ignore"):
        counts, x_index, y_index = _walk(c, returns, lines, depth, budget, keep_cells)
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
    cover = slice_cover(c, line, max(ks), budget=budget, keep_cells=False)
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
    """Least-squares slope of log N_k against k log n (``log_scale_fit``),
    clamped below at 0, and its standard error.

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
    slope, stderr = log_scale_fit([k for k, _ in usable], [math.log(nk) for _, nk in usable], c.n)
    return SliceEstimate(slope=max(0.0, slope), stderr=stderr, depths=[k for k, _ in usable])


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
