import hashlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from carpetlab import (
    DiscreteMeasure,
    Line,
    RotationOrbit,
    estimate_slice_dimension,
    exact_cover_cells,
    finite_scale_dimension,
    new_carpet,
    slice_counts,
    slice_cover,
)
from carpetlab import slicer
from carpetlab.cli import main
from carpetlab.errors import AxisParallelLine, CellBudgetExceeded, InsufficientData
from carpetlab.proptest import family_3x2
from carpetlab.slicer import _children, _roots, carries
from carpetlab.symbolic import digits_to_index

CARPETS = Path(__file__).resolve().parents[1] / "carpets"
WIDE_10X9 = [(0, 0), (9, 0), (4, 4), (2, 8), (7, 8), (5, 4)]  # object index arrays at depth 20


def diagonal_cell_walk(c, depth: int) -> int:
    """Exact count of cells the diagonal y=x touches, by rational row walk.

    Independent of the tree enumeration: for each vertical level-``depth``
    row, count the horizontal cells met by the segment of the diagonal
    inside that row (closed rectangles).
    """
    orbit = RotationOrbit(c.theta, 0.0)
    p = orbit.return_count(depth)
    xs = Fraction(c.m) ** p
    ys = Fraction(c.n) ** depth
    total = 0
    for j in range(int(ys)):
        y0 = Fraction(j) / ys
        y1 = Fraction(j + 1) / ys
        first = math.floor(y0 * xs)
        last = min(math.floor(y1 * xs), int(xs) - 1)
        total += last - first + 1
    return total


def test_line_validation():
    with pytest.raises(AxisParallelLine):
        Line(slope=0.0, intercept=0.3)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slope must be finite"):
            Line(slope=s, intercept=0.3)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="intercept must be finite"):
            Line(slope=1.5, intercept=t)
    line = Line.from_exponent(3, 0.0, 0.0)
    assert line.slope == 1.0
    neg = Line.from_exponent(3, 0.5, 0.2, sign=-1)
    assert neg.slope < 0
    literal = Line(slope=2.5, intercept=0.0)
    assert abs(literal.exponent(3) - math.log(2.5) / math.log(3)) < 1e-12


@pytest.mark.parametrize("m", [8, 10])
@pytest.mark.parametrize("slope", [0.9999999999999999, -0.9999999999999999])
def test_exponent_stays_below_one(m, slope):
    # log |slope| / log m is a tiny negative number, which % 1.0 rounds up
    # to 1.0; 0.0 is the same point of the circle
    assert math.log(abs(slope)) / math.log(m) % 1.0 == 1.0
    exponent = Line(slope=slope, intercept=0.0).exponent(m)
    assert exponent == 0.0
    Line.from_exponent(m, exponent)


def test_full_square_diagonal_counts(full_square):
    line = Line(slope=1.0, intercept=0.0)
    counts = slice_counts(full_square, line, range(1, 11))
    for k, nk in counts:
        assert 2**k <= nk <= 3 * 2**k
        assert nk == diagonal_cell_walk(full_square, k)


def test_single_digit_carpet_line_through_origin():
    c = new_carpet(3, 2, [(0, 0)])
    line = Line(slope=1.0, intercept=0.0)
    for k, nk in slice_counts(c, line, range(0, 9)):
        assert nk == 1


def test_line_missing_square_gives_empty_cover(example):
    line = Line(slope=2.5, intercept=5.0)
    counts = slice_counts(example, line, range(0, 9))
    assert all(nk == 0 for _, nk in counts)


def test_count_growth_ratio(example):
    line = Line.from_exponent(example.m, 0.37, 0.21)
    counts = slice_counts(example, line, range(0, 12))
    for (k1, n1), (k2, n2) in zip(counts, counts[1:]):
        assert n2 <= n1 * example.m * example.n


def test_budget_enforced(full_square):
    with pytest.raises(CellBudgetExceeded):
        slice_cover(full_square, Line(slope=1.0, intercept=0.0), 10, budget=100)


@pytest.mark.parametrize("depth", [-1, 21])
def test_depth_out_of_range(full_square, depth):
    with pytest.raises(ValueError, match="depth"):
        slice_cover(full_square, Line(slope=1.0, intercept=0.0), depth)


@pytest.mark.parametrize("depth", [0, 1, 9, 20])
def test_carries_are_the_counts_a_walk_reads(example, depth):
    assert len(carries(example, 0.3, depth)) == depth + 1


def test_budget_counts_every_tested_cell(full_square):
    # 7651 cells are tested (kept or not) down to depth 10: the smallest
    # budget that passes, found by bisection on the depth-first walk
    line = Line(slope=1.0, intercept=0.0)
    assert slice_cover(full_square, line, 10, budget=7651).counts[10] > 0
    with pytest.raises(CellBudgetExceeded):
        slice_cover(full_square, line, 10, budget=7650)
    # a batch's budget caps the cells tested over all of its lines
    assert slice_cover(full_square, [line, line], 10, budget=2 * 7651).counts[10] > 0
    with pytest.raises(CellBudgetExceeded):
        slice_cover(full_square, [line, line], 10, budget=2 * 7651 - 1)


@pytest.mark.parametrize("carpet", ["example", "full_square"])
def test_cells_in_depth_first_order(request, carpet):
    c = request.getfixturevalue(carpet)
    # falling, so the depth-first order is not the order along either axis
    line = Line.from_exponent(c.m, 0.37, 1.1, sign=-1)
    depth = 8
    cover = slice_cover(c, line, depth)
    returns = RotationOrbit(c.theta, line.exponent(c.m)).return_counts(depth)

    def dfs_key(sq):
        xw, yw = sq.x_word.symbols, sq.y_word.symbols
        return [(yw[:j], xw[: returns[j]]) for j in range(depth + 1)]

    assert len(cover.cells) > 1
    assert cover.cells == sorted(cover.cells, key=dfs_key)


# Counts and a sha256 of repr([(x word, y word), ...]) recorded from
# exact_cover_cells: len(exact_cover_cells(c, Fraction(slope), Fraction(t),
# k, 0.3)) for k = 0..20, and the depth-20 set in the walk's depth-first order
@pytest.mark.parametrize(
    "m,n,digits,intercept,counts,digest",
    [
        pytest.param(  # 10**20 and 9**20 exceed 2**63
            10,
            9,
            [(0, 0), (9, 0), (4, 4), (2, 8), (7, 8), (5, 4)],
            -0.39724574549027614,
            [4, 5, 8, 14, 22, 54, 14, 15, 7, 4, 2, 2, 1, 1, 1, 1, 1, 2, 1, 1, 1],
            "e45f4a75ed1f257c0b33a20a3132d9b664d626214e04ef23ca18b34bcefb9082",
            id="10x9",
        ),
        pytest.param(  # 7**19 exceeds 2**53
            7,
            6,
            [(0, 0), (6, 0), (3, 2), (1, 5), (5, 5), (2, 2)],
            -0.48538027731792094,
            [4, 8, 20, 6, 6, 12, 14, 18, 18, 18, 20, 21, 26, 25, 23, 24, 21, 26, 29, 29, 30],
            "1e84e2c0089731e722182b61b663cc69a47b437c74940c5b96657ce5078c48eb",
            id="7x6",
        ),
    ],
)
def test_wide_bases_at_depth_20(m, n, digits, intercept, counts, digest):
    c = new_carpet(m, n, digits)
    cover = slice_cover(c, Line.from_exponent(m, 0.3, intercept), 20)
    assert cover.counts == counts
    words = [(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "m,n,digits,intercept,depth",
    [
        (3, 2, [(0, 0), (2, 0), (1, 1)], 0.1, 12),  # int64 index arrays
        # object arrays, carpets and lines of test_wide_bases_at_depth_20
        (10, 9, [(0, 0), (9, 0), (4, 4), (2, 8), (7, 8), (5, 4)], -0.39724574549027614, 20),
        (7, 6, [(0, 0), (6, 0), (3, 2), (1, 5), (5, 5), (2, 2)], -0.48538027731792094, 20),
    ],
)
def test_centers_and_cell_match_cells(m, n, digits, intercept, depth):
    c = new_carpet(m, n, digits)
    cover = slice_cover(c, Line.from_exponent(m, 0.3, intercept), depth)
    assert cover.count > 0
    expected = np.array([sq.center() for sq in cover.cells])
    assert cover.centers.dtype == np.float64
    assert np.array_equal(cover.centers, expected)
    for i in (0, cover.count - 1):
        assert cover.cell(i) == cover.cells[i]


def test_cover_equals_exact_rational_lines(rng, example, full_square):
    # the slice_conservative proptest family covers positive slopes on the
    # example carpet; this adds negative slopes and the product carpet
    product = new_carpet(3, 2, [(0, 0), (0, 1), (2, 0), (2, 1)])
    depth = 5
    for c, signs in ((example, [-1]), (full_square, [-1]), (product, [1, -1])):
        for _ in range(20):
            slope = float(c.m) ** float(rng.uniform(0.0, 1.0)) * float(rng.choice(signs))
            t = float(rng.uniform(-0.5, 1.2))
            line = Line(slope=slope, intercept=t)
            cover = slice_cover(c, line, depth)
            got = {(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells}
            exact = exact_cover_cells(c, Fraction(slope), Fraction(t), depth, line.exponent(c.m))
            assert got == exact


def corner_lines(c, sign: int, depth: int, corners: int, rng):
    """Lines through a corner of a random depth-``depth`` carpet cell, and 1 ulp above and below.

    The intercept is t0 = float(y/Y - s·x/X) for the corner (x/X, y/Y) and
    the slope s, then both float neighbours of t0: the closed-cell test is
    decided at the rounding limit.
    """
    pairs = sorted(c.digits)
    for _ in range(corners):
        s = sign * float(c.m) ** float(rng.uniform(0.0, 1.0))
        p = RotationOrbit(c.theta, Line(slope=s, intercept=0.0).exponent(c.m)).return_count(depth)
        word = [pairs[i] for i in rng.integers(0, len(pairs), size=max(p, depth))]
        x = digits_to_index([a for a, _ in word[:p]], c.m) + int(rng.integers(0, 2))
        y = digits_to_index([b for _, b in word[:depth]], c.n) + int(rng.integers(0, 2))
        t0 = float(Fraction(y, c.n**depth) - Fraction(s) * Fraction(x, c.m**p))
        for t in (math.nextafter(t0, -math.inf), t0, math.nextafter(t0, math.inf)):
            yield Line(slope=s, intercept=t)


def test_cover_exact_near_cell_corners(rng, example, full_square):
    product = new_carpet(3, 2, [(0, 0), (0, 1), (2, 0), (2, 1)])
    depth = 5
    for c in (example, full_square, product):
        for sign in (1, -1):
            for line in corner_lines(c, sign, depth, 10, rng):
                cover = slice_cover(c, line, depth)
                got = {(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells}
                slope, t = Fraction(line.slope), Fraction(line.intercept)
                assert got == exact_cover_cells(c, slope, t, depth, line.exponent(c.m))


def grid_lines(c, sign: int, rng, count: int):
    """Exact-double lines through a grid corner of depth 1.

    The slope is sign * m**q * a / 2**r, and the corner's x is i/m with
    q >= 1 (else 0 or 1), so slope * x is dyadic; its y is j/2 for n = 2,
    else 0 or 1.  So the intercept is an exact double and the line passes
    through the corner exactly; where n = 2 it meets a grid corner at every
    step of 1/m**q in x, along the diagonals of cells.
    """
    for _ in range(count):
        q, a, r = int(rng.integers(0, 3)), int(rng.choice([1, 3, 5])), int(rng.integers(0, 3))
        slope = sign * c.m**q * a / 2**r
        x = Fraction(int(rng.integers(0, c.m + 1)), c.m) if q else Fraction(int(rng.integers(0, 2)))
        y = Fraction(int(rng.integers(0, 3)), 2) if c.n == 2 else Fraction(int(rng.integers(0, 2)))
        t = y - Fraction(slope) * x
        assert Fraction(float(t)) == t
        yield Line(slope=slope, intercept=float(t))


def test_cover_exact_on_lines_through_grid_corners(monkeypatch, rng, example, full_square):
    # a line through a cell corner meets the cells there at that corner
    # only, a tie the float test cannot decide: it must reach the integer
    # kernel, and the cover must be the exact one at every such tie
    ties, kernel = [], slicer._cell_meets_line

    def recorded(q, rise, height):
        ties.append(min(q, q + rise) == height or max(q, q + rise) == 0)
        return kernel(q, rise, height)

    monkeypatch.setattr(slicer, "_cell_meets_line", recorded)
    wide = new_carpet(10, 9, WIDE_10X9)
    for c, depths in ((example, (4, 8, 12)), (full_square, (4, 6, 8)), (wide, (12, 20))):
        ties.clear()
        for sign in (1, -1):
            for i, line in enumerate(grid_lines(c, sign, rng, 6)):
                depth = depths[i % len(depths)]  # (10, 9) at depth 20: object index arrays
                cover = slice_cover(c, line, depth)
                got = {(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells}
                slope, t = Fraction(line.slope), Fraction(line.intercept)
                assert got == exact_cover_cells(c, slope, t, depth, line.exponent(c.m))
        assert any(ties)
    # the one full_square cover at depth 12, along the diagonals of 1/3 x 1/2 cells
    line = Line(slope=-1.5, intercept=1.0)
    cover = slice_cover(full_square, line, 12)
    got = {(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells}
    assert got == exact_cover_cells(full_square, Fraction(-3, 2), Fraction(1), 12, line.exponent(3))


def test_readme_sweep_integer_kernel_calls(monkeypatch, capsys):
    # the float test leaves 15 of the README sweep's cells to the integer kernel
    calls, kernel = [], slicer._cell_meets_line
    monkeypatch.setattr(slicer, "_cell_meets_line", lambda *a: calls.append(a) or kernel(*a))
    argv = ["sweep", "--carpet", str(CARPETS / "example.txt"), "--grid", "10x10"]
    assert main([*argv, "--depths", "4..12"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 15


def ordered_levels(c, line: Line, depth: int) -> list[list[tuple]]:
    """Each depth's cover as a list, in the order of _roots and _children, tested in rationals."""
    s, t = Fraction(line.slope), Fraction(line.intercept)

    def meets(node) -> bool:
        (xw, yw), xs, ys = node, Fraction(c.m) ** len(node[0]), Fraction(c.n) ** len(node[1])
        x0, y0 = digits_to_index(xw, c.m) / xs, digits_to_index(yw, c.n) / ys
        ends = (s * x0 + t, s * (x0 + 1 / xs) + t)
        return min(ends) <= y0 + 1 / ys and max(ends) >= y0

    returns = carries(c, line.exponent(c.m), depth)
    levels = [[node for node in _roots(c, returns[0]) if meets(node)]]
    for d in range(depth):
        carry = returns[d + 1] > returns[d]
        level = (ch for node in levels[-1] for ch in _children(c, node, d, carry))
        levels.append([ch for ch in level if meets(ch)])
    return levels


def expansion_cases(returns) -> set[str]:
    """The root and the coupling cases of _children that a walk's levels reach."""
    cases = {f"R(0) = {returns[0]}"}
    for depth, (p, after) in enumerate(zip(returns, returns[1:])):
        carry = after > p
        if p > depth:
            cases.add("ahead, carry" if carry else "ahead")
        elif carry:
            cases.add("same, carry" if p == depth else "behind, carry")
        else:
            cases.add("same")
    return cases


# every case of _children, and both kinds of root: R(0) = 0 and R(0) = 1
ORDER_CASES = [
    ("example", 0.9, 0.3, 1, 10),
    ("example", 0.0, 0.1, -1, 10),
    ("full_square", 0.9, -0.2, 1, 7),
    ("full_square", 0.3, 1.1, -1, 7),
    ("wide", 0.3, -0.39724574549027614, 1, 20),
]


@pytest.mark.parametrize("chunk", [slicer.CHUNK, 3])
def test_cells_in_walk_order_at_every_depth(request, monkeypatch, chunk):
    monkeypatch.setattr(slicer, "CHUNK", chunk)
    reached = set()
    for name, u0, t, sign, depth in ORDER_CASES:
        c = new_carpet(10, 9, WIDE_10X9) if name == "wide" else request.getfixturevalue(name)
        line = Line.from_exponent(c.m, u0, t, sign=sign)
        reached |= expansion_cases(carries(c, u0, depth))
        for k, level in enumerate(ordered_levels(c, line, depth)):
            cover = slice_cover(c, line, k)
            assert [(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells] == level
            assert cover.counts[k] == len(level)
    assert reached == {
        "R(0) = 0", "R(0) = 1", "ahead", "ahead, carry", "same", "same, carry", "behind, carry"
    }  # fmt: skip


def test_chunks_keep_counts_cells_and_budget(monkeypatch, example, full_square):
    line = Line(slope=1.0, intercept=0.0)
    batch = [Line.from_exponent(3, 0.37, t) for t in (-0.4, 0.05, 0.2)]
    walks = [(full_square, line, 10), (example, batch, 14)]
    whole = [slice_cover(*walk) for walk in walks]
    monkeypatch.setattr(slicer, "CHUNK", 4)
    for cover, chunked in zip(whole, [slice_cover(*walk) for walk in walks]):
        assert chunked.line_counts == cover.line_counts
        assert np.array_equal(chunked.x_index, cover.x_index)
        assert np.array_equal(chunked.y_index, cover.y_index)
    # the budgets of test_budget_counts_every_tested_cell
    assert slice_cover(full_square, line, 10, budget=7651).counts[10] > 0
    with pytest.raises(CellBudgetExceeded):
        slice_cover(full_square, line, 10, budget=7650)
    assert slice_cover(full_square, [line, line], 10, budget=2 * 7651).counts[10] > 0
    with pytest.raises(CellBudgetExceeded):
        slice_cover(full_square, [line, line], 10, budget=2 * 7651 - 1)


def test_counts_only_cover_refuses_cells(example):
    line = Line.from_exponent(3, 0.37, 0.21)
    cover = slice_cover(example, line, 12)
    counts_only = slice_cover(example, line, 12, keep_cells=False)
    assert counts_only.counts == cover.counts and counts_only.count > 0
    with pytest.raises(ValueError, match="counts-only"):
        counts_only.cells
    with pytest.raises(ValueError, match="counts-only"):
        counts_only.cell(0)
    with pytest.raises(ValueError, match="counts-only"):
        counts_only.centers


def brute_force_cover(c, slope, intercept, depth, u0):
    """Every carpet-consistent cell of one depth, each tested in rationals (no pruning).

    A cell pairs a horizontal word of return_count(depth) digits with a
    vertical word of ``depth`` digits; the digit pairs at shared positions
    must belong to the carpet.
    """
    p = RotationOrbit(c.theta, u0).return_count(depth)
    xs, ys = Fraction(c.m) ** p, Fraction(c.n) ** depth
    kept = set()
    for xw in itertools.product(c.columns, repeat=p):
        for yw in itertools.product(c.rows, repeat=depth):
            if any(pair not in c.digits for pair in zip(xw, yw)):
                continue
            x0 = sum(a * c.m ** (p - 1 - i) for i, a in enumerate(xw)) / xs
            y0 = sum(b * c.n ** (depth - 1 - i) for i, b in enumerate(yw)) / ys
            ends = (slope * x0 + intercept, slope * (x0 + 1 / xs) + intercept)
            if min(ends) <= y0 + 1 / ys and max(ends) >= y0:
                kept.add((xw, yw))
    return kept


def test_pruned_oracle_matches_brute_force(rng, example, full_square):
    product = new_carpet(3, 2, [(0, 0), (0, 1), (2, 0), (2, 1)])
    for c in (example, full_square, product):
        for _ in range(4):
            sign = float(rng.choice([1, -1]))
            slope = Fraction(float(c.m) ** float(rng.uniform(0.0, 1.0)) * sign)
            t = Fraction(float(rng.uniform(-0.5, 1.2)))
            u0 = Line(slope=float(slope), intercept=float(t)).exponent(c.m)
            for depth in range(6):
                assert exact_cover_cells(c, slope, t, depth, u0) == brute_force_cover(
                    c, slope, t, depth, u0
                )


def test_estimate_examples(example):
    counts = [(k, 2**k) for k in range(1, 12)]
    c2 = new_carpet(3, 2, {(0, 0), (2, 0), (1, 1)})
    est = estimate_slice_dimension(c2, counts, drop_head=3)
    assert abs(est.slope - 1.0) < 1e-9
    assert est.stderr < 1e-9

    flat = [(k, 1) for k in range(1, 12)]
    est = estimate_slice_dimension(example, flat, drop_head=3)
    assert est.slope == 0.0

    with pytest.raises(InsufficientData):
        estimate_slice_dimension(example, [(1, 5), (2, 9)], drop_head=0)
    with pytest.raises(InsufficientData):
        estimate_slice_dimension(example, [(k, 0) for k in range(10)], drop_head=3)
    with pytest.raises(ValueError, match="drop_head"):
        estimate_slice_dimension(example, counts, drop_head=-2)


def test_diagonal_regression_slope(full_square):
    line = Line(slope=1.0, intercept=0.0)
    counts = slice_counts(full_square, line, range(4, 13))
    est = estimate_slice_dimension(full_square, counts, drop_head=3)
    assert abs(est.slope - 1.0) < 0.05


def test_product_carpet_diagonal_tracks_factor_dimension():
    # slicing a (restricted columns) x (full interval) product along the
    # diagonal reproduces the horizontal factor, dimension log2/log3
    c = new_carpet(3, 2, [(0, 0), (0, 1), (2, 0), (2, 1)])
    line = Line(slope=1.0, intercept=0.0)
    counts = slice_counts(c, line, range(1, 13))
    est = estimate_slice_dimension(c, counts, drop_head=3)
    factor_dim = math.log(2) / math.log(3)
    assert abs(est.slope - factor_dim) < 0.05


def test_cover_measure_dimension_matches_regression(full_square):
    # shallow covers carry an upward entropy transient from the bounded
    # horizontal multiplicity of the cells; at depth 12 it has decayed
    line = Line(slope=1.0, intercept=0.0)
    mu = DiscreteMeasure.uniform_on(slice_cover(full_square, line, 12).centers)
    counts = slice_counts(full_square, line, range(4, 13))
    est = estimate_slice_dimension(full_square, counts, drop_head=2)
    fs = finite_scale_dimension(mu, full_square.n, range(2, 8))
    assert abs(fs - est.slope) < 0.05


def test_covers_equal_exact_across_family(rng):
    # spot exactness over the exhaustive small-carpet family
    for c in family_3x2()[::7]:
        slope = float(c.m) ** 0.43
        line = Line(slope=slope, intercept=0.11)
        cover = slice_cover(c, line, 4)
        got = {(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells}
        exact = exact_cover_cells(c, Fraction(slope), Fraction(0.11), 4, line.exponent(c.m))
        assert got == exact


def assert_batch_matches_lines(c, lines, depth):
    """A batch's per-line counts and kept cells equal those of each line alone."""
    batch = slice_cover(c, lines, depth)
    assert len(batch.line_counts) == len(lines)
    assert batch.counts == [sum(column) for column in zip(*batch.line_counts)]
    start = 0
    for line, counts in zip(lines, batch.line_counts):
        alone = slice_cover(c, line, depth)
        assert counts == alone.counts
        stop = start + alone.count
        assert batch.cells[start:stop] == alone.cells
        start = stop
    assert start == batch.count
    return batch


@pytest.mark.parametrize("carpet", ["example", "full_square"])
@pytest.mark.parametrize("sign", [1, -1])
def test_batch_matches_single_lines(request, carpet, sign):
    c = request.getfixturevalue(carpet)
    depth = 20 if carpet == "example" else 10
    # the last line misses the square
    ts = (-0.4, 0.05, 0.2, 2.0) if sign == 1 else (0.05, 0.5, 1.1, -0.5)
    lines = [Line.from_exponent(c.m, 0.37, t, sign=sign) for t in ts]
    batch = assert_batch_matches_lines(c, lines, depth)
    assert all(counts[depth] > 0 for counts in batch.line_counts[:-1])
    assert batch.line_counts[-1][depth] == 0


def test_batch_matches_single_lines_past_2_53():
    # the (10, 9) carpet of test_wide_bases_at_depth_20: object index arrays
    c = new_carpet(10, 9, [(0, 0), (9, 0), (4, 4), (2, 8), (7, 8), (5, 4)])
    lines = [Line.from_exponent(10, 0.3, t) for t in (-0.39724574549027614, 0.2, -0.1)]
    batch = assert_batch_matches_lines(c, lines, 20)
    assert batch.x_index.dtype == object
    assert batch.line_counts[0][20] == 1  # the exact count of test_wide_bases_at_depth_20


def test_batch_of_literal_slopes_sharing_an_exponent(example):
    s = 1.7
    lines = [Line(slope=s, intercept=-0.5), Line(slope=s * example.m, intercept=-0.3)]
    assert lines[0].exponent(example.m) == lines[1].exponent(example.m)
    batch = assert_batch_matches_lines(example, lines, 16)
    assert all(counts[16] > 0 for counts in batch.line_counts)


def test_batch_of_literal_slopes_sharing_carries(example):
    # 6 = 2 * 3 and 18 = 2 * 9: one exponent in exact arithmetic, but the
    # floats land ulps apart; their carries agree, so they share a walk
    lines = [Line(slope=s, intercept=0.1) for s in (2.0, 6.0, 18.0)]
    exponents = [line.exponent(example.m) for line in lines]
    assert len(set(exponents)) == 3
    assert len({carries(example, e, 9) for e in exponents}) == 1
    assert_batch_matches_lines(example, lines, 9)


def test_batch_rejects_mixed_carries(example):
    lines = [Line.from_exponent(example.m, 0.3, 0.1), Line.from_exponent(example.m, 0.4, 0.1)]
    assert carries(example, 0.3, 6) != carries(example, 0.4, 6)
    with pytest.raises(ValueError, match="one carry sequence"):
        slice_cover(example, lines, 6)
    with pytest.raises(ValueError, match="one carry sequence"):
        slice_cover(example, [], 6)
