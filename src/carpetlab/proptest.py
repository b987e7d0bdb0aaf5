"""Seeded invariant suites behind the ``proptest`` CLI command.

Each family asserts an invariant that must hold at every seed; any failed
family fails the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import carpet as cp
from . import measures as ms
from . import scenery as sc
from . import slicer as sl
from . import symbolic as sy

EXAMPLE_DIGITS = frozenset({(0, 0), (2, 0), (1, 1)})


def example_carpet() -> cp.Carpet:
    return cp.new_carpet(3, 2, EXAMPLE_DIGITS)


def family_3x2() -> list[cp.Carpet]:
    """All 63 carpets on the 3x2 grid with a nonempty digit set."""
    cells = [(x, y) for x in range(3) for y in range(2)]
    out = []
    for mask in range(1, 64):
        digits = [cells[i] for i in range(6) if mask >> i & 1]
        out.append(cp.new_carpet(3, 2, digits))
    return out


def random_carpet(rng: np.random.Generator, m_max: int = 7) -> cp.Carpet:
    m = int(rng.integers(3, m_max + 1))
    n = int(rng.integers(2, m))
    cells = [(x, y) for x in range(m) for y in range(n)]
    while True:
        mask = rng.random(len(cells)) < 0.5
        digits = [c for c, keep in zip(cells, mask) if keep]
        if digits:
            return cp.new_carpet(m, n, digits)


def interior_word(rng: np.random.Generator, c: cp.Carpet, length: int) -> list[tuple[int, int]]:
    """Random carpet digit word whose point avoids cell boundaries.

    Each axis either ends with a nonzero digit (interior margin at every
    truncation depth) or is identically zero (exact in floating point), so
    cell lookups for the point never straddle a boundary.
    """
    pairs = sorted(c.digits)
    word = [pairs[int(rng.integers(0, len(pairs)))] for _ in range(length)]
    if length >= 4:
        # a max-digit pair per axis: if its coordinate is 0, the whole axis
        # is zero anyway and stays exact in floating point
        best_x = max(pairs, key=lambda d: d[0])
        best_y = max(pairs, key=lambda d: d[1])
        word[-4] = word[-2] = best_x
        word[-3] = word[-1] = best_y
    return word


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


# ---------------------------------------------------------------------------
# carpet formula families


def check_transpose_normal_form(rng: np.random.Generator) -> CheckResult:
    carpets = family_3x2() + [random_carpet(rng) for _ in range(100)]
    for c in carpets:
        swapped = cp.new_carpet(c.n, c.m, [(y, x) for x, y in c.digits])
        if cp.dimension_report(c) != cp.dimension_report(swapped):
            return CheckResult("transpose_normal_form", False, len(carpets), detail=str(c))
    return CheckResult("transpose_normal_form", True, len(carpets))


# ---------------------------------------------------------------------------
# symbolic families


def check_carry_shift_composition(rng: np.random.Generator) -> CheckResult:
    theta = example_carpet().theta
    for _ in range(20):
        u0 = float(rng.random())
        k = int(rng.integers(10, 1000))
        orbit = sy.RotationOrbit(theta, u0)
        word = sy.SymbolWord(2, tuple(int(s) for s in rng.integers(0, 2, size=k + 2)))
        w = word
        for i in range(k):
            w = sy.carry_shift(w, orbit.phase(i), theta)
        expected = word.symbols[orbit.return_count(k - 1) :]
        if w.symbols != expected:
            return CheckResult("carry_shift_composition", False, 20, detail=f"u0={u0} k={k}")
    return CheckResult("carry_shift_composition", True, 20)


def check_approx_square_diameter(rng: np.random.Generator) -> CheckResult:
    c = example_carpet()
    geo = math.sqrt(2.0) * c.m**sy.RETURN_CONSTANT
    for _ in range(50):
        u0 = float(rng.random())
        k = int(rng.integers(1, 16))
        orbit = sy.RotationOrbit(c.theta, u0)
        p = orbit.return_count(k)
        xw = sy.SymbolWord(c.m, tuple(int(s) for s in rng.integers(0, c.m, size=p)))
        yw = sy.SymbolWord(c.n, tuple(int(s) for s in rng.integers(0, c.n, size=k)))
        sq = sy.ApproxSquare(xw.prefix(p), yw.prefix(k))
        ratio = sq.diameter() * c.n**k
        if not (1.0 / geo <= ratio <= geo):
            return CheckResult("approx_square_diameter", False, 50, detail=f"ratio={ratio}")
    return CheckResult("approx_square_diameter", True, 50)


# ---------------------------------------------------------------------------
# measure families


def _random_measure(rng: np.random.Generator, max_atoms: int = 40) -> ms.DiscreteMeasure:
    n = int(rng.integers(1, max_atoms))
    pts = rng.random((n, 2))
    wts = rng.dirichlet(np.ones(n))
    return ms.DiscreteMeasure(pts, wts)


def check_entropy_bounds(rng: np.random.Generator) -> CheckResult:
    rounds = 10_000
    for _ in range(rounds):
        mu = _random_measure(rng)
        part = ms.GridPartition(int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        rep = ms.entropy(mu, part)
        if rep.entropy < 0.0 or rep.entropy > math.log(max(rep.cell_count, 1)) + 1e-9:
            return CheckResult("entropy_bounds", False, rounds, detail=str(rep))
    return CheckResult("entropy_bounds", True, rounds)


def check_entropy_concavity(rng: np.random.Generator) -> CheckResult:
    rounds = 1000
    for _ in range(rounds):
        mu = _random_measure(rng)
        nu = _random_measure(rng)
        part = ms.GridPartition(2, int(rng.integers(1, 5)))
        mix = ms.DiscreteMeasure(
            np.vstack([mu.points, nu.points]),
            np.concatenate([mu.weights, nu.weights]) / 2.0,
        )
        lhs = ms.entropy(mix, part).entropy
        rhs = 0.5 * ms.entropy(mu, part).entropy + 0.5 * ms.entropy(nu, part).entropy
        if lhs < rhs - 1e-9:
            return CheckResult("entropy_concavity", False, rounds, detail=f"{lhs} < {rhs}")
    return CheckResult("entropy_concavity", True, rounds)


def check_condition_rescale_mass(rng: np.random.Generator) -> CheckResult:
    rounds = 1000
    for _ in range(rounds):
        mu = _random_measure(rng, max_atoms=60)
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        p = int(rng.integers(0, 3))
        k = int(rng.integers(0, 3))
        x0, y0 = mu.points[int(rng.integers(0, len(mu)))]
        xw = sy.SymbolWord(m, _digits_of(x0, m, p))
        yw = sy.SymbolWord(n, _digits_of(y0, n, k))
        out = ms.condition_rescale(mu, sy.ApproxSquare(xw, yw))
        if abs(out.total_mass - 1.0) > 1e-12:
            return CheckResult("condition_rescale_mass", False, rounds, detail=str(out.total_mass))
        if len(out) and (out.points.min() < 0.0 or out.points.max() >= 1.0):
            return CheckResult("condition_rescale_mass", False, rounds, detail="atom escaped")
    return CheckResult("condition_rescale_mass", True, rounds)


def _digits_of(value: float, base: int, length: int) -> tuple[int, ...]:
    digits = []
    v = value
    for _ in range(length):
        v *= base
        d = int(v)
        digits.append(min(d, base - 1))
        v -= d
    return tuple(digits)


# ---------------------------------------------------------------------------
# slicer families


def check_slice_conservative(rng: np.random.Generator) -> CheckResult:
    lines = 10
    c = example_carpet()
    depth = 5
    for _ in range(lines):
        slope = float(c.m) ** float(rng.random())
        slope_f = Fraction(slope)
        t = float(rng.uniform(-0.5, 1.0))
        line = sl.Line(slope=slope, intercept=t)
        cover = sl.slice_cover(c, line, depth)
        got = {(sq.x_word.symbols, sq.y_word.symbols) for sq in cover.cells}
        exact = sl.exact_cover_cells(c, slope_f, Fraction(t), depth, line.exponent(c.m))
        if got != exact:
            return CheckResult("slice_conservative", False, lines, detail=f"differs on {exact ^ got}")
    return CheckResult("slice_conservative", True, lines)


def check_slice_nesting(rng: np.random.Generator) -> CheckResult:
    c = example_carpet()
    line = sl.Line.from_exponent(c.m, 0.3, 0.1)
    covers = {k: sl.slice_cover(c, line, k) for k in range(2, 8)}
    orbit = sy.RotationOrbit(c.theta, line.exponent(c.m))
    for k in range(3, 8):
        parent_cells = {(sq.x_word.symbols, sq.y_word.symbols) for sq in covers[k - 1].cells}
        p_parent = orbit.return_count(k - 1)
        for sq in covers[k].cells:
            parent = (sq.x_word.symbols[:p_parent], sq.y_word.symbols[: k - 1])
            if parent not in parent_cells:
                return CheckResult("slice_nesting", False, 6, detail=f"depth {k}")
    return CheckResult("slice_nesting", True, 6)


# ---------------------------------------------------------------------------
# scenery families


def check_tv_residual_trend(rng: np.random.Generator) -> CheckResult:
    words = 20
    c = example_carpet()
    theta = c.theta
    sizes = (100, 1000, 10_000)
    means = {n: 0.0 for n in sizes}
    for _ in range(words):
        symbols = tuple(int(s) for s in rng.choice(c.rows, size=max(sizes) + 8))
        word = sy.SymbolWord(c.n, symbols)
        res = {}
        for n in sizes:
            triple = sc.empirical_measures_linear(word, n, theta, block=4)
            res[n] = triple.residual_tv
            bound = 2.0 * (math.ceil(n * theta) - n * theta + 1.0) / n + 2.0 / n
            if triple.residual_tv > bound:
                return CheckResult("tv_residual_trend", False, words, detail=f"bound at N={n}")
            means[n] += triple.residual_tv / words
        if not (res[10_000] < res[100] and res[10_000] < 0.05):
            return CheckResult("tv_residual_trend", False, words, detail=f"{res}")
    if not means[10_000] <= means[1000] <= means[100]:
        return CheckResult("tv_residual_trend", False, words, detail=f"means {means}")
    return CheckResult("tv_residual_trend", True, words)


def star_discrepancy(values: np.ndarray) -> float:
    """Star discrepancy of a sample in [0, 1); small for equidistributed orbits."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        return 1.0
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - xs, xs - (i - 1) / n).max())


def check_phase_equidistribution() -> CheckResult:
    c = cp.new_carpet(3, 2, [(x, y) for x in range(3) for y in range(2)])
    steps = 10_000
    mu = ms.DiscreteMeasure.point_mass(0.0, 0.0)
    state = sc.SceneryState(
        mu=mu,
        x_word=sy.SymbolWord(3, (0,) * (steps + 2)),
        y_word=sy.SymbolWord(2, (0,) * (steps + 2)),
        u=0.0,
        omega=sy.SymbolWord(2, (0,) * (steps + 2)),
    )
    summary = sc.run_scenery(state, steps, c.theta, probe_level=2, stride=1000)
    disc = star_discrepancy(summary.phases)
    ok = summary.exhausted_at is None and disc <= 0.02
    zero_probe = all(rec["probe_entropy"] == 0.0 for rec in summary.records)
    return CheckResult(
        "phase_equidistribution", ok and zero_probe, steps, detail=f"discrepancy={disc:.5f}"
    )


def check_bound_chain(rng: np.random.Generator) -> CheckResult:
    tables = 200
    c = example_carpet()
    need = 600
    for _ in range(tables):
        symbols = tuple(int(s) for s in rng.choice(c.rows, size=need))
        word = sy.SymbolWord(c.n, symbols)
        triple = sc.empirical_measures_linear(word, 500, c.theta, block=4)
        # raises on a slack below -SLACK_TOL, which run_all records as a failure
        sc.bound_chain_report(c, triple, block=4)
    return CheckResult("bound_chain", True, tables)


ALL_CHECKS = [
    ("transpose_normal_form", check_transpose_normal_form),
    ("carry_shift_composition", check_carry_shift_composition),
    ("approx_square_diameter", check_approx_square_diameter),
    ("entropy_bounds", check_entropy_bounds),
    ("entropy_concavity", check_entropy_concavity),
    ("condition_rescale_mass", check_condition_rescale_mass),
    ("slice_conservative", check_slice_conservative),
    ("slice_nesting", check_slice_nesting),
    ("tv_residual_trend", check_tv_residual_trend),
    ("phase_equidistribution", lambda rng: check_phase_equidistribution()),
    ("bound_chain", check_bound_chain),
]


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        try:
            results.append(fn(rng))
        except Exception as exc:  # a crashed family is a failed family
            results.append(CheckResult(name, False, 0, detail=f"error: {exc!r}"))
    return results
