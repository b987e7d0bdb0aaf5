import math
from collections import Counter

import numpy as np
import pytest

from carpetlab import (
    DiscreteMeasure,
    GridPartition,
    Line,
    SceneryState,
    SymbolWord,
    bound_chain_report,
    box_packing_dimension,
    cover_measure,
    empirical_measures_linear,
    entropy,
    hausdorff_dimension,
    magnify_step,
    new_carpet,
    run_scenery,
    slice_cover,
    state_from_cell,
)
from carpetlab.errors import BlockTooDeep, WordTooShort, ZeroMassCell
from carpetlab.scenery import BlockTable, EmpiricalTriple, _window_table


def full_grid_measure(c, depth):
    m_side = c.m**depth
    n_side = c.n**depth
    xs = (np.arange(m_side) + 0.5) / m_side
    ys = (np.arange(n_side) + 0.5) / n_side
    gx, gy = np.meshgrid(xs, ys)
    return DiscreteMeasure.uniform_on(np.column_stack([gx.ravel(), gy.ravel()]))


def carpet_point_state(c, mu, pairs, u0):
    xw = SymbolWord(c.m, tuple(p[0] for p in pairs))
    yw = SymbolWord(c.n, tuple(p[1] for p in pairs))
    return SceneryState(mu=mu, x_word=xw, y_word=yw, u=u0, omega=yw)


def make_triple(c, nu_vec, eta_vec, depth=1):
    def table(vec):
        return BlockTable(depth=depth, tables={1: {(j,): p for j, p in zip(c.rows, vec) if p > 0}})

    nu, eta = table(nu_vec), table(eta_vec)
    rho = table([c.theta * a + (1 - c.theta) * b for a, b in zip(nu_vec, eta_vec)])
    return EmpiricalTriple(
        nu=nu,
        eta=eta,
        rho=rho,
        theta=c.theta,
        index=0,
        window_nu=(1, 1),
        window_eta=(2, 2),
        residual_tv=0.0,
    )


# -- magnification --


def test_magnify_uniform_grid_self_similar(full_square):
    mu = full_grid_measure(full_square, 4)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 8, u0=0.9)
    out = magnify_step(state, full_square.theta)
    # conditioned on one m x n cell: again a uniform grid, one level up
    assert len(out.mu) == len(mu) // (full_square.m * full_square.n)
    assert np.allclose(out.mu.weights, 1.0 / len(out.mu))
    rep = entropy(out.mu, GridPartition.square(full_square.n, 2))
    # the 27 horizontal grid values split 7/7/7/6 over 4 bins, hence the slack
    assert abs(rep.normalized - 2.0) < 0.01


def test_magnify_point_mass_stays_point():
    c = new_carpet(3, 2, [(0, 0), (2, 1)])
    mu = DiscreteMeasure.point_mass(0.0, 0.0)
    state = carpet_point_state(c, mu, [(0, 0)] * 20, u0=0.5)
    for _ in range(15):
        state = magnify_step(state, c.theta)
        assert len(state.mu) == 1
        assert state.mu.weights[0] == 1.0


def test_magnify_zero_mass_cell():
    c = new_carpet(3, 2, [(0, 0), (2, 1)])
    mu = DiscreteMeasure.point_mass(0.95, 0.95)  # far from the tracked point
    state = carpet_point_state(c, mu, [(0, 0)] * 4, u0=0.0)
    with pytest.raises(ZeroMassCell):
        magnify_step(state, c.theta)


# -- orbit summaries --


def test_run_scenery_point_mass_zero_entropy(full_square):
    mu = DiscreteMeasure.point_mass(0.0, 0.0)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 120, u0=0.0)
    summary = run_scenery(state, 100, full_square.theta, probe_level=2, stride=10)
    assert summary.exhausted_at is None
    assert all(rec["probe_entropy"] == 0.0 for rec in summary.records)
    assert all(rec["cell_mass"] == 1.0 for rec in summary.records[1:])


def test_run_scenery_uniform_probe_constant(full_square):
    mu = full_grid_measure(full_square, 5)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 10, u0=0.9)
    summary = run_scenery(state, 3, full_square.theta, probe_level=2)
    for rec in summary.records:
        assert abs(rec["probe_entropy"] - 2.0) < 0.01


def test_run_scenery_diagonal_probe_near_one(full_square):
    # blow-ups of the diagonal live on lines of slope m**u, u moving with
    # the rotation; the slope contributes an O(1) entropy excess, so probe
    # at level 4 where the normalized excess is small
    line = Line(slope=1.0, intercept=0.0)
    cover = slice_cover(full_square, line, 12)
    mu = cover_measure(full_square, line, 12)
    state = state_from_cell(full_square, cover.cells[0], mu, 0.0, 40)
    summary = run_scenery(state, 10, full_square.theta, probe_level=4)
    values = [rec["probe_entropy"] for rec in summary.records]
    assert abs(float(np.mean(values)) - 1.0) < 0.1


def test_run_scenery_exhaustion_reported(full_square):
    line = Line(slope=1.0, intercept=0.0)
    cover = slice_cover(full_square, line, 6)
    mu = cover_measure(full_square, line, 6)
    state = state_from_cell(full_square, cover.cells[0], mu, 0.0, 80)
    summary = run_scenery(state, 60, full_square.theta)
    assert summary.exhausted_at is not None
    assert summary.exhausted_at > 4


def test_run_scenery_caps_steps(full_square):
    mu = DiscreteMeasure.point_mass(0.0, 0.0)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 4, u0=0.0)
    with pytest.raises(ValueError):
        run_scenery(state, 10**5 + 1, full_square.theta)


def test_state_from_cell_words_are_carpet_consistent(example):
    line = Line.from_exponent(example.m, 0.3, 0.2)
    cover = slice_cover(example, line, 6)
    mu = cover_measure(example, line, 6)
    state = state_from_cell(example, cover.cells[0], mu, 0.3, 50)
    assert len(state.y_word) == 50
    for a, b in zip(state.x_word.symbols, state.y_word.symbols):
        assert (a, b) in example.digits


# -- window measures --


def test_linear_windows_constant_word(example):
    theta = example.theta
    n = 500
    word = SymbolWord(2, (1,) * (n + 8))
    triple = empirical_measures_linear(word, n, theta, block=4)
    for table in (triple.nu, triple.eta, triple.rho):
        assert table.tables[1] == {(1,): 1.0}
    split = math.floor(n * theta)
    assert triple.residual_tv <= abs(split / n - theta) + 1e-12


def test_linear_windows_periodic_word(example):
    theta = example.theta
    n = 2000
    word = SymbolWord(2, tuple(i % 2 for i in range(n + 8)))
    triple = empirical_measures_linear(word, n, theta, block=4)
    for table in (triple.nu, triple.eta, triple.rho):
        vec = table.vector((0, 1))
        assert np.all(np.abs(vec - 0.5) < 10.0 / n)


def test_linear_windows_word_too_short(example):
    with pytest.raises(WordTooShort):
        empirical_measures_linear(SymbolWord(2, (0,) * 50), 100, example.theta)


def test_block_tables_prefix_consistent(rng, example):
    symbols = tuple(int(s) for s in rng.choice(example.rows, size=400))
    word = SymbolWord(2, symbols)
    triple = empirical_measures_linear(word, 300, example.theta, block=5)
    for table in (triple.nu, triple.eta, triple.rho):
        for b in range(2, 6):
            marginal = {}
            for w, p in table.tables[b].items():
                marginal[w[:-1]] = marginal.get(w[:-1], 0.0) + p
            for w, p in table.tables[b - 1].items():
                assert abs(marginal.get(w, 0.0) - p) < 1e-12


def counter_table(symbols, start, stop, depth):
    """Reference block table: a Counter over every window, keys in first-seen order."""
    width = stop - start + 1
    tables = {}
    for b in range(1, depth + 1):
        counts = Counter(symbols[i : i + b] for i in range(start, stop + 1))
        tables[b] = {w: cnt / width for w, cnt in counts.items()}
    return BlockTable(depth=depth, tables=tables)


def assert_same_table(got, ref):
    assert got.depth == ref.depth
    for b in range(1, ref.depth + 1):
        assert list(got.tables[b].items()) == list(ref.tables[b].items())
        assert all(type(s) is int for key in got.tables[b] for s in key)
        assert got.entropy(b) == ref.entropy(b)  # bit-equal: same summation order
    assert got.rate_curve() == ref.rate_curve()


def noisy_periodic(rng, n, length, period, flips):
    """A word that repeats its blocks, so long blocks still have counts above 1."""
    base = rng.integers(0, n, size=period)
    word = np.resize(base, length)
    at = rng.integers(0, length, size=flips)
    word[at] = rng.integers(0, n, size=flips)
    return tuple(int(s) for s in word)


@pytest.mark.parametrize("n", [2, 3, 5, 11])
def test_window_table_matches_counter(rng, n):
    for trial in range(12):
        depth = int(rng.integers(1, 9))
        length = int(rng.integers(1, 500))
        if trial % 2:
            symbols = noisy_periodic(rng, n, length + depth, int(rng.integers(1, 9)), 5)
        else:
            symbols = tuple(int(s) for s in rng.integers(0, n, size=length + depth))
        start = int(rng.integers(0, length))
        stop = int(rng.integers(start, length))
        got = _window_table(SymbolWord(n, symbols), start, stop, depth)
        assert_same_table(got, counter_table(symbols, start, stop, depth))


@pytest.mark.parametrize("n,depth", [(2, 70), (3, 45), (1000, 30)])
def test_window_table_exact_past_int64_codes(rng, n, depth):
    # a plain base-n code of a length-b block would fit int64 only while
    # n**b < 2**63; the deeper blocks here lie past that cut
    cut = max(b for b in range(1, depth) if n**b < 2**63)
    assert cut + 1 < depth
    symbols = noisy_periodic(rng, n, 400 + depth, 23, 12)
    word = SymbolWord(n, symbols)
    for start, stop in ((0, 399), (17, 250)):
        got = _window_table(word, start, stop, depth)
        assert_same_table(got, counter_table(symbols, start, stop, depth))
        assert 1 < len(got.tables[cut + 1]) < stop - start + 1


def test_window_table_edges():
    word = SymbolWord(2, (0, 1, 1, 0, 1))
    assert _window_table(word, 3, 2, 2).tables == {1: {}, 2: {}}
    assert_same_table(_window_table(word, 0, 3, 1), counter_table(word.symbols, 0, 3, 1))
    with pytest.raises(WordTooShort):
        _window_table(word, 1, 3, 3)


# -- bound chains --


def test_bound_chain_equality_uniform_rows():
    c = new_carpet(3, 2, [(0, 0), (2, 0), (0, 1), (2, 1)])  # uniform rows
    vec = [0.5, 0.5]
    rep = bound_chain_report(c, make_triple(c, vec, vec), block=1)
    assert abs(rep.packing_form - box_packing_dimension(c)) < 1e-12
    assert rep.slack_packing >= -1e-9


def test_bound_chain_equality_hausdorff(example):
    a = np.array([2.0, 1.0])
    vec = a**example.theta / (a**example.theta).sum()
    rep = bound_chain_report(example, make_triple(example, vec, vec), block=1)
    assert abs(rep.hausdorff_form - hausdorff_dimension(example)) < 1e-12
    assert abs(rep.hausdorff_form_mixed - hausdorff_dimension(example)) < 1e-12
    assert abs(rep.entropy_gap) < 1e-12


def test_bound_chain_point_mass_on_thin_row(example):
    # all weight on the row with a single digit: only the rate term remains
    rep = bound_chain_report(example, make_triple(example, [0.0, 1.0], [0.0, 1.0]), block=1)
    assert abs(rep.rhs_entropy_rate - rep.h_rate_estimate / math.log(example.n)) < 1e-12
    assert rep.rhs_entropy_rate <= rep.dim_h + 1e-9


def test_bound_chain_block_too_deep(example):
    triple = make_triple(example, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(BlockTooDeep):
        bound_chain_report(example, triple, block=3)


def test_bound_chain_from_real_words(rng, example):
    # the chain slacks are the bound_chain proptest family; this checks the
    # reported rate curve, which may rise by at most the finite-window error
    for _ in range(50):
        symbols = tuple(int(s) for s in rng.choice(example.rows, size=1200))
        word = SymbolWord(2, symbols)
        triple = empirical_measures_linear(word, 1000, example.theta, block=6)
        curve = bound_chain_report(example, triple, block=6).h_rate_curve
        window = triple.window_nu[1]
        tol = 8.0 * math.log(len(example.rows)) * len(curve) / window
        for h1, h2 in zip(curve, curve[1:]):
            assert h2 <= h1 + tol


def test_block_rate_estimate_decreases(rng, example):
    symbols = tuple(int(s) for s in rng.choice(example.rows, size=20_000))
    word = SymbolWord(2, symbols)
    triple = empirical_measures_linear(word, 19_000, example.theta, block=6)
    curve = triple.rho.rate_curve()
    for h1, h2 in zip(curve, curve[1:]):
        assert h2 <= h1 + 1e-3


def test_summary_jsonl(full_square):
    mu = DiscreteMeasure.point_mass(0.0, 0.0)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 12, u0=0.0)
    summary = run_scenery(state, 5, full_square.theta)
    lines = summary.to_jsonl().strip().splitlines()
    assert len(lines) == len(summary.records)
    import json

    rec = json.loads(lines[0])
    assert rec["schema"] == "carpet-lab/1"
    assert {"step", "u", "probe_entropy", "probe_cells", "cell_mass"} <= set(rec)
