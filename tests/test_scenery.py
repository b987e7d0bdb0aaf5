import hashlib
import json
import math
import pickle
from collections import Counter

import numpy as np
import pytest

from carpetlab import (
    ApproxSquare,
    DiscreteMeasure,
    GridPartition,
    Line,
    SceneryState,
    SymbolWord,
    bound_chain_report,
    box_packing_dimension,
    empirical_measures_linear,
    entropy,
    hausdorff_dimension,
    magnify_step,
    new_carpet,
    run_scenery,
    slice_cover,
    state_from_cell,
)
from carpetlab.errors import BlockTooDeep, SymbolOutOfRange, WordTooShort, ZeroMassCell
from carpetlab import measures, scenery
from carpetlab.scenery import BlockTable, EmpiricalTriple


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


def orbit_state(m, n, u0, steps):
    """The all-zero point mass, as the ``long-orbit`` benchmark starts it."""
    zeros = (0,) * (steps + 2)
    return SceneryState(
        mu=DiscreteMeasure.point_mass(0.0, 0.0),
        x_word=SymbolWord(m, zeros),
        y_word=SymbolWord(n, zeros),
        u=u0,
        omega=SymbolWord(n, zeros),
    )


def make_triple(c, nu_vec, eta_vec, width=2**50):
    """Length-1 tables whose frequencies are the vectors to within 1 / width."""

    def table(vec):
        counts = np.rint(np.asarray(vec) * width).astype(np.int64)
        return BlockTable(width=int(counts.sum()), symbols=np.array(c.rows), counts=(counts,))

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
    rep = entropy(out.mu, GridPartition(full_square.n, 2))
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
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(full_square, cover.cells[0], mu, 0.0, 40)
    summary = run_scenery(state, 10, full_square.theta, probe_level=4)
    values = [rec["probe_entropy"] for rec in summary.records]
    assert abs(float(np.mean(values)) - 1.0) < 0.1


def test_run_scenery_exhaustion_reported(full_square):
    line = Line(slope=1.0, intercept=0.0)
    cover = slice_cover(full_square, line, 6)
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(full_square, cover.cells[0], mu, 0.0, 80)
    summary = run_scenery(state, 60, full_square.theta)
    assert summary.exhausted_at is not None
    assert summary.exhausted_at > 4


def test_run_scenery_multi_atom_bytes_pinned(full_square):
    # digest recorded at commit a2737586, before the grid entropy moved to
    # sort-and-bincount and conditioning to one longdouble product
    cover = slice_cover(full_square, Line(slope=0.6, intercept=0.2), 6)
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(full_square, cover.cells[0], mu, 0.3, 40)
    summary = run_scenery(state, 30, full_square.theta, probe_level=2, stride=1)
    assert len(mu) == 120
    assert summary.exhausted_at == 7
    assert [rec["probe_cells"] for rec in summary.records] == [7, 5, 1, 4, 6, 4, 1]
    data = json.dumps(summary.records).encode() + summary.phases.tobytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "e438779ed0f428a7fe72894a21487ccb1b75c5554078b52333784bc74716da6f"


def test_run_scenery_exhaustion_record_at_stride(full_square):
    # test_run_scenery_multi_atom_bytes_pinned's orbit, exhausted at step 7:
    # at stride 5 the last reached state, step 6, is recorded with the
    # failed cell's mass
    cover = slice_cover(full_square, Line(slope=0.6, intercept=0.2), 6)
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(full_square, cover.cells[0], mu, 0.3, 40)
    summary = run_scenery(state, 30, full_square.theta, probe_level=2, stride=5)
    assert summary.exhausted_at == 7
    assert [rec["step"] for rec in summary.records] == [0, 5, 6]
    assert summary.records[-1]["cell_mass"] == 0.0
    assert 0.0 < summary.records[1]["cell_mass"] <= 1.0


def test_run_scenery_point_mass_orbits_pinned():
    # digest recorded at commit 118dd61e, before the record's cell mass
    # moved onto the conditioned measure
    digest = hashlib.sha256()
    for (m, n), u0 in zip([(7, 2), (3, 2), (5, 3), (7, 6)], [0.137, 0.5, 0.861, 0.029]):
        state = orbit_state(m, n, u0, 300)
        summary = run_scenery(state, 300, math.log(n) / math.log(m), probe_level=2, stride=1)
        data = json.dumps([summary.records, summary.exhausted_at]).encode()
        digest.update(data + summary.phases.tobytes())
    want = "99b2c7e1a3adc24c8fe44aee4bafeb0e0f38b0ecb9518f50d8cd35498913d12c"
    assert digest.hexdigest() == want


def test_run_scenery_locates_each_cell_once(monkeypatch):
    calls = []
    locate = measures._locate

    def counted(mu, sq):
        calls.append(sq)
        return locate(mu, sq)

    monkeypatch.setattr(measures, "_locate", counted)
    summary = run_scenery(orbit_state(7, 6, 0.029, 50), 50, math.log(6) / math.log(7))
    assert summary.exhausted_at is None and len(summary.records) == 51
    assert len(calls) == 50


def test_run_scenery_caps_steps(full_square):
    mu = DiscreteMeasure.point_mass(0.0, 0.0)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 4, u0=0.0)
    with pytest.raises(ValueError):
        run_scenery(state, 10**5 + 1, full_square.theta)


@pytest.mark.parametrize("stride", [0, -1])
def test_run_scenery_refuses_stride_below_one(full_square, stride):
    mu = DiscreteMeasure.point_mass(0.0, 0.0)
    state = carpet_point_state(full_square, mu, [(0, 0)] * 4, u0=0.0)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        run_scenery(state, 2, full_square.theta, stride=stride)


def test_state_from_cell_words_are_carpet_consistent(example):
    line = Line.from_exponent(example.m, 0.3, 0.2)
    cover = slice_cover(example, line, 6)
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(example, cover.cells[0], mu, 0.3, 50)
    assert len(state.y_word) == 50
    for a, b in zip(state.x_word.symbols, state.y_word.symbols):
        assert (a, b) in example.digits


def test_state_from_cell_words_equal_validated_words(example):
    # the words are built from arrays; they still equal, hash and pickle as
    # words built from tuples, and the cell's own symbols are still checked
    cover = slice_cover(example, Line.from_exponent(example.m, 0.3, 0.2), 6)
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(example, cover.cells[0], mu, 0.3, 5000)
    for word, base in ((state.x_word, example.m), (state.y_word, example.n)):
        validated = SymbolWord(base, word.symbols)
        assert word == validated and hash(word) == hash(validated)
        assert pickle.loads(pickle.dumps(word)) == validated
    assert state.omega is state.y_word
    wide = ApproxSquare(SymbolWord(4, (3,)), SymbolWord(2, (0,)))
    with pytest.raises(SymbolOutOfRange, match="symbol 3 outside alphabet of size 3"):
        state_from_cell(example, wide, DiscreteMeasure.point_mass(0.9, 0.1), 0.3, 50)


def test_state_from_cell_refuses_a_cell_without_mass(example):
    # the start cell [0, 1/3) x [0, 1/2) is checked without conditioning on
    # it: empty, or holding only atoms too light to keep, it raises as the
    # first zoom would
    cell = ApproxSquare(SymbolWord(3, (0,)), SymbolWord(2, (0,)))
    far = [[0.5, 0.75], [0.9, 0.2]]
    for mu in (
        DiscreteMeasure(far, [0.5, 0.5]),
        DiscreteMeasure([[0.1, 0.1], [0.2, 0.3], *far], [1e-301, 1e-301, 0.5, 0.5]),
    ):
        with pytest.raises(ZeroMassCell, match="cell carries no mass"):
            state_from_cell(example, cell, mu, 0.3, 50)
        with pytest.raises(ZeroMassCell, match="cell carries no mass"):
            measures.condition_rescale(mu, cell)
    # one atom just above MIN_ATOM_WEIGHT is enough
    mu = DiscreteMeasure([[0.1, 0.1], *far], [2e-300, 0.5, 0.5])
    assert state_from_cell(example, cell, mu, 0.3, 50).mu is mu
    # a one-atom measure's membership is one bool: the same decisions
    for mu in (
        DiscreteMeasure.point_mass(0.5, 0.25),
        DiscreteMeasure.point_mass(math.nextafter(1 / 3, 1.0), 0.25),
        DiscreteMeasure([[0.1, 0.1]], [1e-301]),
        DiscreteMeasure([[0.1, 0.1]], [0.0]),
    ):
        with pytest.raises(ZeroMassCell, match="cell carries no mass"):
            state_from_cell(example, cell, mu, 0.3, 50)
    # the double nearest 1/3 lies below it, in the cell
    for mu in (
        DiscreteMeasure.point_mass(1 / 3, 0.25),
        DiscreteMeasure.point_mass(-0.0, 0.25),
        DiscreteMeasure([[0.1, 0.1]], [2e-300]),
    ):
        assert state_from_cell(example, cell, mu, 0.3, 50).mu is mu


def test_words_are_read_only_narrow_arrays(example):
    cover = slice_cover(example, Line.from_exponent(example.m, 0.3, 0.2), 6)
    mu = DiscreteMeasure.uniform_on(cover.centers)
    state = state_from_cell(example, cover.cells[0], mu, 0.3, 500)
    for word in (state.x_word, state.y_word, state.y_word.prefix(3)):
        assert word.array.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            word.array[0] = 0
    assert SymbolWord(2, ()).symbols == () and len(SymbolWord(2, ())) == 0
    with pytest.raises(
        SymbolOutOfRange, match=r"^symbol 1180591620717411303424 outside alphabet of size 2$"
    ):
        SymbolWord(2, (0, 2**70))


def documented_words(c, cell, length):
    """The start words as the README states them, built symbol by symbol.

    The cell's digits; then the shorter word padded (the smallest digit of
    the row, or the smallest row of the column); then, from index len(yw)
    on, the sorted digit pairs taken cyclically: symbol i is pairs[i % |D|].
    """
    xw, yw = list(cell.x_word.symbols), list(cell.y_word.symbols)
    while len(xw) < len(yw):
        xw.append(min(c.row_digits(yw[len(xw)])))
    while len(yw) < len(xw):
        yw.append(min(c.column_rows(xw[len(yw)])))
    pairs = sorted(c.digits)
    for i in range(len(yw), length):
        xw.append(pairs[i % len(pairs)][0])
        yw.append(pairs[i % len(pairs)][1])
    return xw, yw


@pytest.mark.parametrize(
    "m,n,digits,x_cell,y_cell",
    [
        (3, 2, [(0, 0), (2, 0), (1, 1)], (2,), (1, 0, 1, 1)),  # y word longer
        (3, 2, [(0, 0), (2, 0), (1, 1)], (1, 2, 0, 2, 1), (1,)),  # x word longer
        (300, 2, [(0, 0), (299, 0), (150, 1), (7, 1)], (299, 7), (0,)),  # uint16 x word
    ],
)
def test_state_from_cell_words_follow_the_documented_construction(m, n, digits, x_cell, y_cell):
    c = new_carpet(m, n, digits)
    cell = ApproxSquare(SymbolWord(m, x_cell), SymbolWord(n, y_cell))
    mu = DiscreteMeasure.point_mass(*cell.center())
    for length in (0, 2, 5, 6, 7, 11, 1000):
        state = state_from_cell(c, cell, mu, 0.3, length)
        xw, yw = documented_words(c, cell, length)
        assert state.x_word.symbols == tuple(xw) and state.y_word.symbols == tuple(yw)
        assert state.x_word.array.dtype == (np.uint16 if m > 256 else np.uint8)
        assert state.y_word.array.dtype == np.uint8
        assert state.omega is state.y_word


def test_state_from_cell_refuses_a_cell_symbol_past_the_narrow_dtype(example):
    # 300 fits no uint8: it must reach the range check, not overflow
    cell = ApproxSquare(SymbolWord(1000, (300,)), SymbolWord(2, (0,)))
    with pytest.raises(SymbolOutOfRange, match="^symbol 300 outside alphabet of size 3$"):
        state_from_cell(example, cell, DiscreteMeasure.point_mass(0.1, 0.1), 0.3, 50)
    cell = ApproxSquare(SymbolWord(3, (0,)), SymbolWord(1000, (256,)))
    with pytest.raises(SymbolOutOfRange, match="^symbol 256 outside alphabet of size 2$"):
        state_from_cell(example, cell, DiscreteMeasure.point_mass(0.1, 0.1), 0.3, 50)


# -- window measures --


def test_linear_windows_constant_word(example):
    theta = example.theta
    n = 500
    word = SymbolWord(2, (1,) * (n + 8))
    triple = empirical_measures_linear(word, n, theta, block=4)
    for table in (triple.nu, triple.eta, triple.rho):
        assert table.frequencies() == {1: 1.0}
        assert [table.entropy(b).hex() for b in range(1, 5)] == [(0.0).hex()] * 4
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


def counter_counts(symbols, start, stop, depth):
    """Reference block counts: a Counter of the length-b blocks of shifts [start, stop], per b."""
    shifts = range(start, stop + 1)
    return [Counter(symbols[i : i + b] for i in shifts) for b in range(1, depth + 1)]


def reference_entropy(counts, width):
    """-fsum of p log p over a Counter's counts, in its own order."""
    probs = np.array([cnt / width for cnt in counts.values()])
    return -math.fsum((probs * np.log(probs)).tolist()) + 0.0


def reference_residual(ref_nu, ref_eta, ref_rho, widths, theta):
    """Total variation over the blocks of [1, N], block by block."""
    w_nu, w_eta, w_rho = widths
    mixed = {k: theta * (ref_nu[k] / w_nu) + (1.0 - theta) * (ref_eta[k] / w_eta) for k in ref_rho}
    return 0.5 * math.fsum(abs(ref_rho[k] / w_rho - mixed[k]) for k in ref_rho)


def assert_same_windows(triple, symbols):
    """Each one-pass table holds its own window's Counter counts, exactly.

    The ranks of a length ascend in the lexicographic order of its blocks
    and are shared by the three tables, so rho's nonzero ranks, in order,
    are the sorted blocks of [1, N].
    """
    n_steps, split, depth = triple.index, triple.window_nu[1], triple.rho.depth
    windows = {"nu": (1, split), "eta": (split + 1, n_steps), "rho": (1, n_steps)}
    refs = {name: counter_counts(symbols, lo, hi, depth) for name, (lo, hi) in windows.items()}
    tables = {"nu": triple.nu, "eta": triple.eta, "rho": triple.rho}
    for name, (lo, hi) in windows.items():
        assert tables[name].width == hi - lo + 1 and tables[name].depth == depth
        assert tables[name].symbols is triple.rho.symbols
    occurring = np.flatnonzero(triple.rho.counts[0])
    assert triple.rho.symbols[occurring].tolist() == [k for (k,) in sorted(refs["rho"][0])]
    for b in range(1, depth + 1):
        occurring = np.flatnonzero(triple.rho.counts[b - 1])
        blocks = sorted(refs["rho"][b - 1])
        for name, table in tables.items():
            counts, ref = table.counts[b - 1], refs[name][b - 1]
            assert counts.dtype == np.int64
            assert counts[occurring].tolist() == [ref[k] for k in blocks]
            assert not np.delete(counts, occurring).any()
            assert table.entropy(b).hex() == reference_entropy(ref, table.width).hex()
    for name, table in tables.items():
        assert table.rate_curve() == [table.entropy(b) / b for b in range(1, depth + 1)]
        ref = {k: cnt / table.width for (k,), cnt in sorted(refs[name][0].items())}
        assert table.frequencies() == ref and list(table.frequencies()) == list(ref)
    widths = (split, n_steps - split, n_steps)
    residual = reference_residual(*(refs[name][-1] for name in tables), widths, triple.theta)
    assert triple.residual_tv.hex() == residual.hex()


def test_block_tables_prefix_consistent(rng, example):
    # the length-(b-1) counts are the first-symbol marginal of the length-b ones
    symbols = tuple(int(s) for s in rng.choice(example.rows, size=400))
    word = SymbolWord(2, symbols)
    triple = empirical_measures_linear(word, 300, example.theta, block=5)
    assert_same_windows(triple, symbols)
    for table in (triple.nu, triple.eta, triple.rho):
        assert all(int(counts.sum()) == table.width for counts in table.counts)


def noisy_periodic(rng, n, length, period, flips):
    """A word that repeats its blocks, so long blocks still have counts above 1."""
    base = rng.integers(0, n, size=period)
    word = np.resize(base, length)
    at = rng.integers(0, length, size=flips)
    word[at] = rng.integers(0, n, size=flips)
    return tuple(int(s) for s in word)


def linear_tables(n, symbols, n_steps, split, depth):
    """``empirical_measures_linear`` with theta chosen so that floor(N theta) == split."""
    triple = empirical_measures_linear(
        SymbolWord(n, symbols), n_steps, (split + 0.5) / n_steps, block=depth
    )
    assert triple.window_nu == (1, split)
    return triple


@pytest.mark.parametrize("n", [2, 3, 5, 11])
def test_window_table_matches_counter(rng, n):
    for trial in range(12):
        depth = int(rng.integers(1, 9))
        n_steps = int(rng.integers(2, 500))
        if trial % 2:
            symbols = noisy_periodic(rng, n, n_steps + depth, int(rng.integers(1, 9)), 5)
        else:
            symbols = tuple(int(s) for s in rng.integers(0, n, size=n_steps + depth))
        split = int(rng.integers(1, n_steps))
        assert_same_windows(linear_tables(n, symbols, n_steps, split, depth), symbols)


@pytest.mark.parametrize("n,depth,theta", [(2, 6, 0.91), (3, 6, 0.37), (4, 4, 0.91)])
def test_window_sums_ignore_rank_order(rng, n, depth, theta):
    # entropies and the residual are math.fsum sums, correctly rounded, so
    # permuting the ranks of every length, alike in the three tables,
    # leaves their bits as they are
    symbols = tuple(int(s) for s in rng.integers(0, n, size=156 + depth))
    triple = empirical_measures_linear(SymbolWord(n, symbols), 156, theta, block=depth)

    def bits(nu, eta, rho):
        entropies = [t.entropy(b).hex() for t in (nu, eta, rho) for b in range(1, depth + 1)]
        return entropies, scenery._residual_tv(nu, eta, rho, theta, depth).hex()

    kept = bits(triple.nu, triple.eta, triple.rho)
    assert kept[1] == triple.residual_tv.hex()
    plain = set()
    for _ in range(10):
        perms = [rng.permutation(len(counts)) for counts in triple.rho.counts]
        nu, eta, rho = (
            BlockTable(
                width=t.width,
                symbols=t.symbols[perms[0]],
                counts=tuple(counts[perm] for counts, perm in zip(t.counts, perms)),
            )
            for t in (triple.nu, triple.eta, triple.rho)
        )
        assert bits(nu, eta, rho) == kept
        assert nu.vector(tuple(range(n))).tolist() == triple.nu.vector(tuple(range(n))).tolist()
        at = np.flatnonzero(rho.counts[-1])
        p_nu, p_eta, p_rho = (t.counts[-1][at] / t.width for t in (nu, eta, rho))
        terms = np.abs(p_rho - (theta * p_nu + (1.0 - theta) * p_eta))
        plain.add((sum((p_rho * np.log(p_rho)).tolist()), sum(terms.tolist())))
    # a plain sum of the same terms, in rank order, does move with the order here
    assert len({h for h, _ in plain}) > 1 and len({tv for _, tv in plain}) > 1


@pytest.mark.parametrize("n,depth", [(2, 70), (3, 45), (1000, 30)])
def test_window_table_exact_past_int64_codes(rng, n, depth):
    # a plain base-n code of a length-b block would fit int64 only while
    # n**b < 2**63; the deeper blocks here lie past that cut
    cut = max(b for b in range(1, depth) if n**b < 2**63)
    assert cut + 1 < depth
    symbols = noisy_periodic(rng, n, 400 + depth, 23, 12)
    for n_steps, split in ((399, 200), (250, 17)):
        triple = linear_tables(n, symbols, n_steps, split, depth)
        assert_same_windows(triple, symbols)
        assert 1 < np.count_nonzero(triple.rho.counts[cut]) < n_steps


@pytest.mark.parametrize(
    "n,n_steps,depth,counted,sorted_",
    [
        (2, 300, 8, True, False),
        (5, 300, 1, True, False),
        (40, 300, 4, True, True),  # 40 * 40 distinct 1-blocks > 4 * 300
        (200, 50, 3, True, True),  # the first level sits on the cut: 200 == 4 * 50
        (201, 50, 3, False, True),
        (1000, 200, 1, False, True),
    ],
)
def test_window_table_counts_or_sorts(rng, monkeypatch, n, n_steps, depth, counted, sorted_):
    # a level ranks its codes by counting while its flag table, K_{b-1} * n
    # entries for K_{b-1} distinct shorter blocks, holds at most 4 N, and by
    # np.unique past that; both sides must give the Counter counts
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    symbols = tuple(int(s) for s in rng.integers(0, n, size=n_steps + depth))
    for split in (1, n_steps // 3, n_steps - 1):
        sorts.clear()
        triple = linear_tables(n, symbols, n_steps, split, depth)
        assert_same_windows(triple, symbols)
        distinct = [1] + [np.count_nonzero(triple.rho.counts[b - 1]) for b in range(1, depth)]
        assert len(sorts) == sum(k * n > 4 * n_steps for k in distinct)
        assert (len(sorts) < depth, len(sorts) > 0) == (counted, sorted_)


@pytest.mark.parametrize(
    "n,n_steps,depth,compactions",
    [
        (2, 99_000, 6, 0),  # 2**6 * 2 codes, far below 4 N
        (3, 300, 6, 1),  # 3**6 * 3 > 4 N: only the last length compacts
        (3, 300, 9, 4),  # ... and each longer one, as K_b * 9 > 4 N
        (40, 300, 4, 4),  # 40 * 40 > 4 N: every length compacts
    ],
)
def test_window_table_compacts_lazily(rng, monkeypatch, n, n_steps, depth, compactions):
    # codes grow as code * n + symbol and are compacted to ranks only when
    # the next length's space would exceed 4 N; the counts stay the Counter
    # counts whether or not a length was compacted
    calls = []
    dense_ranks = scenery._dense_ranks
    monkeypatch.setattr(
        scenery, "_dense_ranks", lambda codes, size: calls.append(size) or dense_ranks(codes, size)
    )
    symbols = tuple(int(s) for s in rng.integers(0, n, size=n_steps + depth))
    triple = linear_tables(n, symbols, n_steps, n_steps // 3, depth)
    assert_same_windows(triple, symbols)
    assert len(calls) == compactions


def test_window_table_counts_each_shift_once(rng, monkeypatch):
    # nu counts the codes of [1, split] and eta those of [split + 1, N]; rho
    # is their sum, so the unweighted counts see N codes, not N + split
    counted = []
    bincount = np.bincount

    def recorded(*args, **kwargs):
        if kwargs.get("weights") is None and len(args) < 2:
            counted.append(len(args[0]))
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", recorded)
    n, n_steps, depth = 2, 99_000, 6
    symbols = tuple(int(s) for s in rng.integers(0, n, size=n_steps + depth))
    triple = linear_tables(n, symbols, n_steps, n_steps // 3, depth)
    assert sum(counted) == n_steps
    monkeypatch.undo()
    assert_same_windows(triple, symbols)


def test_window_table_edges():
    # the late window (1, 0) meets its blocks in the other order than [1, N];
    # every table reads its symbols in ascending order all the same
    symbols = (0, 0, 1, 1, 0, 0)
    triple = linear_tables(2, symbols, 4, 2, 2)
    assert_same_windows(triple, symbols)
    assert triple.rho.frequencies() == triple.eta.frequencies() == {0: 0.5, 1: 0.5}
    assert list(triple.eta.frequencies()) == [0, 1]
    assert triple.to_dict()["eta"] == {"0": 0.5, "1": 0.5}
    # the shortest windows: one shift each
    assert_same_windows(linear_tables(2, symbols, 2, 1, 1), symbols)
    with pytest.raises(WordTooShort):
        empirical_measures_linear(SymbolWord(2, symbols), 4, 0.5, block=3)


def test_block_below_one_rejected(example):
    word = SymbolWord(2, (0, 1) * 20)
    with pytest.raises(ValueError):
        empirical_measures_linear(word, 30, example.theta, block=0)
    table = empirical_measures_linear(word, 30, example.theta, block=2).rho
    with pytest.raises(ValueError):
        table.entropy(0)


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


@pytest.mark.parametrize(
    "chain,message",
    [("packing_chain", "packing chain violated"), ("hausdorff_chain", "entropy chain violated")],
)
def test_bound_chain_violation_raises(monkeypatch, example, chain, message):
    # raised, not asserted, so the check holds under python -O too
    monkeypatch.setattr(scenery, chain, lambda c, vec: 2.5)  # past any carpet dimension
    triple = make_triple(example, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(AssertionError, match=message):
        bound_chain_report(example, triple, block=1)


def test_bound_chain_mixed_violation_needs_no_entropy_gain(monkeypatch, example):
    # slack_hausdorff 0.5 while slack_mixed = -0.5 - mixed < 0
    monkeypatch.setattr(scenery, "hausdorff_chain", lambda c, vec: -1.0)
    monkeypatch.setattr(scenery, "hausdorff_dimension", lambda c: -0.5)
    flat = make_triple(example, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(AssertionError, match="mixed chain violated"):
        bound_chain_report(example, flat, block=1)
    rising = make_triple(example, [0.9, 0.1], [0.5, 0.5])
    assert bound_chain_report(example, rising, block=1).entropy_gap > 0.0


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

