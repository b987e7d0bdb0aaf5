"""Magnification dynamics and the symbolic window measures they generate.

One magnification step conditions the current measure on the grid cell of
the tracked point, blows the cell up to the unit square, advances the point
by the corresponding digit shift, and rotates the phase.  The vertical digit
always advances; the horizontal one advances exactly when the phase is about
to wrap, so the conditioning cells stay comparable to squares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .carpet import Carpet, box_packing_dimension, hausdorff_chain, hausdorff_dimension, packing_chain
from .errors import BlockTooDeep, WordTooShort, ZeroMassCell
from .measures import DiscreteMeasure, GridPartition, cell_mask, condition_rescale, entropy
from .symbolic import ApproxSquare, SymbolWord, carry_shift, shift

MAX_STEPS = 10**5
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SceneryState:
    """Measure, digit-addressed point, rotation phase, and constraint word.

    ``x_word``/``y_word`` are the expansions of the tracked point; ``omega``
    is the vertical digit word as seen by the horizontal side, which lags
    behind ``y_word`` because it only advances on carry steps.
    """

    mu: DiscreteMeasure
    x_word: SymbolWord
    y_word: SymbolWord
    u: float
    omega: SymbolWord

    @property
    def m(self) -> int:
        return self.x_word.alphabet_size

    @property
    def n(self) -> int:
        return self.y_word.alphabet_size


def _point_cell(state: SceneryState, carry: bool) -> ApproxSquare:
    x_prefix = state.x_word.prefix(1) if carry else SymbolWord(state.m, ())
    return ApproxSquare(x_prefix, state.y_word.prefix(1))


def _cell_mass(mu: DiscreteMeasure, sq: ApproxSquare) -> float:
    return float(mu.weights[cell_mask(mu, sq)].sum())


def magnify_step(state: SceneryState, theta: float) -> SceneryState:
    """One magnification step; raises ZeroMassCell if the point's cell is empty."""
    carry = state.u >= 1.0 - theta
    cell = _point_cell(state, carry)
    mu = condition_rescale(state.mu, cell)
    new_x = shift(state.x_word) if carry else state.x_word
    new_y = shift(state.y_word)
    new_u = (state.u + theta) % 1.0
    new_omega = carry_shift(state.omega, state.u, theta)
    return SceneryState(mu=mu, x_word=new_x, y_word=new_y, u=new_u, omega=new_omega)


def state_from_cell(
    c: Carpet, cell: ApproxSquare, mu: DiscreteMeasure, u0: float, length: int
) -> SceneryState:
    """Scenery start whose point extends the given cover cell.

    The digit words are extended deterministically with carpet-consistent
    digits (smallest admissible, then the sorted digit list cyclically) so
    the point genuinely lies in the carpet and the orbit can run ``length``
    steps without running out of symbols.  ``omega`` is the vertical word
    itself.
    """
    xw = list(cell.x_word.symbols)
    yw = list(cell.y_word.symbols)
    while len(xw) < len(yw):
        xw.append(min(c.row_digits(yw[len(xw)])))
    while len(yw) < len(xw):
        yw.append(min(c.column_rows(xw[len(yw)])))
    # filler digit i (i >= len(yw)) is the pair pairs[i % len(pairs)]
    pairs = sorted(c.digits)
    count = max(0, length - len(yw))
    turn = len(yw) % len(pairs)
    cycle = pairs[turn:] + pairs[:turn]
    reps = -(-count // len(cycle))
    x_fill = tuple(a for a, _ in cycle) * reps
    y_fill = tuple(b for _, b in cycle) * reps
    y_word = SymbolWord(c.n, tuple(yw) + y_fill[:count])
    state = SceneryState(
        mu=mu,
        x_word=SymbolWord(c.m, tuple(xw) + x_fill[:count]),
        y_word=y_word,
        u=u0,
        omega=y_word,
    )
    if _cell_mass(mu, cell) <= 0.0:
        raise ZeroMassCell("starting point's cell carries no mass")
    return state


@dataclass
class ScenerySummary:
    """Decimated probe records plus the full phase track."""

    records: list[dict]
    phases: np.ndarray
    exhausted_at: int | None

    def to_jsonl(self) -> str:
        lines = []
        for rec in self.records:
            payload = {"schema": "carpet-lab/1"}
            payload.update(rec)
            lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def run_scenery(
    initial: SceneryState,
    steps: int,
    theta: float,
    probe_level: int = 2,
    stride: int = 1,
) -> ScenerySummary:
    """Iterate the magnification map and record probe entropies.

    Stops early (recording the step index) when conditioning finds an empty
    cell, i.e. the double-precision support of the measure is exhausted.
    """
    if steps > MAX_STEPS:
        raise ValueError(f"steps capped at {MAX_STEPS}")
    part = GridPartition.square(initial.n, probe_level)
    records: list[dict] = []
    phases = [initial.u]
    exhausted_at: int | None = None

    def record(step: int, state: SceneryState, cell_mass: float):
        rep = entropy(state.mu, part)
        records.append(
            {
                "step": step,
                "u": state.u,
                "probe_entropy": rep.normalized,
                "probe_cells": rep.cell_count,
                "cell_mass": cell_mass,
            }
        )

    state = initial
    record(0, state, 1.0)
    for j in range(1, steps + 1):
        carry = state.u >= 1.0 - theta
        mass = _cell_mass(state.mu, _point_cell(state, carry))
        try:
            state = magnify_step(state, theta)
        except ZeroMassCell:
            exhausted_at = j
            if records[-1]["step"] != j - 1:
                # last reached state, with the empty cell's mass
                record(j - 1, state, mass)
            break
        phases.append(state.u)
        if j % stride == 0 or j == steps:
            record(j, state, mass)
    return ScenerySummary(records=records, phases=np.array(phases), exhausted_at=exhausted_at)


def star_discrepancy(values: np.ndarray) -> float:
    """Star discrepancy of a sample in [0, 1); small for equidistributed orbits."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        return 1.0
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - xs, xs - (i - 1) / n).max())


# ---------------------------------------------------------------------------
# window measures over symbol words


@dataclass(frozen=True)
class BlockTable:
    """Empirical block frequencies of a shift window, lengths 1..depth.

    Prefix marginals are exact: the length-(b-1) table is the first-symbol
    marginal of the length-b table, because both average the same shifts.
    """

    depth: int
    tables: Mapping[int, Mapping[tuple[int, ...], float]]

    def vector(self, alphabet: tuple[int, ...]) -> np.ndarray:
        t1 = self.tables[1]
        return np.array([t1.get((a,), 0.0) for a in alphabet])

    def entropy(self, b: int) -> float:
        if b > self.depth:
            raise BlockTooDeep(f"table depth {self.depth} < requested block {b}")
        probs = np.array([p for p in self.tables[b].values() if p > 0.0])
        if len(probs) == 0:
            return 0.0
        return float(-(probs * np.log(probs)).sum())

    def rate_curve(self) -> list[float]:
        """Block entropy over block length, for each available length."""
        return [self.entropy(b) / b for b in range(1, self.depth + 1)]


def _window_table(word: SymbolWord, start: int, stop: int, depth: int) -> BlockTable:
    """Block table of shifts start..stop (inclusive, 0-based first symbol).

    Each length-b block is counted through an integer code: the rank of its
    length-(b-1) prefix among the distinct prefixes, times n, plus its last
    symbol.  Codes stay below width * n, so they are exact int64 for every
    block length.  The table's keys are the blocks as tuples of the word's
    symbols, in order of first occurrence, which fixes the summation order
    of ``BlockTable.entropy``.
    """
    width = stop - start + 1
    if stop + depth > len(word):
        raise WordTooShort(f"need {stop + depth} symbols, have {len(word)}")
    symbols = word.symbols
    n = word.alphabet_size
    arr = np.array(symbols[start : stop + depth], dtype=np.int64)
    codes = arr[:width]
    tables: dict[int, dict[tuple[int, ...], float]] = {}
    for b in range(1, depth + 1):
        if b > 1:
            codes = ranks * n + arr[b - 1 : b - 1 + width]
        _, first, ranks, counts = np.unique(
            codes, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first)
        tables[b] = {
            symbols[start + i : start + i + b]: cnt / width
            for i, cnt in zip(first[order].tolist(), counts[order].tolist())
        }
    return BlockTable(depth=depth, tables=tables)


def mix_tables(t1: BlockTable, w1: float, t2: BlockTable, w2: float) -> BlockTable:
    depth = min(t1.depth, t2.depth)
    mixed: dict[int, dict[tuple[int, ...], float]] = {}
    for b in range(1, depth + 1):
        keys = set(t1.tables[b]) | set(t2.tables[b])
        mixed[b] = {k: w1 * t1.tables[b].get(k, 0.0) + w2 * t2.tables[b].get(k, 0.0) for k in keys}
    return BlockTable(depth=depth, tables=mixed)


def tv_distance(t1: BlockTable, t2: BlockTable, b: int) -> float:
    keys = set(t1.tables[b]) | set(t2.tables[b])
    return 0.5 * sum(abs(t1.tables[b].get(k, 0.0) - t2.tables[b].get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class EmpiricalTriple:
    """Early-window, late-window, and full-window block tables of one word."""

    nu: BlockTable
    eta: BlockTable
    rho: BlockTable
    theta: float
    index: int  # N, the number of shifts
    window_nu: tuple[int, int]
    window_eta: tuple[int, int]
    residual_tv: float

    def to_dict(self) -> dict:
        def vec(t: BlockTable) -> dict:
            return {",".join(map(str, k)): v for k, v in sorted(t.tables[1].items())}

        return {
            "schema": "carpet-lab/1",
            "kind": "linear",
            "index": self.index,
            "theta": self.theta,
            "window_nu": list(self.window_nu),
            "window_eta": list(self.window_eta),
            "nu": vec(self.nu),
            "eta": vec(self.eta),
            "rho": vec(self.rho),
            "residual_tv": self.residual_tv,
        }


def empirical_measures_linear(
    omega: SymbolWord, n_steps: int, theta: float, block: int = 6
) -> EmpiricalTriple:
    """Window tables over shifts [1, floor(N theta)], the rest, and all of [1, N].

    Also reports the total-variation residual (on length-``block`` blocks)
    between the full-window table and the theta-weighted mix of the two
    partial windows; it vanishes as N grows, at the speed of the floor error.
    """
    if len(omega) < n_steps + block:
        raise WordTooShort(f"need {n_steps + block} symbols, have {len(omega)}")
    split = math.floor(n_steps * theta)
    if split < 1 or split >= n_steps:
        raise ValueError(f"N={n_steps} leaves an empty window for theta={theta}")
    nu = _window_table(omega, 1, split, block)
    eta = _window_table(omega, split + 1, n_steps, block)
    rho = _window_table(omega, 1, n_steps, block)
    mixed = mix_tables(nu, theta, eta, 1.0 - theta)
    return EmpiricalTriple(
        nu=nu,
        eta=eta,
        rho=rho,
        theta=theta,
        index=n_steps,
        window_nu=(1, split),
        window_eta=(split + 1, n_steps),
        residual_tv=tv_distance(rho, mixed, block),
    )


# ---------------------------------------------------------------------------
# bound-chain verification


@dataclass(frozen=True)
class BoundChainReport:
    """Numerical audit of the entropy chains bounding a slice dimension.

    ``packing_form`` and ``hausdorff_form`` are the row-energy functionals
    of the early-window vector; both are bounded by the corresponding
    carpet dimension by pure convexity algebra, so their slacks are hard
    assertions.  The mixed form additionally uses the late window and is
    only guaranteed when its entropy does not exceed the early one
    (``entropy_gap <= 0``).
    """

    gamma_proxy: float | None
    rhs_entropy_rate: float
    h_rate_estimate: float
    h_rate_curve: list[float]  # block entropy over block length, the B-sensitivity
    block: int
    dim_h: float
    dim_bp: float
    packing_form: float
    hausdorff_form: float
    hausdorff_form_mixed: float
    slack_packing: float
    slack_hausdorff: float
    slack_hausdorff_mixed: float
    entropy_gap: float

    def to_dict(self) -> dict:
        payload = {"schema": "carpet-lab/1"}
        payload.update({f.name: getattr(self, f.name) for f in fields(self)})
        return payload


def bound_chain_report(
    c: Carpet, triple: EmpiricalTriple, block: int, gamma_proxy: float | None = None
) -> BoundChainReport:
    if block > triple.rho.depth:
        raise BlockTooDeep(f"tables go to depth {triple.rho.depth}, requested {block}")
    log_m = math.log(c.m)
    log_n = math.log(c.n)
    nu_vec = triple.nu.vector(c.rows)
    log_a = np.log([float(c.row_count[j]) for j in c.rows])

    h_rate = triple.rho.entropy(block) / block
    rhs = float(nu_vec @ log_a) / log_m + h_rate / log_n

    h_nu = triple.nu.entropy(1)
    h_eta = triple.eta.entropy(1)
    packing_form = float(packing_chain(c, nu_vec))
    hausdorff_form = float(hausdorff_chain(c, nu_vec))
    mixed = float(nu_vec @ log_a) / log_m + (c.theta * h_nu + (1.0 - c.theta) * h_eta) / log_n

    dim_h = hausdorff_dimension(c)
    dim_bp = box_packing_dimension(c)
    slack_packing = dim_bp - packing_form
    slack_hausdorff = dim_h - hausdorff_form
    slack_mixed = dim_h - mixed
    entropy_gap = h_eta - h_nu
    assert slack_packing >= -SLACK_TOL, f"packing chain violated: slack {slack_packing}"
    assert slack_hausdorff >= -SLACK_TOL, f"entropy chain violated: slack {slack_hausdorff}"
    if entropy_gap <= 0.0:
        assert slack_mixed >= -SLACK_TOL, f"mixed chain violated: slack {slack_mixed}"
    return BoundChainReport(
        gamma_proxy=gamma_proxy,
        rhs_entropy_rate=rhs,
        h_rate_estimate=h_rate,
        h_rate_curve=triple.rho.rate_curve()[:block],
        block=block,
        dim_h=dim_h,
        dim_bp=dim_bp,
        packing_form=packing_form,
        hausdorff_form=hausdorff_form,
        hausdorff_form_mixed=mixed,
        slack_packing=slack_packing,
        slack_hausdorff=slack_hausdorff,
        slack_hausdorff_mixed=slack_mixed,
        entropy_gap=entropy_gap,
    )
