"""Magnification dynamics and the symbolic window measures they generate.

One magnification step conditions the current measure on the grid cell of
the tracked point, blows the cell up to the unit square, advances the point
by the corresponding digit shift, and rotates the phase.  The vertical digit
always advances; the horizontal one advances exactly when the phase is about
to wrap, so the conditioning cells stay comparable to squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .carpet import Carpet, box_packing_dimension, hausdorff_chain, hausdorff_dimension, packing_chain
from .errors import BlockTooDeep, WordTooShort, ZeroMassCell
from .measures import DiscreteMeasure, GridPartition, condition_rescale, entropy, holds_mass
from .symbolic import ApproxSquare, SymbolWord, shift
from .symbolic import carry_shift  # no step calls it; perfbench/spans.py patches scenery.carry_shift

MAX_STEPS = 10**5
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SceneryState:
    """Measure, digit-addressed point, rotation phase, and constraint word.

    ``x_word``/``y_word`` are the expansions of the tracked point; ``omega``
    is the vertical digit word that the window tables read
    (``empirical_measures_linear``), fixed over the orbit: a magnification
    step passes it through unchanged.
    """

    mu: DiscreteMeasure
    x_word: SymbolWord
    y_word: SymbolWord
    u: float
    omega: SymbolWord


def magnify_step(state: SceneryState, theta: float) -> SceneryState:
    """One magnification step; raises ZeroMassCell if the point's cell is empty."""
    carry = state.u >= 1.0 - theta
    cell = ApproxSquare(state.x_word.prefix(1 if carry else 0), state.y_word.prefix(1))
    mu = condition_rescale(state.mu, cell)
    new_x = shift(state.x_word) if carry else state.x_word
    new_y = shift(state.y_word)
    new_u = (state.u + theta) % 1.0
    return SceneryState(mu=mu, x_word=new_x, y_word=new_y, u=new_u, omega=state.omega)


def state_from_cell(
    c: Carpet, cell: ApproxSquare, mu: DiscreteMeasure, u0: float, length: int
) -> SceneryState:
    """Scenery start whose point extends the given cover cell.

    The digit words are extended deterministically with carpet-consistent
    digits (smallest admissible, then the sorted digit list cyclically) so
    the point genuinely lies in the carpet and the orbit can run ``length``
    steps without running out of symbols.  ``omega`` is the vertical word
    itself.  Raises ZeroMassCell, as the first zoom would, if the cell holds
    no atom heavy enough to keep.
    """
    xw = list(cell.x_word.symbols)
    yw = list(cell.y_word.symbols)
    while len(xw) < len(yw):
        xw.append(min(c.row_digits(yw[len(xw)])))
    while len(yw) < len(xw):
        yw.append(min(c.column_rows(xw[len(yw)])))
    pairs = sorted(c.digits)
    count = max(0, length - len(yw))

    def word(base: int, head: list[int], column: int) -> SymbolWord:
        # the head is range-checked as a word of its own, so a cell symbol
        # past the narrow dtype raises SymbolOutOfRange, not OverflowError
        head = SymbolWord(base, head).array
        digits = np.empty(len(head) + count, dtype=head.dtype)
        digits[: len(head)] = head
        # filler digit i (i >= len(yw)) is coordinate ``column`` of
        # pairs[i % len(pairs)]: one period, then doubling copies of it
        filler, filled = digits[len(head) :], min(len(pairs), count)
        filler[:filled] = np.roll([p[column] for p in pairs], -len(head))[:filled]
        while filled < count:
            step = min(filled, count - filled)
            filler[filled : filled + step] = filler[:step]
            filled += step
        return SymbolWord(base, digits)

    y_word = word(c.n, yw, 1)
    state = SceneryState(mu=mu, x_word=word(c.m, xw, 0), y_word=y_word, u=u0, omega=y_word)
    if not holds_mass(mu, cell):  # the start cell, not conditioned on
        raise ZeroMassCell("cell carries no mass")
    return state


@dataclass
class ScenerySummary:
    """Decimated probe records plus the full phase track."""

    records: list[dict]
    phases: np.ndarray
    exhausted_at: int | None


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
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    part = GridPartition(initial.y_word.alphabet_size, probe_level)
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
        try:
            state = magnify_step(state, theta)
        except ZeroMassCell:
            exhausted_at = j
            if records[-1]["step"] != j - 1:
                # last reached state, with the failed cell's mass: 0.0, as its atoms
                # are too light to keep, and conditioning a normalized measure
                # brings no weight near that from well above it
                record(j - 1, state, 0.0)
            break
        phases.append(state.u)
        if j % stride == 0 or j == steps:
            record(j, state, state.mu.cell_mass)
    return ScenerySummary(records=records, phases=np.array(phases), exhausted_at=exhausted_at)


# ---------------------------------------------------------------------------
# window measures over symbol words


@dataclass(frozen=True, eq=False)
class BlockTable:
    """Empirical block counts of a shift window, lengths 1..depth.

    ``counts[b - 1][r]`` is the number of the window's ``width`` shifts that
    start the length-b block of rank r, and ``symbols[r]`` is the symbol of
    length-1 rank r.  Ranks ascend in the lexicographic order of their
    blocks, the three tables of one word share them, and a rank no shift of
    the window takes counts 0.  Prefix
    marginals are exact: the length-(b-1) counts are the first-symbol
    marginal of the length-b counts, because both count the same shifts.
    Sums over a table are ``math.fsum``, correctly rounded, so no order of
    the ranks reaches their bits.
    """

    width: int
    symbols: np.ndarray
    counts: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.counts)

    def frequencies(self) -> dict[int, float]:
        """``count / width`` of each symbol that occurs, in ascending order."""
        at = np.flatnonzero(self.counts[0])
        return dict(zip(self.symbols[at].tolist(), (self.counts[0][at] / self.width).tolist()))

    def vector(self, alphabet: tuple[int, ...]) -> np.ndarray:
        freq = self.frequencies()
        return np.array([freq.get(a, 0.0) for a in alphabet])

    def entropy(self, b: int) -> float:
        if b < 1:
            raise ValueError(f"block length must be >= 1, got {b}")
        if b > self.depth:
            raise BlockTooDeep(f"table depth {self.depth} < requested block {b}")
        counts = self.counts[b - 1]
        probs = counts[counts > 0] / self.width
        return -math.fsum((probs * np.log(probs)).tolist()) + 0.0  # + 0.0 drops negative zero

    def rate_curve(self) -> list[float]:
        """Block entropy over block length, for each available length."""
        return [self.entropy(b) / b for b in range(1, self.depth + 1)]


# a counting rank's flag table may hold this many entries per shift; past that
# (a wide alphabet) a sort ranks, so memory stays bounded
_COUNT_TABLE_PER_SHIFT = 4


def _dense_ranks(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each code in [0, size) among the distinct codes, and those codes, ascending.

    Counting and sorting give the same ranks; the input size picks one.
    """
    if size <= _COUNT_TABLE_PER_SHIFT * len(codes):
        seen = np.bincount(codes, minlength=size) > 0
        return np.cumsum(seen)[codes] - 1, np.flatnonzero(seen)
    # a comparison sort, not a radix sort: np.unique argsorts with kind='quicksort'
    present, ranks = np.unique(codes.astype(np.min_scalar_type(size - 1)), return_inverse=True)
    return ranks, present


def _window_tables(
    word: SymbolWord, n_steps: int, split: int, depth: int
) -> tuple[BlockTable, BlockTable, BlockTable]:
    """Block tables of shifts [1, split], [split + 1, N] and [1, N], in one pass.

    Each length-b block of [1, N] gets an integer code: its length-(b-1)
    prefix's rank times n, plus its last symbol, so a code divided by n is
    its prefix's rank.  A length's ranks are its codes while the next
    length's code space stays within 4 N; past that, ``_dense_ranks``
    compacts them to their ranks among the K_b distinct codes, in
    ascending order, so the next space is K_b * n.  Spaces stay below
    max(4 N, N * n), and the codes are exact int64 at every length; one
    code array grows in place.  Blocks are counted only at ``depth``, and
    each shift once: ``nu`` counts the codes of [1, split] and ``eta``
    those of [split + 1, N].  Every length counts the same shifts, so a
    shorter block's count is the sum of its extensions' counts, and each
    shorter table is that marginal, in exact integers.  The two partial
    windows split [1, N], so ``rho`` is ``nu`` plus ``eta``.

    Assumes a counting rank's flag table, one entry per code of the space,
    fits: it is used only while the space is at most 4 N, and a larger
    space (a wide alphabet) is ranked by ``np.unique``, with the same
    result.
    """
    n = word.alphabet_size
    limit = _COUNT_TABLE_PER_SHIFT * n_steps
    arr = word.array[1 : n_steps + depth]
    # spaces[b - 1][r]: the code that length-b rank r stands for, ascending
    codes, size, spaces = np.zeros(n_steps, dtype=np.int64), 1, []
    for b in range(1, depth + 1):
        np.multiply(codes, n, out=codes)
        np.add(codes, arr[b - 1 : b - 1 + n_steps], out=codes)
        size *= n
        if size * n > limit:  # the next length's space would pass the limit
            codes, space = _dense_ranks(codes, size)
            size = len(space)
        else:
            space = np.arange(size)
        spaces.append(space)
    nu = [np.bincount(codes[:split], minlength=size)]
    eta = [np.bincount(codes[split:], minlength=size)]
    # the length-(b-1) marginals; float64 sums of counts <= N are exact
    for b in range(depth, 1, -1):
        up, size = spaces[b - 1] // n, len(spaces[b - 2])
        nu.append(np.bincount(up, weights=nu[-1], minlength=size).astype(np.int64))
        eta.append(np.bincount(up, weights=eta[-1], minlength=size).astype(np.int64))
    nu, eta = tuple(nu[::-1]), tuple(eta[::-1])
    rho = tuple(a + b for a, b in zip(nu, eta))
    symbols = spaces[0]  # a length-1 code is its symbol
    return (
        BlockTable(width=split, symbols=symbols, counts=nu),
        BlockTable(width=n_steps - split, symbols=symbols, counts=eta),
        BlockTable(width=n_steps, symbols=symbols, counts=rho),
    )


def _residual_tv(nu: BlockTable, eta: BlockTable, rho: BlockTable, theta: float, b: int) -> float:
    """Total variation between ``rho`` and the theta-mix of ``nu`` and ``eta`` on length-b blocks.

    Taken rank by rank where ``rho``'s count is nonzero: where it is 0, so
    are ``nu``'s and ``eta``'s.
    """
    at = np.flatnonzero(rho.counts[b - 1])
    nu_p, eta_p, rho_p = (t.counts[b - 1][at] / t.width for t in (nu, eta, rho))
    return 0.5 * math.fsum(np.abs(rho_p - (theta * nu_p + (1.0 - theta) * eta_p)).tolist())


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
            return {str(s): p for s, p in t.frequencies().items()}

        return {
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


def window_split(n_steps: int, theta: float) -> int:
    """floor(N theta), the last shift of the early window [1, floor(N theta)].

    Raises ValueError unless theta lies in (0, 1), as the rotation orbit
    requires, and each window holds a shift: 1 <= floor(N theta) < N.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    split = math.floor(n_steps * theta)
    if split < 1 or split >= n_steps:
        raise ValueError(f"N={n_steps} leaves an empty window for theta={theta}")
    return split


def empirical_measures_linear(
    omega: SymbolWord, n_steps: int, theta: float, block: int = 6
) -> EmpiricalTriple:
    """Window tables over shifts [1, floor(N theta)], the rest, and all of [1, N].

    The two partial windows split [1, N], so the block counts satisfy
    ``rho = nu + eta``; all three tables come from one pass over [1, N]
    that counts each shift once.  ``window_split`` states the window rule.
    Also reports the total-variation residual (on length-``block`` blocks)
    between the full-window table and the theta-weighted mix of the two
    partial windows; it vanishes as N grows, at the speed of the floor error.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if len(omega) < n_steps + block:
        raise WordTooShort(f"need {n_steps + block} symbols, have {len(omega)}")
    split = window_split(n_steps, theta)
    nu, eta, rho = _window_tables(omega, n_steps, split, block)
    return EmpiricalTriple(
        nu=nu,
        eta=eta,
        rho=rho,
        theta=theta,
        index=n_steps,
        window_nu=(1, split),
        window_eta=(split + 1, n_steps),
        residual_tv=_residual_tv(nu, eta, rho, theta, block),
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    # raised, not asserted, so that ``python -O`` keeps the checks
    if slack_packing < -SLACK_TOL:
        raise AssertionError(f"packing chain violated: slack {slack_packing}")
    if slack_hausdorff < -SLACK_TOL:
        raise AssertionError(f"entropy chain violated: slack {slack_hausdorff}")
    if entropy_gap <= 0.0 and slack_mixed < -SLACK_TOL:
        raise AssertionError(f"mixed chain violated: slack {slack_mixed}")
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
