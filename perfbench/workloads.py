"""Seeded inputs of the four benchmark workloads.

Every input comes from ``random.Random`` seeded with the workload name and
the benchmark seed, so one seed gives the same inputs on every machine.
This module imports only the standard library: the setup probe imports it
next to ``carpetlab`` and must not pay for anything else.

A run repeats one *round* of operations until its time is up.  Costs are
kept nearly independent of the seed so that runs at different seeds can be
compared: line parameters are jittered strata of a fixed grid, and the
seeded carpets have a fixed (m, n) and a fixed multiset of row counts, so
the seed moves digits and lines but not the carpet's dimensions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CARPET_DIR = REPO / "carpets"

@dataclass(frozen=True)
class CarpetSpec:
    """A carpet as written to a file: bases and the digit pairs."""

    name: str
    m: int
    n: int
    digits: tuple[tuple[int, int], ...]
    path: Path | None = None  # set for the files shipped in carpets/

    def text(self) -> str:
        return f"{self.m} {self.n}\n" + "".join(f"{x} {y}\n" for x, y in self.digits)


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI command, or one orbit of ``run_scenery``."""

    carpet: str
    items: int
    argv: tuple[str, ...] = ()  # CLI arguments, "{carpet}" stands for the file
    lines: tuple[tuple[float, float], ...] = ()  # sweeps: (u0, t) in row order
    depths: tuple[int, int] = (0, 0)
    u0: float = 0.0  # long-orbit start phase
    bases: tuple[int, int] = (0, 0)  # long-orbit (m, n)
    steps: int = 0  # scenery --steps, or long-orbit steps


@dataclass
class Plan:
    carpets: dict[str, CarpetSpec]
    ops: list[Op]  # one round
    samples: list[tuple[int, int]] = field(default_factory=list)  # (op, line)

    def carpet_path(self, name: str, workdir: Path) -> Path:
        spec = self.carpets[name]
        return spec.path if spec.path is not None else workdir / f"{name}.txt"

    def argv(self, op: Op, workdir: Path) -> list[str]:
        path = str(self.carpet_path(op.carpet, workdir))
        return [path if a == "{carpet}" else a for a in op.argv]

    def write_inputs(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        for name, spec in self.carpets.items():
            if spec.path is None:
                (workdir / f"{name}.txt").write_text(spec.text())


def _shipped(name: str) -> CarpetSpec:
    path = CARPET_DIR / f"{name}.txt"
    rows = [ln.split("#", 1)[0].split() for ln in path.read_text().splitlines()]
    rows = [r for r in rows if r]
    m, n = int(rows[0][0]), int(rows[0][1])
    digits = tuple(sorted((int(x), int(y)) for x, y in rows[1:]))
    return CarpetSpec(name, m, n, digits, path)


def _seeded_carpet(
    rng: random.Random, name: str, m: int, n: int, row_counts: tuple[int, ...]
) -> CarpetSpec:
    """Carpet whose occupied rows and columns are drawn by ``rng``.

    The row counts are a fixed multiset, so every dimension formula gives
    the same value at every seed.
    """
    rows = rng.sample(range(n), len(row_counts))
    counts = list(row_counts)
    rng.shuffle(counts)
    digits = []
    for y, a in zip(rows, counts):
        digits.extend((x, y) for x in rng.sample(range(m), a))
    return CarpetSpec(name, m, n, tuple(sorted(digits)))


def _strata(rng: random.Random, k: int, lo: float = 0.0, hi: float = 1.0) -> list[float]:
    """One uniform draw from each of k equal strata of [lo, hi), to 6 decimals.

    Truncated, not rounded, so a value never reaches ``hi``: u0 = 1 is
    outside the program's domain.
    """
    width = (hi - lo) / k
    return [math.floor((lo + (i + rng.random()) * width) * 1e6) / 1e6 for i in range(k)]


def _sweep_op(rng, carpet: str, n_u0: int, n_t: int, depths: tuple[int, int]) -> Op:
    u0s = _strata(rng, n_u0)
    ts = _strata(rng, n_t, -0.5, 0.5)
    lo, hi = depths
    # "--flag=value": argparse would take a leading "-" for an option
    argv = (
        "sweep", "--carpet", "{carpet}",
        "--u0s=" + ",".join(repr(u) for u in u0s),
        "--ts=" + ",".join(repr(t) for t in ts),
        f"--depths={lo}..{hi}",
    )  # fmt: skip
    lines = tuple((u, t) for u in u0s for t in ts)
    return Op(carpet=carpet, items=len(lines), argv=argv, lines=lines, depths=depths)


def _sweep_plan(rng, carpets, shapes, small) -> Plan:
    """One sweep per (carpet, u0 strata, t strata, lo, hi) entry of ``shapes``."""
    ops = []
    for name, n_u0, n_t, lo, hi in shapes:
        if small:
            n_u0, n_t, hi = 1, 2, min(hi, lo + 4)
        ops.append(_sweep_op(rng, name, n_u0, n_t, (lo, hi)))
    samples = [(i, rng.randrange(len(op.lines))) for i, op in enumerate(ops)]
    return Plan(carpets, ops, samples)


# (m, n, row counts, depth range): one digit missing from a full carpet,
# depths chosen so that a line keeps about two thousand cells and every
# sweep of 4x4 lines costs about the same
DENSE_SHAPES = (
    (5, 2, (5, 4), (4, 10)),
    (7, 2, (7, 6), (4, 10)),
    (4, 3, (4, 4, 3), (3, 6)),
    (5, 3, (5, 5, 4), (3, 6)),
)


def dense_sweep(seed: int, small: bool = False) -> Plan:
    """Wide frontiers: the slice tree walk does nearly all of the work.

    A seeded carpet's cost varies with its digits, so each shape is drawn
    twice and the round averages over eight carpets of similar cost.
    """
    rng = random.Random(f"dense-sweep:{seed}")
    carpets = {"full_3x2": _shipped("full_3x2")}
    shapes = [("full_3x2", 4, 4, 4, 9)]
    for copy in range(2):
        for m, n, row_counts, (lo, hi) in DENSE_SHAPES:
            name = f"dense_{m}x{n}_{copy}"
            carpets[name] = _seeded_carpet(rng, name, m, n, row_counts)
            shapes.append((name, 4, 4, lo, hi))
    return _sweep_plan(rng, carpets, shapes, small)


def sparse_sweep(seed: int, small: bool = False) -> Plan:
    """Narrow frontiers at the depth cap: per-line and per-depth costs weigh.

    How many cells a line keeps on a sparse seeded carpet swings several-fold
    with the digits, so those carpets get few lines, and three sweeps on the
    shipped example carpet carry most of the time and the median operation.
    """
    rng = random.Random(f"sparse-sweep:{seed}")
    carpets = {
        "example": _shipped("example"),
        "sparse_5x2": _seeded_carpet(rng, "sparse_5x2", 5, 2, (2, 1)),
        "sparse_7x3": _seeded_carpet(rng, "sparse_7x3", 7, 3, (2, 1, 1)),
    }
    shapes = [
        ("example", 4, 8, 4, 20),
        ("sparse_5x2", 4, 4, 4, 20),
        ("example", 4, 8, 4, 20),
        ("sparse_7x3", 4, 4, 4, 20),
        ("example", 4, 8, 4, 20),
    ]
    return _sweep_plan(rng, carpets, shapes, small)


def attractor_point(spec: CarpetSpec, d1, d2) -> tuple[float, float]:
    """Point of the carpet whose digit pairs alternate d1, d2, d1, ..."""
    (a1, b1), (a2, b2) = d1, d2
    return (a1 * spec.m + a2) / (spec.m**2 - 1), (b1 * spec.n + b2) / (spec.n**2 - 1)


def scenery_report(seed: int, small: bool = False) -> Plan:
    """Long magnification requests whose cover is exhausted within ~11 steps."""
    rng = random.Random(f"scenery-report:{seed}")
    carpets = {
        "full_3x2": _shipped("full_3x2"),
        "example": _shipped("example"),
        "dense_5x2": _seeded_carpet(rng, "dense_5x2", 5, 2, (5, 3)),
        "dense_7x2": _seeded_carpet(rng, "dense_7x2", 7, 2, (6, 5)),
    }
    slopes = _strata(rng, len(carpets), 0.25, 2.0)
    rng.shuffle(slopes)
    ops = []
    for (name, spec), slope in zip(carpets.items(), slopes):
        # the line passes through a carpet point, so no cover is empty
        x, y = attractor_point(spec, rng.choice(spec.digits), rng.choice(spec.digits))
        t = y - slope * x
        steps = 2000 if small else 100_000 - rng.randrange(2000)
        argv = (
            "scenery", "--carpet", "{carpet}",
            f"--slope={slope!r}", f"--t={t!r}",
            f"--steps={steps}", "--depths=4..10",
        )  # fmt: skip
        ops.append(Op(carpet=name, items=steps, argv=argv, depths=(4, 10), steps=steps))
    return Plan(carpets, ops)


# multiplicatively independent (m, n), so theta = log n / log m is
# irrational, in four strata of theta.  The horizontal word shifts on a
# share theta of the steps, so an orbit's cost grows with theta; one pair
# per stratum keeps a round's cost the same at every seed.
ORBIT_BASES = (
    ((7, 2), (5, 2)),  # theta 0.36, 0.43
    ((7, 3), (3, 2)),  # 0.56, 0.63
    ((5, 3), (7, 4)),  # 0.68, 0.71
    ((6, 5), (7, 6)),  # 0.90, 0.92
)


def long_orbit(seed: int, small: bool = False) -> Plan:
    """Thousands of magnification steps from the all-zero point mass."""
    rng = random.Random(f"long-orbit:{seed}")
    steps = 300 if small else 3000
    ops = [
        Op(carpet="", items=steps, u0=round(rng.random(), 6), bases=rng.choice(pair), steps=steps)
        for pair in ORBIT_BASES
    ]
    return Plan({}, ops)


PLANS = {
    "dense-sweep": dense_sweep,
    "sparse-sweep": sparse_sweep,
    "scenery-report": scenery_report,
    "long-orbit": long_orbit,
}


def theta(m: int, n: int) -> float:
    """The program's rotation number, as the same float expression."""
    return math.log(n) / math.log(m)
