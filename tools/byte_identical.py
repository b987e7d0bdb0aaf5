"""Digests of the outputs that a behaviour-preserving change must keep.

    python3 tools/byte_identical.py [--root CHECKOUT] > digests.json

Prints one JSON object that maps each item of ROADMAP.md's byte-identical
set to the sha256 of its output:

- each README CLI example (``proptest --seed 0`` among them);
- three deep commands on ``full_3x2`` at depths 4..20: ``scenery``,
  whose cover holds about 2.6M cells (a few seconds and about 330 MB),
  and ``slice`` and ``sweep --grid 4x4``, whose walks are wide but keep
  no cells (a few seconds together);
- each ``dense-sweep``, ``sparse-sweep`` and ``scenery-report`` command of
  the benchmark plans at seeds 1 and 2;
- ``run_scenery``'s records, phases and ``exhausted_at`` on each
  ``long-orbit`` plan at seeds 1-3, started as the benchmark starts them;
- ``one-atom``: 64 seeded point masses away from the origin, -0.0 and
  cell-edge coordinates among them, whose digit words are read off each
  coordinate's exact value.  Each runs ``run_scenery`` to exhaustion or
  200 steps, and the same orbit is walked by ``magnify_step`` to take the
  rescaled point's bytes after every step.  The ``long-orbit`` point stays
  at the origin, so only this item reaches the zoom's arithmetic on a
  point mass.

A command's digest covers its exit code, stdout, stderr and every file it
writes under ``--out``.  Commands run as ``python3 -m carpetlab`` in a
temporary directory that holds their carpet files, so no path of the
checkout reaches the output.  Everything runs from ``--root`` (default:
the checkout holding this script): its ``src/`` and its ``perfbench/``,
which is imported read-only.  Run the script on two checkouts and diff the
two objects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterator

README_EXAMPLES = (
    "analyze  --carpet carpets/example.txt",
    "slice    --carpet carpets/example.txt --u0 0.4 --t 0.2 --depths 4..12",
    "sweep    --carpet carpets/example.txt --grid 10x10 --depths 4..12",
    "scenery  --carpet carpets/full_3x2.txt --slope 1.0 --steps 1000 --depths 4..10",
    "proptest --seed 0",
)
DEEP_COMMANDS = (
    "scenery --carpet carpets/full_3x2.txt --slope 1.0 --steps 1000 --depths 4..20",
    "slice --carpet carpets/full_3x2.txt --slope 1.0 --depths 4..20",
    "sweep --carpet carpets/full_3x2.txt --grid 4x4 --depths 4..20",
)
CLI_WORKLOADS = ("dense-sweep", "sparse-sweep", "scenery-report")
CLI_SEEDS = (1, 2)
ORBIT_SEEDS = (1, 2, 3)
ONE_ATOM_STATES = 64
ONE_ATOM_STEPS = 200


def capture(root: Path, cwd: Path, argv: list[str]) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """One command's exit code, stdout, stderr and ``--out`` files (by
    relative path, in sorted order), run from ``root``'s ``src/`` in ``cwd``."""
    out = cwd / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "carpetlab", *argv, "--out", "out"]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
    files = {}
    for path in sorted(out.rglob("*")) if out.exists() else ():
        files[str(path.relative_to(out))] = path.read_bytes()
    return proc.returncode, proc.stdout, proc.stderr, files


def run_command(root: Path, cwd: Path, argv: list[str]) -> str:
    """sha256 of one command's exit code, stdout, stderr and ``--out`` files."""
    code, stdout, stderr, files = capture(root, cwd, argv)
    digest = hashlib.sha256(f"{code}\n".encode())
    for part in (stdout, stderr):
        digest.update(f"{len(part)}\n".encode() + part)
    for name, data in files.items():
        digest.update(f"{name} {len(data)}\n".encode() + data)
    return digest.hexdigest()


def commands(cwd: Path) -> Iterator[tuple[str, list[str]]]:
    """The set's CLI commands as (item, argv), in the order they run.  The
    carpet files a command reads are in ``cwd`` when it is yielded: a plan's
    seeded carpets are written just before its commands, since the plans of
    two seeds reuse file names.  ``workloads`` is imported from the checkout
    on ``sys.path``."""
    import workloads

    shutil.copytree(workloads.CARPET_DIR, cwd / "carpets")
    for example in README_EXAMPLES:
        yield f"readme: {' '.join(example.split())}", example.split()
    for command in DEEP_COMMANDS:
        yield f"deep: {command}", command.split()
    for name in CLI_WORKLOADS:
        for seed in CLI_SEEDS:
            plan = workloads.PLANS[name](seed)
            for key, spec in plan.carpets.items():
                target = cwd / f"{key}.txt"
                if spec.path is not None:
                    shutil.copyfile(spec.path, target)
                else:
                    target.write_text(spec.text())
            for i, op in enumerate(plan.ops):
                args = [f"{op.carpet}.txt" if a == "{carpet}" else a for a in op.argv]
                yield f"{name}:{seed}:{i}", args


def exact_digits(x: float, base: int, count: int) -> list[int]:
    """The first ``count`` base-``base`` digits of the double ``x`` in [0, 1)."""
    frac, digits = Fraction(x), []
    for _ in range(count):
        d, frac = divmod(frac * base, 1)
        digits.append(int(d))
    return digits


def one_atom_coordinate(rng: random.Random, base: int) -> float:
    """-0.0, a uniform double, or the double nearest a cell edge k / base**p
    or one beside it; never 1.0, which has no digit word."""
    kind = rng.randrange(4)
    if kind == 0:
        return -0.0
    if kind == 1:
        return rng.random()
    scale = base ** rng.randrange(1, 40)
    edge = float(Fraction(rng.randrange(1, scale), scale))
    if kind == 3:
        edge = math.nextafter(edge, rng.choice((0.0, 1.0)))
    return min(edge, math.nextafter(1.0, 0.0))


def one_atom_digest() -> str:
    """sha256 of point-mass orbits from ``ONE_ATOM_STATES`` seeded starts,
    on the ``long-orbit`` base pairs."""
    import workloads
    from carpetlab.errors import ZeroMassCell
    from carpetlab.measures import DiscreteMeasure
    from carpetlab.scenery import SceneryState, magnify_step, run_scenery
    from carpetlab.symbolic import SymbolWord

    bases = [pair for pairs in workloads.ORBIT_BASES for pair in pairs]
    digest = hashlib.sha256()
    for i in range(ONE_ATOM_STATES):
        rng = random.Random(f"one-atom:{i}")
        m, n = bases[i % len(bases)]
        x, y = one_atom_coordinate(rng, m), one_atom_coordinate(rng, n)
        while x == y == 0.0:  # away from the origin, where long-orbit starts
            y = one_atom_coordinate(rng, n)
        length = ONE_ATOM_STEPS + 2
        y_word = SymbolWord(n, exact_digits(y, n, length))
        state = SceneryState(
            mu=DiscreteMeasure.point_mass(x, y),
            x_word=SymbolWord(m, exact_digits(x, m, length)),
            y_word=y_word,
            u=round(rng.random(), 6),
            omega=y_word,
        )
        theta = workloads.theta(m, n)
        summary = run_scenery(state, ONE_ATOM_STEPS, theta, probe_level=2)
        digest.update(json.dumps([summary.records, summary.exhausted_at]).encode())
        digest.update(summary.phases.tobytes())
        for _ in range(ONE_ATOM_STEPS):
            try:
                state = magnify_step(state, theta)
            except ZeroMassCell:
                break
            digest.update(state.mu.points.tobytes() + state.mu.weights.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    root = p.parse_args(argv).root.resolve()
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run
    import workloads
    from carpetlab.scenery import run_scenery

    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for item, argv in commands(cwd):
            digests[item] = run_command(root, cwd, argv)
    for seed in ORBIT_SEEDS:
        digest = hashlib.sha256()
        for op in workloads.PLANS["long-orbit"](seed).ops:
            state = run.Runner._orbit_state(None, op)  # uses no Runner state
            summary = run_scenery(state, op.steps, workloads.theta(*op.bases), probe_level=2)
            digest.update(json.dumps([summary.records, summary.exhausted_at]).encode())
            digest.update(summary.phases.tobytes())
        digests[f"long-orbit:{seed}"] = digest.hexdigest()
    digests["one-atom"] = one_atom_digest()
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
