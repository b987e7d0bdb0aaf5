"""Digests of the outputs that a behaviour-preserving change must keep.

    python3 tools/byte_identical.py [--root CHECKOUT] > digests.json

Prints one JSON object that maps each item of ROADMAP.md's byte-identical
set to the sha256 of its output:

- each README CLI example (``proptest --seed 0`` among them);
- the deep ``scenery`` command on ``full_3x2`` at depths 4..20, whose
  cover holds about 2.6M cells (a few seconds and about 500 MB);
- each ``dense-sweep``, ``sparse-sweep`` and ``scenery-report`` command of
  the benchmark plans at seeds 1 and 2;
- ``run_scenery``'s records, phases and ``exhausted_at`` on each
  ``long-orbit`` plan at seeds 1-3, started as the benchmark starts them.

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
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README_EXAMPLES = (
    "analyze  --carpet carpets/example.txt",
    "slice    --carpet carpets/example.txt --u0 0.4 --t 0.2 --depths 4..12",
    "sweep    --carpet carpets/example.txt --grid 10x10 --depths 4..12",
    "scenery  --carpet carpets/full_3x2.txt --slope 1.0 --steps 1000 --depths 4..10",
    "proptest --seed 0",
)
DEEP_COMMANDS = ("scenery --carpet carpets/full_3x2.txt --slope 1.0 --steps 1000 --depths 4..20",)
CLI_WORKLOADS = ("dense-sweep", "sparse-sweep", "scenery-report")
CLI_SEEDS = (1, 2)
ORBIT_SEEDS = (1, 2, 3)


def run_command(root: Path, cwd: Path, argv: list[str]) -> str:
    """sha256 of one command's exit code, stdout, stderr and ``--out`` files."""
    out = cwd / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "carpetlab", *argv, "--out", "out"]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
    digest = hashlib.sha256(f"{proc.returncode}\n".encode())
    for part in (proc.stdout, proc.stderr):
        digest.update(f"{len(part)}\n".encode() + part)
    for path in sorted(out.rglob("*")) if out.exists() else ():
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out)} {len(data)}\n".encode() + data)
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
        shutil.copytree(root / "carpets", cwd / "carpets")
        for example in README_EXAMPLES:
            digests[f"readme: {' '.join(example.split())}"] = run_command(root, cwd, example.split())
        for command in DEEP_COMMANDS:
            digests[f"deep: {command}"] = run_command(root, cwd, command.split())
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
                    digests[f"{name}:{seed}:{i}"] = run_command(root, cwd, args)
    for seed in ORBIT_SEEDS:
        digest = hashlib.sha256()
        for op in workloads.PLANS["long-orbit"](seed).ops:
            state = run.Runner._orbit_state(None, op)  # uses no Runner state
            summary = run_scenery(state, op.steps, workloads.theta(*op.bases), probe_level=2)
            digest.update(json.dumps([summary.records, summary.exhausted_at]).encode())
            digest.update(summary.phases.tobytes())
        digests[f"long-orbit:{seed}"] = digest.hexdigest()
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
