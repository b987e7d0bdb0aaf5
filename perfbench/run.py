"""Benchmark of carpetlab's sweep, scenery and magnification paths.

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports carpetlab from
``src/``.  One process runs one workload: it measures set-up in fresh
interpreters, generates the seeded inputs, then repeats whole rounds of
operations until ``--seconds`` have passed, timing each operation from
outside and checking every output against the references in
``checks.py``.  The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the layer functions are wrapped in spans and the metrics are the per-layer
figures of ``spans.py``.  Problems and a summary go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import PLANS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PROBES = 7  # fresh interpreters per run; set-up time is their median
PROBE_TIMEOUT_S = 60
ACCEPTED_EXIT = {"sweep": {0}, "scenery": {0, 6}}  # 6: scenery support exhausted


class SetupError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(PLANS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--small", action="store_true", help="reduced inputs, for the self-test")
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int, small: bool, probes: int) -> float:
    """Median time from starting an interpreter to being ready to run."""
    times = []
    for i in range(probes):
        workdir = OUT / f"probe-{os.getpid()}-{i}"
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload]
        cmd += ["--seed", str(seed), "--workdir", str(workdir)] + (["--small"] if small else [])
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


class Runner:
    """Runs and checks the operations of one plan."""

    def __init__(self, plan, workdir: Path, tracer=None):
        import carpetlab.cli
        import carpetlab.scenery
        import checks

        self.cli = carpetlab.cli
        self.scenery = carpetlab.scenery
        self.checks = checks
        self.plan = plan
        self.workdir = workdir
        self.tracer = tracer
        self.refs = {name: checks.reference_dimensions(s) for name, s in plan.carpets.items()}
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.items = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_rows: dict[int, list[dict]] = {}  # sweep rows of each op, first round

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def _orbit(self, state, op):
        theta = self.checks.theta(*op.bases)
        return self.scenery.run_scenery(state, op.steps, theta, probe_level=2, stride=1)

    def _orbit_state(self, op):
        from carpetlab.measures import DiscreteMeasure
        from carpetlab.scenery import SceneryState
        from carpetlab.symbolic import SymbolWord

        m, n = op.bases
        zeros = (0,) * (op.steps + 2)
        return SceneryState(
            mu=DiscreteMeasure.point_mass(0.0, 0.0),
            x_word=SymbolWord(m, zeros),
            y_word=SymbolWord(n, zeros),
            u=op.u0,
            omega=SymbolWord(n, zeros),
        )

    def run_op(self, index: int):
        op = self.plan.ops[index]
        if op.argv:
            name, fn, args = "cli.main", self._main, (self.plan.argv(op, self.workdir),)
        else:
            name, fn, args = "scenery.run_scenery", self._orbit, (self._orbit_state(op), op)
        call = (lambda: self.tracer.op(name, fn, *args)) if self.tracer else (lambda: fn(*args))
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = call()
        except Exception:
            self.failed += 1
            print(f"operation {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        finally:
            self.walls.append(time.perf_counter() - wall)
            self.cpus.append(time.process_time() - cpu)
            self.items += op.items
        if op.argv and result[0] not in ACCEPTED_EXIT[op.argv[0]]:
            self.failed += 1
            print(f"operation {index} exited {result[0]}", file=sys.stderr)
            return
        self.problems += self.check(index, op, result)

    def check(self, index, op, result) -> list[str]:
        checks = self.checks
        if not op.argv:
            return checks.check_orbit(op, result)
        rc, stdout = result
        spec, ref = self.plan.carpets[op.carpet], self.refs[op.carpet]
        if op.argv[0] == "scenery":
            return checks.check_scenery(spec, op, rc, stdout, ref)
        problems = checks.check_sweep(op, rc, stdout, ref)
        if not problems and index not in self.first_rows:
            self.first_rows[index] = checks.parse_sweep(stdout)
        return problems

    def check_samples(self):
        """Re-run sampled sweep lines through ``slice``, outside the timed loop."""
        for index, line in self.plan.samples:
            op = self.plan.ops[index]
            rows = self.first_rows.get(index)
            if rows is None:
                continue  # the sweep itself already failed its checks
            u0, t = op.lines[line]
            lo, hi = op.depths
            out_dir = self.workdir / f"slice-{index}-{line}"
            argv = ["slice", "--carpet", str(self.plan.carpet_path(op.carpet, self.workdir))]
            argv += [f"--u0={u0!r}", f"--t={t!r}", f"--depths={lo}..{hi}"]
            argv += ["--format", "csv", "--out", str(out_dir)]
            rc, counts_csv = self._main(argv)
            if rc != 0:
                self.problems.append(f"slice {argv} exited {rc}")
                continue
            estimate = json.loads((out_dir / "slice_estimate.json").read_text())
            self.problems += self.checks.check_slice_sample(
                self.plan.carpets[op.carpet], op, rows[line], u0, t, counts_csv, estimate
            )


def run(args) -> dict:
    if not (SRC / "carpetlab" / "__init__.py").is_file():
        raise SetupError(f"no carpetlab sources under {SRC}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, args.small, PROBES)

    sys.path.insert(0, str(SRC))
    from spans import Tracer

    plan = PLANS[args.workload](args.seed, args.small)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    plan.write_inputs(workdir)
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(plan, workdir, tracer)
        rounds = 0
        start = time.perf_counter()
        with tracer.install() if tracer else contextlib.nullcontext():
            # whole rounds only; stop at the round end nearest to --seconds
            elapsed = 0.0
            while rounds == 0 or elapsed + 0.5 * elapsed / rounds < args.seconds:
                for index in range(len(plan.ops)):
                    runner.run_op(index)
                rounds += 1
                elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check_samples()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = runner.walls
    summary = (
        f"{args.workload} seed {args.seed}: {rounds} rounds, {len(walls)} ops, "
        f"median {statistics.median(walls):.4f} s, total {sum(walls):.2f} s"
    )
    print(summary + (" (traced)" if tracer else ""), file=sys.stderr)
    per_op = [statistics.median(walls[i :: len(plan.ops)]) for i in range(len(plan.ops))]
    print("median wall of each op: " + " ".join(f"{w:.4f}" for w in per_op), file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        metrics = tracer.layer_metrics()
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "items_per_s": (runner.items / sum(walls), "items/s"),
            "op_cpu_p50_s": (statistics.median(runner.cpus), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not runner.problems,
        "attempted": len(walls),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
