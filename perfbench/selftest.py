"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

1. Every workload, at its small size, runs to the end at two seeds with
   no failed operation and every check passing; the traced run reports a
   nonzero figure for every layer that the workload exercises.
2. Every check rejects a corrupted copy of a real output, so each one is
   shown able to fail.

Exits 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import OUT, Runner  # noqa: E402

SEEDS = (1, 2)
# layers that run on each workload: their traced figures must be nonzero
LAYERS_RUN = {
    "dense-sweep": ("cli.", "carpet.", "symbolic.orbit", "slicer."),
    "sparse-sweep": ("cli.", "carpet.", "symbolic.orbit", "slicer."),
    "scenery-report": (
        "cli.", "symbolic.", "slicer.slice_cover", "slicer.kept", "measures.", "scenery.",
    ),
    "long-orbit": (
        "symbolic.shift", "measures.entropy", "measures.condition_rescale",
        "scenery.magnify_step", "scenery.run_scenery",
    ),
}  # fmt: skip


def small_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def test_small_runs(spec: dict) -> list[str]:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in spec_workloads(spec):
        for seed in SEEDS:
            res = small_run(w, seed, 0)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} seed {seed}: {res}")
            if set(res["metrics"]) != e2e or any(v["value"] <= 0 for v in res["metrics"].values()):
                problems.append(f"{w} seed {seed}: end-to-end metrics {res['metrics']}")
        res = small_run(w, SEEDS[0], 1)
        if set(res["metrics"]) != layer or not res["correct"] or res["failed"]:
            problems.append(f"{w} traced: {res}")
        for name, v in res["metrics"].items():
            if name.startswith(LAYERS_RUN[w]) and v["value"] <= 0:
                problems.append(f"{w} traced: {name} is {v['value']} though its layer runs")
    return problems


def spec_workloads(spec: dict) -> list[str]:
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.PLANS), names
    return names


# ---------------------------------------------------------------------------
# corrupted outputs


def expect(problems: list[str], fragment: str, what: str) -> list[str]:
    if any(fragment in p for p in problems):
        return []
    return [f"{what}: no problem mentioning {fragment!r}, got {problems}"]


def replace_field(csv_text: str, row: int, column: str, value: str) -> str:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_checks(runner: Runner) -> list[str]:
    plan, op = runner.plan, runner.plan.ops[0]
    spec, ref = plan.carpets[op.carpet], runner.refs[op.carpet]
    rc, out = runner._main(plan.argv(op, runner.workdir))
    problems = checks.check_sweep(op, rc, out, ref)
    if problems:
        return [f"real sweep output rejected: {problems}"]
    row = checks.parse_sweep(out)[0]
    bad = []
    corrupt = replace_field(out, 0, "error", "ValueError")
    bad += expect(checks.check_sweep(op, 0, corrupt, ref), "error column", "error column")
    off = repr(float(row["theorem_h"]) + 1e-9)
    corrupt = replace_field(out, 0, "theorem_h", off)
    bad += expect(checks.check_sweep(op, 0, corrupt, ref), "theorem_h", "bound off by 1e-9")
    corrupt = replace_field(out, 0, "slope", "-0.5")
    bad += expect(checks.check_sweep(op, 0, corrupt, ref), "slope", "negative slope")
    bad += expect(checks.check_sweep(op, 0, out.rsplit("\n", 2)[0] + "\n", ref), "rows", "lost row")
    bad += expect(checks.check_sweep(op, 5, out, ref), "exited 5", "exit code")

    # one sampled line through slice, against the exact cover
    u0, t = op.lines[0]
    lo, hi = op.depths
    out_dir = runner.workdir / "slice"
    argv = ["slice", "--carpet", str(plan.carpet_path(op.carpet, runner.workdir))]
    argv += [f"--u0={u0!r}", f"--t={t!r}", f"--depths={lo}..{hi}", "--format", "csv"]
    rc, counts = runner._main(argv + ["--out", str(out_dir)])
    estimate = json.loads((out_dir / "slice_estimate.json").read_text())

    def sample(counts_csv, est):
        return checks.check_slice_sample(spec, op, row, u0, t, counts_csv, est)

    problems = sample(counts, estimate)
    if rc != 0 or problems:
        return bad + [f"real slice output rejected: rc {rc} {problems}"]
    k, nk = counts.splitlines()[-1].split(",")
    below = counts.replace(f"\n{k},{nk}\n", f"\n{k},{int(nk) - 1}\n")
    bad += expect(sample(below, estimate), "< exact", "count one below exact")
    above = counts.replace(f"\n{k},{nk}\n", f"\n{k},{int(nk) + 1}\n")
    bad += expect(sample(above, estimate), "!= exact", "count one above exact")
    tilted = dict(estimate, slope=estimate["slope"] + 0.05)
    bad += expect(sample(counts, tilted), "slice slope", "slope off by 0.05")
    return bad


def test_scenery_checks(runner: Runner) -> list[str]:
    plan, op = runner.plan, runner.plan.ops[0]
    spec, ref = plan.carpets[op.carpet], runner.refs[op.carpet]
    rc, out = runner._main(plan.argv(op, runner.workdir))
    problems = checks.check_scenery(spec, op, rc, out, ref)
    if problems:
        return [f"real scenery output rejected: rc {rc} {problems}"]
    report = json.loads(out.splitlines()[-1])

    def check(rc_, **changes):
        rep = json.loads(json.dumps(report))
        triple = changes.pop("triple", {})
        rep.update(changes)
        rep["triple"].update(triple)
        return checks.check_scenery(spec, op, rc_, json.dumps(rep) + "\n", ref)

    nu = dict(report["triple"]["nu"])
    first = next(iter(nu))
    nu[first] += 1e-6
    bad = []
    bad += expect(check(rc, slack_packing=-1e-6), "slack_packing", "negative slack")
    bad += expect(check(rc, slack_hausdorff=-1e-6), "slack_hausdorff", "negative slack")
    bad += expect(
        check(rc, entropy_gap=-0.1, slack_hausdorff_mixed=-1e-6), "mixed", "negative mixed slack"
    )
    bad += expect(check(rc, dim_h=report["dim_h"] + 1e-9), "dim_h", "dim_h off by 1e-9")
    bad += expect(check(rc, dim_bp=report["dim_bp"] - 1e-9), "dim_bp", "dim_bp off by 1e-9")
    bad += expect(check(rc, triple={"nu": nu}), "nu", "nu not summing to 1")
    bad += expect(check(rc, triple={"residual_tv": 0.5}), "residual_tv", "residual too large")
    bad += expect(check(6, exhausted_at=None), "exhausted_at", "exit 6, not exhausted")
    bad += expect(check(3), "exit code 3", "exit code")
    truncated = json.loads(out.splitlines()[-1])
    del truncated["slack_packing"]
    bad += expect(
        checks.check_scenery(spec, op, rc, json.dumps(truncated), ref), "keys", "missing key"
    )
    return bad


def test_orbit_checks(runner: Runner) -> list[str]:
    op = runner.plan.ops[0]
    summary = runner._orbit(runner._orbit_state(op), op)
    problems = checks.check_orbit(op, summary)
    if problems:
        return [f"real orbit rejected: {problems}"]
    theta = checks.theta(*op.bases)

    def check(**changes):
        return checks.check_orbit(op, dataclasses.replace(summary, **changes))

    moved = summary.phases.copy()
    moved[5] += 1e-6
    crossed = summary.phases.copy()
    j = next(i for i in range(op.steps) if crossed[i] < 1.0 - theta)
    crossed[j] = 1.0 - theta / 2
    records = [dict(r) for r in summary.records]
    records[3]["probe_entropy"] = 0.1
    bad = []
    bad += expect(check(phases=moved), "phase 5", "phase moved by 1e-6")
    bad += expect(check(phases=crossed), "carry phases", "extra carry")
    bad += expect(check(records=records), "record", "nonzero probe entropy")
    bad += expect(check(phases=summary.phases * 0.0 + 0.5), "discrepancy", "clustered phases")
    bad += expect(check(exhausted_at=7), "exhausted", "exhausted orbit")
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {"small runs": test_small_runs(spec)}
    for workload, test in (
        ("dense-sweep", test_sweep_checks),
        ("scenery-report", test_scenery_checks),
        ("long-orbit", test_orbit_checks),
    ):
        plan = workloads.PLANS[workload](SEEDS[0], small=True)
        workdir = OUT / f"selftest-{workload}"
        plan.write_inputs(workdir)
        try:
            results[f"{workload} checks"] = test(Runner(plan, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for name, problems in results.items():
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"  {p}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
