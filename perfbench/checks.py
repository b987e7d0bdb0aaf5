"""Independent references for every output the benchmark checks.

Nothing here calls ``carpetlab``: the formulas are evaluated in mpmath,
slice covers are enumerated in exact integer arithmetic, and rotation
phases are computed exactly from the same float theta and u0 the program
receives.  Each ``check_*`` function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math

import mpmath

from workloads import CarpetSpec, Op, theta

mpmath.mp.dps = 60

FORMULA_TOL = 1e-12
SLACK_TOL = 1e-9
PHASE_TOL = 1e-9
MAX_DISCREPANCY = 0.02
SWEEP_HEADER = "u0,t,slope,stderr,theorem_h,theorem_p,prior,marstrand_h,marstrand_p,error"
BOUND_COLUMNS = ("theorem_h", "theorem_p", "prior", "marstrand_h", "marstrand_p")
CHAIN_KEYS = {
    "block", "dim_bp", "dim_h", "entropy_gap", "exhausted_at", "gamma_proxy",
    "h_rate_curve", "h_rate_estimate", "hausdorff_form", "hausdorff_form_mixed",
    "packing_form", "rhs_entropy_rate", "schema", "slack_hausdorff",
    "slack_hausdorff_mixed", "slack_packing", "triple",
}  # fmt: skip
TRIPLE_KEYS = {
    "eta", "index", "kind", "nu", "residual_tv", "rho", "schema", "theta",
    "window_eta", "window_nu",
}  # fmt: skip
EXIT_EXHAUSTED = 6


# ---------------------------------------------------------------------------
# closed-form dimensions


def reference_dimensions(spec: CarpetSpec) -> dict[str, float]:
    """The paper's formulas in 60-digit arithmetic (carpet has m >= n).

    With r occupied rows and a_j digits in row j:
    dim_H = log sum a_j^theta / log n, dim_B = log r / log n + log(|D|/r) / log m,
    dim* = log r / log n + log max a_j / log m, and each slice bound is
    max{0, dim / dim* (dim* - 1)}.
    """
    counts: dict[int, int] = {}
    for _, y in spec.digits:
        counts[y] = counts.get(y, 0) + 1
    log_m, log_n = mpmath.log(spec.m), mpmath.log(spec.n)
    th = log_n / log_m
    r = len(counts)
    dim_h = mpmath.log(sum(mpmath.mpf(a) ** th for a in counts.values())) / log_n
    dim_b = mpmath.log(r) / log_n + mpmath.log(mpmath.mpf(len(spec.digits)) / r) / log_m
    star = mpmath.log(r) / log_n + mpmath.log(max(counts.values())) / log_m

    def bound(dim):
        return max(mpmath.mpf(0), dim / star * (star - 1)) if star > 0 else mpmath.mpf(0)

    return {
        "dim_h": float(dim_h),
        "dim_bp": float(dim_b),
        "theorem_h": float(bound(dim_h)),
        "theorem_p": float(bound(dim_b)),
        "prior": float(max(mpmath.mpf(0), star - 1)),
        "marstrand_h": float(max(mpmath.mpf(0), dim_h - 1)),
        "marstrand_p": float(max(mpmath.mpf(0), dim_b - 1)),
    }


# ---------------------------------------------------------------------------
# exact slice covers


def _dyadic(v: float) -> tuple[int, int]:
    num, den = float(v).as_integer_ratio()
    return num, den


def carry_counts(th: float, u0: float, depth: int) -> list[int]:
    """R(k) = #{i <= k : frac(u0 + i theta) >= 1 - theta}, exactly.

    Telescoping gives R(k) = floor(u0 + (k + 1) theta) for u0 in [0, 1);
    both floats are dyadic rationals, so integer arithmetic is exact.
    """
    tn, td = _dyadic(th)
    un, ud = _dyadic(u0)
    den = max(td, ud)
    t_int, u_int = tn * (den // td), un * (den // ud)
    return [(u_int + (k + 1) * t_int) // den for k in range(depth + 1)]


def exact_counts(spec: CarpetSpec, slope: float, intercept: float, u0: float, depth: int):
    """Number of carpet cells meeting the line at depths 0..depth.

    A depth-k cell has a vertical word of length k and a horizontal word
    of length R(k).  Digit pairs at shared positions must be carpet digits;
    a vertical digit without a horizontal partner must be an occupied row,
    a horizontal digit without a vertical partner an occupied column.  The
    line meets the closed cell rectangle iff the line's range over the
    cell's x-interval overlaps its y-interval, decided in integers.  Cells
    are nested, so a cell that misses the line is pruned with its subtree.
    """
    m, n, digits = spec.m, spec.n, set(spec.digits)
    rows = {y for _, y in digits}
    cols = {x for x, _ in digits}
    returns = carry_counts(theta(m, n), u0, depth)
    sn, sd = _dyadic(slope)
    tn, td = _dyadic(intercept)

    def meets(xw, yw) -> bool:
        big_m, big_n = m ** len(xw), n ** len(yw)
        i = j = 0
        for a in xw:
            i = i * m + a
        for b in yw:
            j = j * n + b
        den = sd * td * big_m  # line at x = i / M is l / den
        l0 = sn * td * i + tn * sd * big_m
        l1 = l0 + sn * td
        lo, hi = min(l0, l1), max(l0, l1)
        return lo * big_n <= (j + 1) * den and hi * big_n >= j * den

    level = [((a,), ()) for a in sorted(cols)] if returns[0] == 1 else [((), ())]
    level = [cell for cell in level if meets(*cell)]
    counts = [len(level)]
    for d in range(depth):
        carry = returns[d + 1] > returns[d]
        nxt = []
        for xw, yw in level:
            for b in range(n):
                if len(xw) > d:
                    if (xw[d], b) not in digits:
                        continue
                elif b not in rows:
                    continue
                yw2 = yw + (b,)
                if not carry:
                    cands = [(xw, yw2)]
                else:
                    p = len(xw)
                    allowed = (
                        [a for a in range(m) if (a, yw2[p]) in digits] if p <= d else sorted(cols)
                    )
                    cands = [(xw + (a,), yw2) for a in allowed]
                nxt.extend(c for c in cands if meets(*c))
        level = nxt
        counts.append(len(level))
    return counts


# ---------------------------------------------------------------------------
# sweep rows


def parse_sweep(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_sweep(op: Op, rc: int, stdout: str, ref: dict[str, float]) -> list[str]:
    if rc != 0:
        return [f"sweep exited {rc}"]
    if not stdout.startswith(SWEEP_HEADER + "\n"):
        return ["sweep header differs"]
    rows = parse_sweep(stdout)
    if len(rows) != len(op.lines):
        return [f"sweep printed {len(rows)} rows for {len(op.lines)} lines"]
    problems = []
    for (u0, t), row in zip(op.lines, rows):
        where = f"line u0={u0} t={t}"
        if row["error"]:
            problems.append(f"{where}: error column {row['error']!r}")
            continue
        # the program may nudge u0 off a carry boundary by 1e-12
        if abs(float(row["u0"]) - u0) > 1e-11 or float(row["t"]) != t:
            problems.append(f"{where}: row is for u0={row['u0']} t={row['t']}")
        slope, stderr = float(row["slope"]), float(row["stderr"])
        if not (math.isfinite(slope) and slope >= 0.0 and math.isfinite(stderr) and stderr >= 0.0):
            problems.append(f"{where}: slope {slope} stderr {stderr}")
        for col in BOUND_COLUMNS:
            if abs(float(row[col]) - ref[col]) > FORMULA_TOL:
                problems.append(f"{where}: {col} {row[col]} != {ref[col]!r}")
    return problems


def check_slice_sample(
    spec: CarpetSpec,
    op: Op,
    row: dict,
    u0: float,
    t: float,
    counts_csv: str,
    estimate: dict,
) -> list[str]:
    """One sweep line re-run through ``slice``, against the exact cover."""
    where = f"{spec.name} u0={u0} t={t}"
    lo, hi = op.depths
    lines = counts_csv.splitlines()
    if lines[:1] != ["k,N_k"]:
        return [f"{where}: slice counts header {lines[:1]}"]
    got = {int(k): int(v) for k, v in (ln.split(",") for ln in lines[1:])}
    if sorted(got) != list(range(lo, hi + 1)):
        return [f"{where}: slice reported depths {sorted(got)}"]
    # slope from the requested exponent; carries from the reported one
    exact = exact_counts(spec, float(spec.m) ** u0, t, float(row["u0"]), hi)
    problems = []
    for k in range(lo, hi + 1):
        if got[k] < exact[k]:
            problems.append(f"{where}: depth {k} cover {got[k]} < exact {exact[k]}")
        elif got[k] != exact[k]:
            problems.append(f"{where}: depth {k} cover {got[k]} != exact {exact[k]}")
    if estimate["slope"] != float(row["slope"]):
        problems.append(f"{where}: sweep slope {row['slope']} != slice slope {estimate['slope']}")
    if estimate["u0"] != float(row["u0"]):
        problems.append(f"{where}: slice u0 {estimate['u0']} != sweep u0 {row['u0']}")
    return problems


# ---------------------------------------------------------------------------
# scenery chain report


def residual_bound(n_steps: int, th: float) -> float:
    """2 (ceil(N theta) - N theta + 1) / N + 2 / N, with N theta exact."""
    tn, td = _dyadic(th)
    nt = n_steps * tn
    ceil_nt = -(-nt // td)
    return 2.0 * ((ceil_nt * td - nt) / td + 1.0) / n_steps + 2.0 / n_steps


def check_scenery(
    spec: CarpetSpec, op: Op, rc: int, stdout: str, ref: dict[str, float]
) -> list[str]:
    where = f"{spec.name} scenery"
    if rc not in (0, EXIT_EXHAUSTED):
        return [f"{where}: exit code {rc}"]
    try:
        rep = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: no chain report"]
    if set(rep) != CHAIN_KEYS or set(rep.get("triple", {})) != TRIPLE_KEYS:
        return [f"{where}: chain report keys {sorted(rep)}"]
    problems = []
    tri = rep["triple"]
    if (rc == EXIT_EXHAUSTED) != (rep["exhausted_at"] is not None):
        problems.append(f"{where}: exit {rc} with exhausted_at {rep['exhausted_at']}")
    th = theta(spec.m, spec.n)
    n_steps = op.steps
    tn, td = _dyadic(th)
    split = n_steps * tn // td
    if tri["index"] != n_steps or tri["kind"] != "linear" or tri["theta"] != th:
        problems.append(f"{where}: triple {tri['index']} {tri['kind']} theta {tri['theta']}")
    if tri["window_nu"] != [1, split] or tri["window_eta"] != [split + 1, n_steps]:
        problems.append(f"{where}: windows {tri['window_nu']} {tri['window_eta']}")
    if rep["block"] != 6 or len(rep["h_rate_curve"]) != 6:
        problems.append(f"{where}: block {rep['block']} curve {rep['h_rate_curve']}")
    for key in ("slack_packing", "slack_hausdorff"):
        if not rep[key] >= -SLACK_TOL:
            problems.append(f"{where}: {key} {rep[key]} < -{SLACK_TOL}")
    if rep["entropy_gap"] <= 0.0 and not rep["slack_hausdorff_mixed"] >= -SLACK_TOL:
        problems.append(f"{where}: slack_hausdorff_mixed {rep['slack_hausdorff_mixed']}")
    for key in ("dim_h", "dim_bp"):
        if abs(rep[key] - ref[key]) > FORMULA_TOL:
            problems.append(f"{where}: {key} {rep[key]} != {ref[key]!r}")
    rows = {str(y) for _, y in spec.digits}
    for key in ("nu", "eta", "rho"):
        vec = tri[key]
        if abs(sum(vec.values()) - 1.0) > FORMULA_TOL or not set(vec) <= rows:
            problems.append(f"{where}: {key} {vec} is not a distribution on the rows")
    bound = residual_bound(n_steps, th)
    if not 0.0 <= tri["residual_tv"] <= bound:
        problems.append(f"{where}: residual_tv {tri['residual_tv']} > {bound}")
    return problems


# ---------------------------------------------------------------------------
# long orbit


def exact_phases(th: float, u0: float, steps: int) -> list[float]:
    """frac(u0 + j theta) for j = 0..steps, exact then rounded once."""
    tn, td = _dyadic(th)
    un, ud = _dyadic(u0)
    den = max(td, ud)
    t_int, u_int = tn * (den // td), un * (den // ud)
    return [((u_int + j * t_int) % den) / den for j in range(steps + 1)]


def star_discrepancy(values) -> float:
    xs = sorted(values)
    n = len(xs)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs))


def check_orbit(op: Op, summary) -> list[str]:
    m, n = op.bases
    th = theta(m, n)
    where = f"orbit {m}x{n} u0={op.u0}"
    if summary.exhausted_at is not None:
        return [f"{where}: exhausted at step {summary.exhausted_at}"]
    phases = [float(p) for p in summary.phases]
    if len(phases) != op.steps + 1 or len(summary.records) != op.steps + 1:
        return [f"{where}: {len(phases)} phases, {len(summary.records)} records"]
    problems = []
    for j, (got, want) in enumerate(zip(phases, exact_phases(th, op.u0, op.steps))):
        d = abs(got - want)
        if min(d, 1.0 - d) > PHASE_TOL:
            problems.append(f"{where}: phase {j} is {got!r}, exact {want!r}")
            break
    carries = sum(1 for u in phases[: op.steps] if u >= 1.0 - th)
    expected = carry_counts(th, op.u0, op.steps - 1)[-1]
    if carries != expected:
        problems.append(f"{where}: {carries} carry phases, floor(u0 + steps theta) = {expected}")
    for rec in summary.records:
        if rec["probe_entropy"] != 0.0 or rec["cell_mass"] != 1.0:
            problems.append(f"{where}: record {rec}")
            break
    disc = star_discrepancy(phases)
    if disc > MAX_DISCREPANCY:
        problems.append(f"{where}: star discrepancy {disc}")
    return problems
