"""Command-line surface: analyze, slice, sweep, scenery, proptest.

Exit codes: 0 ok, 1 proptest failure, 2 carpet parse error, 3 carpet
validation error, 4 axis-parallel line, 5 cell budget exceeded,
6 measure support exhausted during a scenery run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import proptest
from .carpet import Carpet, dimension_report
from .errors import (
    AxisParallelLine,
    BadExponent,
    CarpetFileError,
    CellBudgetExceeded,
    DigitOutOfRange,
    DomainError,
    EmptyDigits,
    EmptySlice,
    InsufficientData,
)
from .io import atomic_write, load_carpet
from .measures import DiscreteMeasure, GridPartition, finite_scale_dimension
from .scenery import (
    MAX_STEPS,
    bound_chain_report,
    empirical_measures_linear,
    run_scenery,
    state_from_cell,
)
from .slicer import (
    DEFAULT_BUDGET,
    Line,
    carpet_bounds,
    estimate_slice_dimension,
    slice_cover,
)
from .symbolic import RotationOrbit

SCHEMA = "carpet-lab/1"
BOUNDARY_NUDGE = 1e-12  # applied to u0 when float64 cannot certify a carry

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_AXIS_PARALLEL = 4
EXIT_BUDGET = 5
EXIT_EXHAUSTED = 6

VALIDATION_ERRORS = (EmptyDigits, DigitOutOfRange, BadExponent, DomainError)


def _parse_depths(text: str) -> tuple[int, int]:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"depths must look like 4..12, got {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError("depth range is empty")
    if lo < 0:
        raise argparse.ArgumentTypeError("depths must be >= 0")
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nu, nt = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 10x10, got {text!r}") from exc
    if nu < 1 or nt < 1:
        raise argparse.ArgumentTypeError("grid sides must be >= 1")
    return nu, nt


def _parse_drop_head(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"drop-head must be an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("drop-head must be >= 0")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--carpet", required=True, help="carpet definition file")
    p.add_argument("--out", default=None, help="directory for report files")


def _add_line_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--u0", type=float, help="slope exponent: slope = sign * m**u0")
    g.add_argument("--slope", type=float, help="literal slope value")
    p.add_argument("--t", type=float, default=0.0, help="y-intercept")
    p.add_argument("--sign", type=int, choices=[1, -1], default=1)


def _build_line(c: Carpet, u0, slope, t: float, sign: int, horizon: int) -> Line:
    if slope is not None:
        line = Line(slope=float(slope), intercept=t)
    else:
        line = Line.from_exponent(c.m, float(u0), intercept=t, sign=sign)
    # an exponent whose carries float64 cannot certify up to the horizon sits
    # on (or within rounding of) a carry boundary; nudge it by a documented
    # epsilon
    exponent = line.exponent(c.m)
    if RotationOrbit(c.theta, exponent).near_boundary(horizon):
        exponent = (exponent + BOUNDARY_NUDGE) % 1.0
        line = Line(slope=line.slope, intercept=line.intercept, u0=exponent)
    return line


def _emit(out_dir: str | None, name: str, content: str):
    if out_dir:
        atomic_write(Path(out_dir) / name, content)


def _report_json(payload: dict) -> str:
    out = {"schema": SCHEMA}
    out.update(payload)
    return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    c = load_carpet(args.carpet)
    rep = dimension_report(c)
    if args.format == "csv":
        fields = list(rep.to_dict().items())
        text = ",".join(k for k, _ in fields) + "\n" + ",".join(repr(v) for _, v in fields) + "\n"
        print(text, end="")
        _emit(args.out, "report.csv", text)
    else:
        text = rep.to_json()
        print(text)
        _emit(args.out, "report.json", text + "\n")
    return 0


def _estimate_payload(c: Carpet, counts: list[tuple[int, int]], drop_head: int) -> dict:
    """Estimate dict; covers with too little data are reported, not raised.

    An all-empty cover is a valid measurement (slope 0); a nonempty cover
    with fewer than three usable depths is flagged ``insufficient``.
    """
    try:
        return estimate_slice_dimension(c, counts, drop_head=drop_head).to_dict()
    except InsufficientData:
        return {
            "schema": SCHEMA,
            "slope": 0.0,
            "stderr": 0.0,
            "depths": [],
            "bounds": carpet_bounds(c),
            "empty": not any(nk > 0 for _, nk in counts),
            "insufficient": True,
        }


def cmd_slice(args) -> int:
    c = load_carpet(args.carpet)
    lo, hi = args.depths
    line = _build_line(c, args.u0, args.slope, args.t, args.sign, hi + 1)
    cover = slice_cover(c, line, hi, inflation=args.inflation, budget=args.budget)
    counts = [(k, cover.counts[k]) for k in range(lo, hi + 1)]
    counts_csv = "k,N_k\n" + "".join(f"{k},{nk}\n" for k, nk in counts)
    payload = _estimate_payload(c, counts, args.drop_head)
    payload["u0"] = line.exponent(c.m)
    payload["t"] = line.intercept
    text = json.dumps(payload, sort_keys=True)
    print(counts_csv if args.format == "csv" else text, end="" if args.format == "csv" else "\n")
    _emit(args.out, "slice_counts.csv", counts_csv)
    _emit(args.out, "slice_estimate.json", text + "\n")
    return 0


def _sweep_lines(args) -> list[tuple[str, float, float]]:
    """Line specs as (kind, value, t) with kind 'u0' or 'slope'."""
    ts = [float(v) for v in args.ts.split(",")] if args.ts else [0.0]
    if args.grid:
        nu, nt = args.grid
        u0s = [(i + 0.5) / nu for i in range(nu)]
        ts = [(j + 0.5) / nt for j in range(nt)]
        return [("u0", u0, t) for u0 in u0s for t in ts]
    if args.slopes:
        slopes = [float(v) for v in args.slopes.split(",")]
        return [("slope", s, t) for s in slopes for t in ts]
    u0s = [float(v) for v in args.u0s.split(",")] if args.u0s else [0.5]
    return [("u0", u0, t) for u0 in u0s for t in ts]


def cmd_sweep(args) -> int:
    c = load_carpet(args.carpet)
    lo, hi = args.depths
    params = _sweep_lines(args)
    bounds = carpet_bounds(c)
    header = "u0,t,slope,stderr,theorem_h,theorem_p,prior,marstrand_h,marstrand_p,error\n"

    def one(param: tuple[str, float, float]) -> str:
        kind, value, t = param
        base = (
            f"{bounds['theorem_h']!r},{bounds['theorem_p']!r},{bounds['prior']!r},"
            f"{bounds['marstrand_h']!r},{bounds['marstrand_p']!r}"
        )
        u0_str = repr(value) if kind == "u0" else ""
        try:
            if kind == "u0":
                line = _build_line(c, value, None, t, args.sign, hi + 1)
            else:
                line = _build_line(c, None, value, t, args.sign, hi + 1)
            u0_str = repr(line.exponent(c.m))
            cover = slice_cover(c, line, hi, inflation=args.inflation, budget=args.budget)
            counts = [(k, cover.counts[k]) for k in range(lo, hi + 1)]
            est = _estimate_payload(c, counts, args.drop_head)
            return f"{u0_str},{t!r},{est['slope']!r},{est['stderr']!r},{base},\n"
        except Exception as exc:
            return f"{u0_str},{t!r},,,{base},{type(exc).__name__}\n"

    text = header + "".join([one(p) for p in params])
    print(text, end="")
    _emit(args.out, "sweep.csv", text)
    return 0


def cmd_scenery(args) -> int:
    if not 1 <= args.steps <= MAX_STEPS:
        raise ValueError(f"steps must be in 1..{MAX_STEPS}, got {args.steps}")
    if args.block < 1:
        raise ValueError(f"block must be >= 1, got {args.block}")
    if args.stride < 1:
        raise ValueError(f"stride must be >= 1, got {args.stride}")
    c = load_carpet(args.carpet)
    GridPartition.square(c.n, args.probe_level)  # rejects a negative or int64-overflowing level
    lo, hi = args.depths
    line = _build_line(c, args.u0, args.slope, args.t, args.sign, args.steps + 1)
    cover = slice_cover(c, line, hi, inflation=args.inflation, budget=args.budget)
    if cover.count == 0:
        text = _report_json({"empty": True, "u0": line.exponent(c.m), "t": line.intercept})
        print(text)
        _emit(args.out, "chain.json", text + "\n")
        _emit(args.out, "orbit.jsonl", "")
        return 0
    mu0 = DiscreteMeasure.uniform_on(cover.centers)
    word_len = args.steps + args.block + 2
    state = state_from_cell(c, cover.cell(0), mu0, line.exponent(c.m), word_len)
    summary = run_scenery(
        state, args.steps, c.theta, probe_level=args.probe_level, stride=args.stride
    )
    triple = empirical_measures_linear(state.omega, args.steps, c.theta, block=args.block)
    gamma = finite_scale_dimension(mu0, c.n, range(2, max(3, min(hi, 8)) + 1))
    chain = bound_chain_report(c, triple, block=args.block, gamma_proxy=gamma)
    chain_payload = chain.to_dict()
    chain_payload["triple"] = triple.to_dict()
    chain_payload["exhausted_at"] = summary.exhausted_at
    chain_text = json.dumps(chain_payload, sort_keys=True)
    print(chain_text)
    _emit(args.out, "orbit.jsonl", summary.to_jsonl())
    _emit(args.out, "chain.json", chain_text + "\n")
    if summary.exhausted_at is not None:
        print(f"measure support exhausted at step {summary.exhausted_at}", file=sys.stderr)
        return EXIT_EXHAUSTED
    return 0


def cmd_proptest(args) -> int:
    results = proptest.run_all(seed=args.seed)
    lines = []
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        kind = "" if r.hard else " [diagnostic]"
        detail = f" -- {r.detail}" if r.detail else ""
        lines.append(f"{status} {r.name} (cases={r.cases}){kind}{detail}")
        if not r.passed and r.hard:
            failed = True
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        atomic_write(Path(args.out) / "proptest.txt", text)
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carpetlab",
        description="Dimension formulas, slice covers, and magnification dynamics "
        "for self-affine grid carpets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form dimension report for a carpet")
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("slice", help="multiscale cover counts and slope for one line")
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_line_args(p)
    p.add_argument("--depths", type=_parse_depths, default=(4, 12), help="A..B inclusive")
    p.add_argument("--inflation", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--drop-head", dest="drop_head", type=_parse_drop_head, default=3)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("sweep", help="slice estimates over a grid of lines")
    _add_common(p)
    p.add_argument(
        "--grid", type=_parse_grid, default=None, help="UxT grid of (u0, t) values, e.g. 10x10"
    )
    p.add_argument("--u0s", default=None, help="comma-separated slope exponents")
    p.add_argument("--slopes", default=None, help="comma-separated literal slopes")
    p.add_argument("--ts", default=None, help="comma-separated intercepts")
    p.add_argument("--sign", type=int, choices=[1, -1], default=1)
    p.add_argument("--depths", type=_parse_depths, default=(4, 12))
    p.add_argument("--inflation", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--drop-head", dest="drop_head", type=_parse_drop_head, default=3)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("scenery", help="magnification orbit and entropy bound chains")
    _add_common(p)
    _add_line_args(p)
    p.add_argument(
        "--depths",
        type=_parse_depths,
        default=(4, 10),
        help="A..B: the cover is built at depth B; A is accepted but unused",
    )
    p.add_argument("--inflation", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--block", type=int, default=6)
    p.add_argument("--probe-level", dest="probe_level", type=int, default=2)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(fn=cmd_scenery)

    p = sub.add_parser("proptest", help="run the seeded invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_proptest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CarpetFileError as exc:
        print(f"carpet file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VALIDATION_ERRORS as exc:
        print(f"carpet validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # parameter outside a module precondition
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AxisParallelLine as exc:
        print(f"line error: {exc}", file=sys.stderr)
        return EXIT_AXIS_PARALLEL
    except CellBudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except EmptySlice as exc:
        print(f"empty slice: {exc}", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main())
