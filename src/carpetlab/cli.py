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

from .carpet import Carpet, dimension_report
from .errors import (
    AxisParallelLine,
    BadExponent,
    CarpetFileError,
    CarpetLabError,
    CellBudgetExceeded,
    DigitOutOfRange,
    DomainError,
    EmptyDigits,
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
    MAX_DEPTH,
    Line,
    carpet_bounds,
    carries,
    estimate_slice_dimension,
    slice_cover,
)
from .symbolic import RotationOrbit  # perfbench/spans.py reads and swaps cli.RotationOrbit

SCHEMA = "carpet-lab/1"

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
    p.add_argument("--sign", type=int, choices=[1, -1], default=1, help="sign of exponent slopes")


def _build_line(c: Carpet, u0, slope, t: float, sign: int) -> Line:
    if slope is not None:
        return Line(slope=float(slope), intercept=t)
    return Line.from_exponent(c.m, float(u0), intercept=t, sign=sign)


def _emit(out_dir: str | None, name: str, content: str):
    if out_dir:
        atomic_write(Path(out_dir) / name, content)


def _report_json(payload: dict) -> str:
    """The one encoding of every JSON report and JSONL line."""
    return json.dumps({"schema": SCHEMA, **payload}, sort_keys=True)


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
        text = _report_json(rep.to_dict())
        print(text)
        _emit(args.out, "report.json", text + "\n")
    return 0


def _fit(c: Carpet, counts: list[int], lo: int, hi: int, drop_head: int) -> tuple[list, dict]:
    """The (k, N_k) series over lo..hi and its fit record.

    A cover with too little data is reported, not raised: an all-empty cover
    is a valid measurement (slope 0), and a nonempty cover with fewer than
    three usable depths is flagged ``insufficient``.
    """
    series = [(k, counts[k]) for k in range(lo, hi + 1)]
    fit = {"empty": not any(nk for _, nk in series)}
    try:
        est = estimate_slice_dimension(c, series, drop_head=drop_head)
    except InsufficientData:
        fit.update(slope=0.0, stderr=0.0, depths=[], insufficient=True)
    else:
        fit.update(slope=est.slope, stderr=est.stderr, depths=est.depths)
    return series, fit


def cmd_slice(args) -> int:
    c = load_carpet(args.carpet)
    lo, hi = args.depths
    line = _build_line(c, args.u0, args.slope, args.t, args.sign)
    cover = slice_cover(c, line, hi, budget=args.budget, keep_cells=False)
    series, payload = _fit(c, cover.counts, lo, hi, args.drop_head)
    counts_csv = "k,N_k\n" + "".join(f"{k},{nk}\n" for k, nk in series)
    payload["bounds"] = carpet_bounds(c)
    payload["u0"] = line.exponent(c.m)
    payload["t"] = line.intercept
    text = _report_json(payload)
    print(counts_csv if args.format == "csv" else text, end="" if args.format == "csv" else "\n")
    _emit(args.out, "slice_counts.csv", counts_csv)
    _emit(args.out, "slice_estimate.json", text + "\n")
    return 0


def _sweep_lines(args) -> list[tuple[float | None, float | None, float]]:
    """Line specs as (u0, slope, t) with exactly one of u0 and slope set."""
    ts = [float(v) for v in args.ts.split(",")] if args.ts is not None else [0.0]
    if args.grid is not None:
        nu, nt = args.grid
        u0s = [(i + 0.5) / nu for i in range(nu)]
        ts = [(j + 0.5) / nt for j in range(nt)]
        return [(u0, None, t) for u0 in u0s for t in ts]
    if args.slopes is not None:
        slopes = [float(v) for v in args.slopes.split(",")]
        return [(None, s, t) for s in slopes for t in ts]
    u0s = [float(v) for v in args.u0s.split(",")] if args.u0s is not None else [0.5]
    return [(u0, None, t) for u0 in u0s for t in ts]


def cmd_sweep(args) -> int:
    c = load_carpet(args.carpet)
    lo, hi = args.depths
    params = _sweep_lines(args)
    bounds = carpet_bounds(c)
    base = ",".join(repr(v) for v in bounds.values())
    header = "u0,t,slope,stderr," + ",".join(bounds) + ",error\n"
    rows = [""] * len(params)
    # the u0 column: the raw u0 until a line is built and keyed, then its exponent
    u0_column = ["" if u0 is None else repr(u0) for u0, _, _ in params]

    def row(i: int, fit: str = ",", error: str = ""):
        rows[i] = f"{u0_column[i]},{params[i][2]!r},{fit},{base},{error}\n"

    def failed(i: int, exc: Exception):
        row(i, error=type(exc).__name__)

    # lines that share their carries (see ``carries``) walk the carpet tree
    # once; with the depth checked in main, a walk fails only on the budget
    groups: dict[tuple[int, ...], list[tuple[int, Line]]] = {}
    keys: dict[float, tuple[int, ...]] = {}  # carries of each distinct exponent
    for i, (u0, slope, t) in enumerate(params):
        try:
            line = _build_line(c, u0, slope, t, args.sign)
            exponent = line.exponent(c.m)
            if exponent not in keys:
                keys[exponent] = carries(c, exponent, hi)  # raises on theta = 1 (m = n)
            key = keys[exponent]
        except (CarpetLabError, ValueError) as exc:
            failed(i, exc)
        else:
            u0_column[i] = repr(exponent)
            groups.setdefault(key, []).append((i, line))

    def walk(batch: list[tuple[int, Line]]):
        try:
            cover = slice_cover(
                c, [line for _, line in batch], hi, budget=args.budget, keep_cells=False
            )
        except CellBudgetExceeded as exc:
            if len(batch) == 1:
                failed(batch[0][0], exc)
            else:  # the budget caps a walk's tested cells: retry each half alone
                walk(batch[: len(batch) // 2])
                walk(batch[len(batch) // 2 :])
            return
        for (i, _), counts in zip(batch, cover.line_counts):
            fit = _fit(c, counts, lo, hi, args.drop_head)[1]
            row(i, f"{fit['slope']!r},{fit['stderr']!r}")

    for batch in groups.values():
        walk(batch)
    text = header + "".join(rows)
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
    GridPartition(c.n, args.probe_level)  # rejects a negative or int64-overflowing level
    lo, hi = args.depths
    line = _build_line(c, args.u0, args.slope, args.t, args.sign)
    cover = slice_cover(c, line, hi, budget=args.budget)
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
    chain_payload["triple"] = {"schema": SCHEMA, **triple.to_dict()}
    chain_payload["exhausted_at"] = summary.exhausted_at
    chain_text = _report_json(chain_payload)
    print(chain_text)
    _emit(args.out, "orbit.jsonl", "".join(_report_json(r) + "\n" for r in summary.records))
    _emit(args.out, "chain.json", chain_text + "\n")
    if summary.exhausted_at is not None:
        print(f"measure support exhausted at step {summary.exhausted_at}", file=sys.stderr)
        return EXIT_EXHAUSTED
    return 0


def cmd_proptest(args) -> int:
    from . import proptest  # the test harness, loaded by this command only

    results = proptest.run_all(seed=args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" -- {r.detail}" if r.detail else ""
        lines.append(f"{status} {r.name} (cases={r.cases}){detail}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _emit(args.out, "proptest.txt", text)
    return 0 if all(r.passed for r in results) else 1


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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--drop-head", dest="drop_head", type=_parse_drop_head, default=3)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("sweep", help="slice estimates over a grid of lines")
    _add_common(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--grid", type=_parse_grid, default=None, help="UxT grid of (u0, t) values, e.g. 10x10"
    )
    g.add_argument(
        "--u0s",
        default=None,
        help="comma-separated slope exponents (default 0.5 without --grid and --slopes)",
    )
    g.add_argument("--slopes", default=None, help="comma-separated literal slopes")
    p.add_argument("--ts", default=None, help="comma-separated intercepts")
    p.add_argument("--sign", type=int, choices=[1, -1], default=1, help="sign of exponent slopes")
    p.add_argument("--depths", type=_parse_depths, default=(4, 12))
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


def _reject_ignored_flags(parser: argparse.ArgumentParser, args):
    """Exit 2 on flag pairs that parse but that the line specs would drop."""
    if getattr(args, "grid", None) is not None and args.ts is not None:
        parser.error("argument --ts: not allowed with argument --grid")
    if getattr(args, "sign", 1) == -1:
        for flag in ("slope", "slopes"):
            if getattr(args, flag, None) is not None:
                parser.error(f"argument --sign: -1 not allowed with argument --{flag}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_ignored_flags(parser, args)
    try:
        if getattr(args, "depths", (0, 0))[1] > MAX_DEPTH:  # before any line is built
            raise ValueError(f"depth capped at {MAX_DEPTH}")
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


if __name__ == "__main__":
    sys.exit(main())
