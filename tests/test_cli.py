import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from carpetlab.cli import main
from carpetlab.io import atomic_write, parse_carpet
from carpetlab.errors import CarpetFileError
from carpetlab import cli, new_carpet, proptest
from carpetlab.slicer import Line, exact_cover_cells


EXAMPLE = "# test carpet\n3 2\n0 0\n2 0\n1 1\n"
FULL = "3 2\n" + "".join(f"{x} {y}\n" for x in range(3) for y in range(2))
CARPETS = Path(__file__).resolve().parents[1] / "carpets"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE)
    return str(path)


@pytest.fixture
def full_file(tmp_path):
    path = tmp_path / "full.txt"
    path.write_text(FULL)
    return str(path)


# -- carpet file format --


def test_parse_carpet_format():
    c = parse_carpet("  # comment\n 3   2 \n0 0 # digit\n2 0\n1 1\n\n")
    assert c == new_carpet(3, 2, {(0, 0), (2, 0), (1, 1)})


def test_parse_carpet_errors():
    with pytest.raises(CarpetFileError):
        parse_carpet("")
    with pytest.raises(CarpetFileError):
        parse_carpet("banana\n")
    with pytest.raises(CarpetFileError):
        parse_carpet("3 2\n0\n")
    with pytest.raises(CarpetFileError):
        parse_carpet("3 2\nx y\n")


def test_atomic_write(tmp_path):
    target = tmp_path / "sub" / "file.txt"
    atomic_write(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert not [p for p in (tmp_path / "sub").iterdir() if p.name.startswith(".")]


# -- analyze --


def test_analyze_example(example_file, capsys):
    assert main(["analyze", "--carpet", example_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "carpet-lab/1"
    assert abs(payload["dim_h"] - 1.34968) < 1e-4
    assert abs(payload["dim_star"] - 1.63093) < 1e-5
    assert abs(payload["slice_bound_h"] - 0.52213) < 1e-4
    assert payload["independent"] is True
    assert set(payload) == {
        "schema",
        "theta",
        "dim_h",
        "dim_bp",
        "dim_star",
        "independent",
        "ahlfors_regular",
        "slice_bound_h",
        "slice_bound_p",
        "prior_bound",
        "marstrand_h",
        "marstrand_p",
    }


def test_analyze_full_square(full_file, capsys):
    assert main(["analyze", "--carpet", full_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_h"] == payload["dim_bp"] == payload["dim_star"] == 2.0
    assert payload["slice_bound_h"] == payload["slice_bound_p"] == payload["prior_bound"] == 1.0


def test_analyze_writes_report(example_file, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["analyze", "--carpet", example_file, "--out", str(out)]) == 0
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


def test_analyze_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    assert main(["analyze", "--carpet", str(bad)]) == 2
    invalid = tmp_path / "invalid.txt"
    invalid.write_text("3 2\n5 5\n")
    assert main(["analyze", "--carpet", str(invalid)]) == 3
    assert main(["analyze", "--carpet", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_undecodable_carpet_file(tmp_path, capsys):
    bad = tmp_path / "bytes.txt"
    bad.write_bytes(b"3 2\n0 0\xff\n")
    assert main(["analyze", "--carpet", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("carpet file error: ") and "decode" in captured.err


def test_cli_import_skips_test_harness():
    code = "import sys, carpetlab.cli; print('carpetlab.proptest' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# -- slice --


def test_slice_diagonal(full_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "slice",
            "--carpet",
            full_file,
            "--slope",
            "1.0",
            "--t",
            "0",
            "--depths",
            "4..12",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["slope"] - 1.0) < 0.05
    assert payload["bounds"]["theorem_p"] == 1.0
    counts = (out / "slice_counts.csv").read_text().strip().splitlines()
    assert counts[0] == "k,N_k"
    assert len(counts) == 10
    k, nk = counts[1].split(",")
    assert int(k) == 4 and 2**4 <= int(nk) <= 3 * 2**4


def test_slice_empty_line(example_file, capsys):
    assert main(["slice", "--carpet", example_file, "--slope", "2.5", "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slope"] == 0.0
    assert payload["empty"] is True


def test_slice_bounds_attached(example_file, capsys):
    assert main(["slice", "--carpet", example_file, "--u0", "0.4", "--t", "0.2"]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert set(bounds) == {"theorem_h", "theorem_p", "prior", "marstrand_h", "marstrand_p"}
    assert bounds["theorem_h"] <= bounds["theorem_p"] <= bounds["prior"]


def test_slice_axis_parallel_exit(example_file, capsys):
    assert main(["slice", "--carpet", example_file, "--slope", "0", "--t", "0.3"]) == 4
    capsys.readouterr()


def test_slice_rejects_non_finite_intercept(example_file, capsys):
    # a NaN intercept would otherwise print "t": NaN, which is not JSON
    assert main(["slice", "--carpet", example_file, "--u0", "0.4", "--t", "nan"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "intercept must be finite" in captured.err


def test_slice_rejects_non_finite_slope(example_file, capsys):
    # a NaN slope is no line at all: a parameter error, not an axis-parallel one
    assert main(["slice", "--carpet", example_file, "--slope", "nan"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "slope must be finite" in captured.err


@pytest.mark.parametrize(
    "slope,t,kept", [("1e308", "1e308", False), ("-1e308", "1e308", True)]
)
def test_slice_past_float_range_is_exact_and_quiet(tmp_path, slope, t, kept):
    # line values or margins overflow float64 here; the command must print no
    # numpy warning, in a fresh interpreter with default warning filters, and
    # its counts must be the exact cover's
    out = tmp_path / "out"
    argv = ["slice", "--carpet", str(CARPETS / "example.txt"), f"--slope={slope}", f"--t={t}"]
    argv += ["--depths", "0..8", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "carpetlab", *argv], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stderr) == (0, "")
    u0 = json.loads(result.stdout)["u0"]
    lines = (out / "slice_counts.csv").read_text().splitlines()
    assert lines[0] == "k,N_k"
    counts = [int(row.split(",")[1]) for row in lines[1:]]
    c = cli.load_carpet(str(CARPETS / "example.txt"))
    s, t = Fraction(float(slope)), Fraction(float(t))  # the doubles the command reads
    exact = [len(exact_cover_cells(c, s, t, d, u0)) for d in range(9)]
    assert counts == exact
    assert any(counts) == kept


def test_slice_budget_exit(full_file, capsys):
    code = main(
        ["slice", "--carpet", full_file, "--slope", "1.0", "--depths", "4..12", "--budget", "50"]
    )
    assert code == 5
    capsys.readouterr()


# -- sweep --


def test_sweep_single_matches_slice(example_file, capsys):
    assert main(["slice", "--carpet", example_file, "--u0", "0.45", "--t", "0.25"]) == 0
    slice_payload = json.loads(capsys.readouterr().out)
    assert (
        main(["sweep", "--carpet", example_file, "--u0s", "0.45", "--ts", "0.25"]) == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[2]) == slice_payload["slope"]  # one fit serves both


def test_sweep_grid(example_file, capsys):
    assert main(["sweep", "--carpet", example_file, "--grid", "10x10", "--depths", "4..10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("u0,t,slope,stderr")
    assert len(lines) == 101
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[9] == ""  # no per-line errors on this grid
        assert float(fields[2]) >= 0.0


def test_sweep_axis_parallel_row_tagged(example_file, capsys):
    code = main(
        ["sweep", "--carpet", example_file, "--slopes", "1.5,0,2.5", "--ts", "0.1", "--depths", "4..9"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    tags = [row.split(",")[-1] for row in lines[1:]]
    assert tags == ["", "AxisParallelLine", ""]


def test_sweep_error_rows_pinned(capsys):
    # the u0 column holds the raw u0 when the line cannot be built, and the
    # line's exponent when the walk fails
    argv = ["sweep", "--carpet", str(CARPETS / "full_3x2.txt"), "--u0s", "0.3,1.5", "--ts", "0.1"]
    assert main([*argv, "--depths", "4..9", "--budget", "200"]) == 0
    assert capsys.readouterr().out == (
        "u0,t,slope,stderr,theorem_h,theorem_p,prior,marstrand_h,marstrand_p,error\n"
        "0.3,0.1,,,1.0,1.0,1.0,1.0,1.0,CellBudgetExceeded\n"
        "1.5,0.1,,,1.0,1.0,1.0,1.0,1.0,ValueError\n"
    )


EQUAL_BASES = "3 3\n0 0\n1 1\n2 2\n"
THETA_ONE = "parameter error: theta must be in (0, 1), got 1.0\n"


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["slice", "--u0", "0.4", "--t", "0.2", "--depths", "4..9"], 3, "", THETA_ONE),
        (
            ["sweep", "--u0s", "0.3,0.6", "--ts", "0.1", "--depths", "4..9"],
            0,
            "u0,t,slope,stderr,theorem_h,theorem_p,prior,marstrand_h,marstrand_p,error\n"
            "0.3,0.1,,,0.0,0.0,0.0,0.0,0.0,ValueError\n"
            "0.6,0.1,,,0.0,0.0,0.0,0.0,0.0,ValueError\n",
            "",
        ),
        (["scenery", "--u0", "0.4", "--steps", "50", "--depths", "4..8"], 3, "", THETA_ONE),
    ],
)
def test_equal_bases_pinned(tmp_path, capsys, argv, code, out, err):
    # m = n makes theta = 1, which no rotation orbit accepts: slice and
    # scenery refuse the command and sweep tags every row
    carpet = tmp_path / "equal.txt"
    carpet.write_text(EQUAL_BASES)
    assert main([argv[0], "--carpet", str(carpet), *argv[1:]]) == code
    assert capsys.readouterr() == (out, err)


def test_boundary_u0_walked_as_given(tmp_path, capsys):
    # u0 = 1 - theta puts R(0) = floor(u0 + theta) on a carry boundary; every
    # command walks and reports the u0 it was given
    path = str(CARPETS / "example.txt")
    c = cli.load_carpet(path)
    u0 = 0.3690702464285426
    assert u0 == 1.0 - c.theta
    out = tmp_path / "slice"
    argv = ["slice", "--carpet", path, f"--u0={u0}", "--depths", "4..9", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["u0"] == u0
    rows = (out / "slice_counts.csv").read_text().splitlines()[1:]
    slope = Fraction(Line.from_exponent(c.m, u0).slope)
    assert [int(r.split(",")[1]) for r in rows] == [
        len(exact_cover_cells(c, slope, Fraction(0), d, u0)) for d in range(4, 10)
    ]
    assert main(["sweep", "--carpet", path, f"--u0s={u0}", "--depths", "4..9"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[0] == repr(u0)
    out = tmp_path / "scenery"
    argv = ["scenery", "--carpet", path, f"--u0={u0}", "--steps", "200", "--depths", "4..8"]
    assert main([*argv, "--out", str(out)]) in (0, 6)
    capsys.readouterr()
    first = (out / "orbit.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["u"] == u0


def test_sweep_non_finite_intercept_row_tagged(example_file, capsys):
    argv = ["sweep", "--carpet", example_file, "--u0s", "0.4", "--ts", "nan,0.2"]
    assert main([*argv, "--depths", "4..9"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows[0].startswith("0.4,nan,,,") and rows[0].endswith(",ValueError")
    fields = rows[1].split(",")
    assert fields[1] == "0.2" and fields[2] != "" and fields[-1] == ""


@pytest.mark.parametrize("flag", ["--slopes=", "--u0s=", "--ts="])
def test_sweep_rejects_empty_list(example_file, capsys, flag):
    # an empty list is a list with one empty value, not an absent flag
    assert main(["sweep", "--carpet", example_file, flag, "--depths", "4..8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter error: could not convert string to float: ''\n"


def test_slope_whose_exponent_rounds_to_one(tmp_path, capsys):
    # log_8 of the slope is a tiny negative number, which % 1.0 rounds up to 1.0
    path = tmp_path / "wide.txt"
    path.write_text("8 2\n0 0\n3 1\n7 0\n")
    slope = "0.9999999999999999"
    assert main(["slice", "--carpet", str(path), "--slope", slope, "--depths", "4..8"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--carpet", str(path), "--slopes", slope, "--depths", "4..8"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.endswith(",") and row.split(",")[2] != ""


def _rows_from_slices(
    carpet: str, lines: list[list[str]], capsys, budget: str | None = None
) -> str:
    """The sweep CSV that one-line ``slice`` runs predict for lines given by their flags."""
    columns = ["theorem_h", "theorem_p", "prior", "marstrand_h", "marstrand_p"]
    rows = []
    for flags in lines:
        argv = ["slice", "--carpet", carpet, *flags, "--depths", "4..9"]
        code = 0 if budget is None else main([*argv, "--budget", budget])
        capsys.readouterr()
        assert code in (0, 5)
        assert main(argv) == 0  # the line's exponent and, within the budget, its fit
        payload = json.loads(capsys.readouterr().out)
        base = ",".join(repr(payload["bounds"][k]) for k in columns)
        fit = f"{payload['slope']!r},{payload['stderr']!r}," if code == 0 else ",,"
        error = "" if code == 0 else "CellBudgetExceeded"
        rows.append(f"{payload['u0']!r},{payload['t']!r},{fit}{base},{error}\n")
    return "u0,t,slope,stderr," + ",".join(columns) + ",error\n" + "".join(rows)


def _record_walks(monkeypatch) -> list[int]:
    """The batch size of every ``slice_cover`` call that ``cli`` makes from now on."""
    batches, walk = [], cli.slice_cover

    def recorded(c, lines, *args, **kwargs):
        batches.append(len(lines))
        return walk(c, lines, *args, **kwargs)

    monkeypatch.setattr(cli, "slice_cover", recorded)
    return batches


@pytest.mark.parametrize(
    "ts,failing",
    [
        # 3563, 3121 and 2667 cells down to depth 9: each fits 4000, the three do not
        (["0.2", "0.3", "0.4"], []),
        # the line at t = 0.1 tests 4009 cells alone
        (["0.2", "0.1", "0.3", "0.4"], ["0.1"]),
    ],
)
def test_sweep_budget_split_matches_slices(ts, failing, capsys, monkeypatch):
    carpet = str(CARPETS / "full_3x2.txt")
    expected = _rows_from_slices(carpet, [["--u0", "0.3", "--t", t] for t in ts], capsys, "4000")
    batches = _record_walks(monkeypatch)
    argv = ["sweep", "--carpet", carpet, "--u0s", "0.3", "--ts", ",".join(ts), "--depths", "4..9"]
    assert main([*argv, "--budget", "4000"]) == 0
    out = capsys.readouterr().out
    assert out == expected
    rows = out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows if row.endswith("Exceeded")] == failing
    assert batches[0] == len(ts) and batches.count(1) == len(ts)  # split down to single lines


def test_sweep_lines_sharing_carries_walk_once(capsys, monkeypatch):
    # 6 = 2 * 3 and 18 = 2 * 9 get exponents ulps apart, but the same carries
    carpet = str(CARPETS / "example.txt")
    slopes = ["2", "6", "18"]
    expected = _rows_from_slices(carpet, [["--slope", s, "--t", "0.1"] for s in slopes], capsys)
    batches = _record_walks(monkeypatch)
    argv = ["sweep", "--carpet", carpet, "--slopes", ",".join(slopes), "--ts", "0.1"]
    assert main([*argv, "--depths", "4..9"]) == 0
    out = capsys.readouterr().out
    assert out == expected
    assert len({row.split(",")[0] for row in out.splitlines()[1:]}) == 3
    assert batches == [3]


def test_sweep_batches_on_the_carries_the_walk_reads(capsys, monkeypatch):
    # on example, u0 = 0.01 and 0.06 share R(0..9) and differ at R(10)
    carpet = str(CARPETS / "example.txt")
    u0s = ["0.01", "0.06"]
    expected = _rows_from_slices(carpet, [["--u0", u, "--t", "0.1"] for u in u0s], capsys)
    batches = _record_walks(monkeypatch)
    argv = ["sweep", "--carpet", carpet, "--u0s", ",".join(u0s), "--ts", "0.1"]
    assert main([*argv, "--depths", "4..9"]) == 0
    assert capsys.readouterr().out == expected
    assert batches == [2]


# -- scenery --


def test_scenery_full_square_diagonal(full_file, tmp_path, capsys):
    out = tmp_path / "sc"
    code = main(
        [
            "scenery",
            "--carpet",
            full_file,
            "--slope",
            "1.0",
            "--t",
            "0",
            "--steps",
            "200",
            "--depths",
            "4..10",
            "--block",
            "4",
            "--stride",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code in (0, 6)
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert payload["slack_packing"] >= -1e-9
    assert payload["slack_hausdorff"] >= -1e-9
    assert payload["packing_form"] <= 2.0 + 1e-9
    assert payload["triple"]["residual_tv"] < 0.2
    orbit_lines = (out / "orbit.jsonl").read_text().strip().splitlines()
    assert orbit_lines
    first = json.loads(orbit_lines[0])
    assert first["step"] == 0
    chain = json.loads((out / "chain.json").read_text())
    assert chain["exhausted_at"] == payload["exhausted_at"]


def test_scenery_residual_small_at_large_n(example_file, capsys):
    code = main(
        [
            "scenery",
            "--carpet",
            example_file,
            "--u0",
            "0.37",
            "--t",
            "0.21",
            "--steps",
            "10000",
            "--depths",
            "4..12",
            "--block",
            "4",
            "--stride",
            "1000",
        ]
    )
    assert code in (0, 6)
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert payload["triple"]["residual_tv"] < 0.05


def test_scenery_point_line_zero_entropy(tmp_path, capsys):
    path = tmp_path / "point.txt"
    path.write_text("3 2\n0 0\n")
    out = tmp_path / "out"
    code = main(
        [
            "scenery",
            "--carpet",
            str(path),
            "--slope",
            "1.0",
            "--t",
            "0",
            "--steps",
            "30",
            "--depths",
            "2..6",
            "--block",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code in (0, 6)
    capsys.readouterr()
    for line in (out / "orbit.jsonl").read_text().strip().splitlines():
        assert json.loads(line)["probe_entropy"] == 0.0


def test_scenery_empty_slice(example_file, capsys):
    code = main(
        ["scenery", "--carpet", example_file, "--slope", "2.5", "--t", "5", "--steps", "50"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empty"] is True


# sha256 of stdout (the same bytes as chain.json) and of orbit.jsonl.  The
# digests were recorded from the scenery implementation that counted blocks
# with a Counter over tuple slices and copied the word on every shift, before
# the numpy block tables and shared-tuple words replaced it; every faster
# scenery path must reproduce these bytes.  The last three chain digests were
# re-recorded when the block entropies became ``math.fsum`` sums over count
# arrays, by running each command as ``python -m carpetlab scenery ARGV --out
# out`` (the 5x3 carpet written from SPARSE_5X3) and hashing
# ``out/chain.json`` with ``sha256sum``: only the last bits of
# ``h_rate_curve`` and ``h_rate_estimate`` moved, by at most 1 ulp, and every
# orbit digest stayed.  With n = 3 and --block 8 the 5x3 case reads
# ``h_nu``, ``h_eta`` and eight lengths of ``h_rate_curve``.  The second
# chain digest was re-recorded the same way when ``gamma_proxy`` came to be
# fitted in closed form (``fit.log_scale_fit``) instead of by ``np.polyfit``:
# only ``gamma_proxy`` moved, by 4 ulps; the other three chains kept their
# bits.
SPARSE_5X3 = "# 5x3 test carpet\n5 3\n0 0\n2 0\n4 0\n1 1\n3 1\n2 2\n"


@pytest.mark.parametrize(
    "argv,exhausted_at,chain_sha,orbit_sha",
    [
        (  # the README example
            ["--carpet", "full_3x2.txt", "--slope", "1.0", "--steps", "1000", "--depths", "4..10"],
            11,
            "dfe86689d8da9f5682f1e94e3af6b218d46e576f1720465cba2dbe4b8954ea01",
            "216a98d62f8dc28893925e935baaa54e5977ede7f2e8e29d303dff8395b24585",
        ),
        (
            ["--carpet", "example.txt", "--u0", "0.37", "--t", "0.21", "--steps", "20000"],
            14,
            "efeb95d547d9acc9ddd059ff27a3b5214ac8a4f6a4c8f34b9377d66cf7850237",
            "87d8868f18d5e7a8b28d4a5fc777fda221cc12d61d39843c6c90b8cb71077407",
        ),
        (
            ["--carpet", "sparse_5x3.txt", "--u0", "0.41", "--t", "0.13", "--steps", "3000"]
            + ["--depths", "4..8", "--block", "8"],
            9,
            "fd4e3b4a008bcee70018c6f574e7ccc41be50692696851ba78f1ebaea37df0b8",
            "62175aa1106a89eb547acb6e6a6b1c0f38584b0cbeb83d2911c3f3b4a81eb64f",
        ),
        (
            ["--carpet", "example.txt", "--slope", "0.72", "--t", "-0.72", "--steps", "99000"]
            + ["--depths", "4..10"],
            12,
            "5fa020523f190468704e0f26cb3ba95da40919c3da83259a98e73eb2ecabb1e9",
            "d58b62e030f744c435076356b13cc86d913a03d94567de1fa522480e1d555653",
        ),
    ],
)
def test_scenery_bytes_pinned(tmp_path, capsys, argv, exhausted_at, chain_sha, orbit_sha):
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    (tmp_path / "sparse_5x3.txt").write_text(SPARSE_5X3)
    where = {"sparse_5x3.txt": tmp_path}
    argv = [str(where.get(a, CARPETS) / a) if a.endswith(".txt") else a for a in argv]
    out = tmp_path / "out"
    assert main(["scenery", *argv, "--out", str(out)]) == 6
    captured = capsys.readouterr()
    assert captured.err == f"measure support exhausted at step {exhausted_at}\n"
    assert sha(captured.out.encode()) == chain_sha
    assert sha((out / "chain.json").read_bytes()) == chain_sha
    assert sha((out / "orbit.jsonl").read_bytes()) == orbit_sha


def test_scenery_one_row_carpet_zero_entropy(tmp_path, capsys):
    # a one-row carpet's vertical word is constant: one block at every
    # length, whose entropy is 0.0, not -0.0
    carpet = tmp_path / "onerow.txt"
    carpet.write_text("3 2\n0 0\n2 0\n")
    argv = ["--carpet", str(carpet), "--slope", "0.001", "--steps", "200", "--depths", "4..8"]
    assert main(["scenery", *argv]) == 6
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["h_rate_curve"] == [0.0] * 6 and payload["h_rate_estimate"] == 0.0
    assert "-0.0" not in out


# sha256 of stdout and of every --out file for the other README commands.
# The digests were recorded before the settings that had one value in use
# (the cover's outward margin, mixed-axis grids, non-fatal proptest
# families) became constants; every later change must keep these bytes.
# SLICE_JSON, SWEEP_CSV, SLOPES_SWEEP_CSV and DEEP_SWEEP_CSV were re-recorded
# when the slope fit became closed-form (``fit.log_scale_fit``) instead of
# ``np.polyfit``, by running ``python -m carpetlab ARGV`` in ``carpets/`` and
# hashing stdout with ``sha256sum``: only the last bits of ``slope`` and
# ``stderr`` moved.
ANALYZE_JSON = "bb6910862e4c543bca00fe71f04bfa05ffe2cfe14d083928be68b6833c178e79"
ANALYZE_CSV = "db5b88255d6c5ae8636fc0b89989b68d862d261219f0ed87ff7cf05f0cb0673b"
SLICE_JSON = "ae203e136bab3f59d0618eb5276286cc45c90686c48ffddf8a95e3a4506782a0"
SLICE_CSV = "7f2fe1d395833d3c668db0a5fd1c256a418bd9023a8f9c3c608cde66d42711c4"
SWEEP_CSV = "6699d9e363e8f422a28430996700ac441e79a70b478a7ed5f27570171491a099"
SLICE_ARGS = ["slice", "--carpet", "example.txt", "--u0", "0.4", "--t", "0.2", "--depths", "4..12"]
# the payloads of a cover that is empty, or too shallow to regress, and the
# scenery report of an empty slice (its orbit.jsonl is the empty file)
EMPTY_JSON = "9474e396bbb62f23ba35a96424e36dfa68b745a43b19be8e1c3bd9ff9e75406a"
EMPTY_CSV = "f2016016498dce1d08e03944034ec34beeb64050aa084a0eca6b6d9a2053ed5a"
SHALLOW_JSON = "8e6f6454c9bc0c9d5fe51b1fcc209d4a84be039d7042c4604a8c025571b5434c"
SHALLOW_CSV = "a87b45f8cc76a470c08cf7db6b68038cd7122cc5ddd498ae4456069533209105"
EMPTY_CHAIN = "e249667255bb7fd740656181e9d328c69a0dc780d8b483bfd57a25d904f2a787"
EMPTY_FILE = hashlib.sha256(b"").hexdigest()
# sweeps whose lines share their carries across different exponent floats,
# first recorded while each exponent float still walked alone
SLOPES_SWEEP_CSV = "389c250d66e2955d1db2e62304004cb5652ec0a3b5ec6631a430f6d2b3b10887"
DEEP_SWEEP_CSV = "1b3bb43fc7f661a2e4204a8aafd24646c1717876247f78a4fc0f30c6f96ed718"


@pytest.mark.parametrize(
    "argv,stdout_sha,files",
    [
        (["analyze", "--carpet", "example.txt"], ANALYZE_JSON, {"report.json": ANALYZE_JSON}),
        (
            ["analyze", "--carpet", "example.txt", "--format", "csv"],
            ANALYZE_CSV,
            {"report.csv": ANALYZE_CSV},
        ),
        (
            SLICE_ARGS,
            SLICE_JSON,
            {"slice_counts.csv": SLICE_CSV, "slice_estimate.json": SLICE_JSON},
        ),
        (
            [*SLICE_ARGS, "--format", "csv"],
            SLICE_CSV,
            {"slice_counts.csv": SLICE_CSV, "slice_estimate.json": SLICE_JSON},
        ),
        (
            ["sweep", "--carpet", "example.txt", "--grid", "10x10", "--depths", "4..12"],
            SWEEP_CSV,
            {"sweep.csv": SWEEP_CSV},
        ),
        (
            ["slice", "--carpet", "example.txt", "--slope", "2.5", "--t", "5", "--depths", "0..8"],
            EMPTY_JSON,
            {"slice_counts.csv": EMPTY_CSV, "slice_estimate.json": EMPTY_JSON},
        ),
        (
            ["slice", "--carpet", "example.txt", "--u0", "0.4", "--t", "0.2", "--depths", "4..6"],
            SHALLOW_JSON,
            {"slice_counts.csv": SHALLOW_CSV, "slice_estimate.json": SHALLOW_JSON},
        ),
        (
            ["scenery", "--carpet", "example.txt", "--slope", "2.5", "--t", "5", "--steps", "50"],
            EMPTY_CHAIN,
            {"chain.json": EMPTY_CHAIN, "orbit.jsonl": EMPTY_FILE},
        ),
        (
            ["sweep", "--carpet", "example.txt", "--slopes=2,6,18", "--ts=0.1", "--depths=4..9"],
            SLOPES_SWEEP_CSV,
            {"sweep.csv": SLOPES_SWEEP_CSV},
        ),
        (
            ["sweep", "--carpet", "example.txt", "--grid", "60x2", "--depths", "4..20"],
            DEEP_SWEEP_CSV,
            {"sweep.csv": DEEP_SWEEP_CSV},
        ),
    ],
    ids=[
        "analyze-json",
        "analyze-csv",
        "slice-json",
        "slice-csv",
        "sweep",
        "slice-empty",
        "slice-shallow",
        "scenery-empty",
        "sweep-slopes",
        "sweep-deep",
    ],
)
def test_cli_bytes_pinned(tmp_path, capsys, argv, stdout_sha, files):
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    argv = [str(CARPETS / a) if a.endswith(".txt") else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha(captured.out.encode()) == stdout_sha
    assert {p.name: sha(p.read_bytes()) for p in out.iterdir()} == files


def test_cli_options_pinned():
    """Every option string of every subcommand; a flag added or removed is a test edit."""
    common = {"--carpet", "--out"}
    line = {"--u0", "--slope", "--t", "--sign"}
    estimate = {"--depths", "--budget", "--drop-head"}
    expected = {
        "analyze": common | {"--format"},
        "slice": common | line | estimate | {"--format"},
        "sweep": common | estimate | {"--grid", "--u0s", "--slopes", "--ts", "--sign"},
        "scenery": common
        | line
        | {"--depths", "--budget", "--steps", "--block", "--probe-level", "--stride"},
        "proptest": {"--seed", "--out"},
    }
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == expected


# -- parameter validation --


@pytest.mark.parametrize("depths", ["4..21", "4..100000000"])
@pytest.mark.parametrize(
    "argv",
    [["slice", "--u0", "0.4"], ["sweep", "--grid", "3x2"], ["scenery", "--slope", "1.5"]],
)
def test_over_cap_depth_refused_before_any_work(example_file, capsys, monkeypatch, argv, depths):
    def no_load(*args, **kwargs):
        raise AssertionError("carpet loaded")

    monkeypatch.setattr(cli, "load_carpet", no_load)
    command, *line = argv
    assert main([command, "--carpet", example_file, *line, f"--depths={depths}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter error: depth capped at 20\n"


def test_slice_rejects_negative_depth(example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--carpet", example_file, "--u0", "0.4", "--depths=-3..6"])
    assert exc.value.code == 2
    assert "depths must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["slice", "sweep"])
def test_rejects_negative_drop_head(example_file, capsys, command):
    line = ["--u0", "0.4"] if command == "slice" else ["--u0s", "0.4"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--carpet", example_file, *line, "--t", "0.2", "--drop-head=-9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "drop-head must be >= 0" in captured.err


@pytest.mark.parametrize("grid", ["foo", "0x3", "-2x2", "3x0"])
def test_sweep_rejects_bad_grid(example_file, capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--carpet", example_file, f"--grid={grid}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid" in captured.err


@pytest.mark.parametrize("level", ["-1", "63"])  # full_3x2 has n = 2
def test_scenery_rejects_bad_probe_level(full_file, capsys, monkeypatch, level):
    def no_walk(*args, **kwargs):
        raise AssertionError("slice walk started")

    monkeypatch.setattr(cli, "slice_cover", no_walk)
    code = main(["scenery", "--carpet", full_file, "--slope", "1.0", f"--probe-level={level}"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parameter error: grid ")


@pytest.mark.parametrize(
    "flag,value",
    [("--steps", "1000000"), ("--steps", "0"), ("--block", "0"), ("--stride", "0")],
)
def test_scenery_rejects_bad_integer_parameter(full_file, capsys, flag, value):
    code = main(["scenery", "--carpet", full_file, "--slope", "1.0", flag, value])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parameter error: {flag[2:]} must be")


def test_scenery_rejects_an_empty_window_before_the_walk(capsys, monkeypatch):
    # floor(1 * theta) = 0 leaves the early window [1, 0] empty; the window
    # rule is checked right after the carpet is read, before any walk or orbit
    def no_walk(*args, **kwargs):
        raise AssertionError("slice walk started")

    monkeypatch.setattr(cli, "slice_cover", no_walk)
    path = str(CARPETS / "example.txt")
    theta = cli.load_carpet(path).theta
    assert main(["scenery", "--carpet", path, "--u0", "0.4", "--steps", "1"]) == 3
    assert capsys.readouterr() == (
        "",
        f"parameter error: N=1 leaves an empty window for theta={theta}\n",
    )


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["sweep", "--grid", "2x2", "--u0s", "0.3"], ("--u0s", "--grid")),
        (["sweep", "--grid", "2x2", "--slopes", "1.5"], ("--slopes", "--grid")),
        (["sweep", "--u0s", "0.3", "--slopes", "1.5"], ("--slopes", "--u0s")),
        (["sweep", "--grid", "2x2", "--ts", "0.1"], ("--ts", "--grid")),
        (["slice", "--slope", "1.5", "--t", "0.1", "--sign", "-1"], ("--sign", "--slope")),
        (["sweep", "--slopes", "1.5", "--sign", "-1"], ("--sign", "--slopes")),
        (["scenery", "--slope", "1.5", "--sign", "-1"], ("--sign", "--slope")),
    ],
)
def test_rejects_ignored_line_flags(example_file, capsys, monkeypatch, argv, flags):
    def no_load(*args, **kwargs):
        raise AssertionError("carpet loaded")

    monkeypatch.setattr(cli, "load_carpet", no_load)
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--carpet", example_file, *rest])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(flag in captured.err for flag in flags)


def test_sign_with_exponent_lines_accepted(example_file, capsys):
    for argv in (["--u0s", "0.3"], ["--grid", "2x2"]):
        assert main(["sweep", "--carpet", example_file, *argv, "--sign", "-1"]) == 0
    assert main(["slice", "--carpet", example_file, "--u0", "0.3", "--sign", "-1"]) == 0
    capsys.readouterr()


def test_sweep_propagates_programming_errors(example_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a per-line failure")

    monkeypatch.setattr(cli, "slice_cover", broken)
    with pytest.raises(TypeError):
        main(["sweep", "--carpet", example_file, "--u0s", "0.4"])
    assert capsys.readouterr().out == ""


# -- proptest --


def _fake_family(name, passed, detail=""):
    return name, lambda rng: proptest.CheckResult(name, passed, 3, detail=detail)


def _raising_family(rng):
    raise RuntimeError("broken family")


def _seeded_family(rng):
    return proptest.CheckResult("seeded", True, int(rng.integers(1000)))


def test_proptest_cli_wiring(monkeypatch, tmp_path, capsys):
    passing = [
        _fake_family("ok", True, detail="2 near misses"),
        ("seeded", _seeded_family),
    ]
    monkeypatch.setattr(proptest, "ALL_CHECKS", passing)
    out = tmp_path / "reports"
    assert main(["proptest", "--seed", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    cases = int(np.random.default_rng(5).integers(1000))
    assert text == (
        "PASS ok (cases=3) -- 2 near misses\n"
        f"PASS seeded (cases={cases})\n"
    )
    assert (out / "proptest.txt").read_text() == text

    failing = [_fake_family("bad", False), ("raises", _raising_family)]
    monkeypatch.setattr(proptest, "ALL_CHECKS", passing + failing)
    assert main(["proptest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "FAIL bad (cases=3)",
        "FAIL raises (cases=0) -- error: RuntimeError('broken family')",
    ]
