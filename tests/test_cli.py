import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from carpetlab.cli import main
from carpetlab.io import atomic_write, dump_carpet, parse_carpet
from carpetlab.errors import CarpetFileError
from carpetlab import cli, new_carpet, proptest


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
    back = parse_carpet(dump_carpet(c))
    assert back == c


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


def test_slice_axis_parallel_exit(example_file, capsys):
    assert main(["slice", "--carpet", example_file, "--slope", "0", "--t", "0.3"]) == 4
    capsys.readouterr()


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
    assert abs(float(row[2]) - slice_payload["slope"]) < 1e-12


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
# scenery path must reproduce these bytes.
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
            "c528d1aaf45e16e52b2841194f6ea1bb8cae0df40d9826ef303ee8778b745f62",
            "87d8868f18d5e7a8b28d4a5fc777fda221cc12d61d39843c6c90b8cb71077407",
        ),
    ],
)
def test_scenery_bytes_pinned(tmp_path, capsys, argv, exhausted_at, chain_sha, orbit_sha):
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    argv = [str(CARPETS / a) if a.endswith(".txt") else a for a in argv]
    out = tmp_path / "out"
    assert main(["scenery", *argv, "--out", str(out)]) == 6
    captured = capsys.readouterr()
    assert captured.err == f"measure support exhausted at step {exhausted_at}\n"
    assert sha(captured.out.encode()) == chain_sha
    assert sha((out / "chain.json").read_bytes()) == chain_sha
    assert sha((out / "orbit.jsonl").read_bytes()) == orbit_sha


# -- parameter validation --


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


# -- proptest --


def _fake_family(name, passed, hard=True, detail=""):
    return name, lambda rng: proptest.CheckResult(name, passed, 3, hard=hard, detail=detail)


def _raising_family(rng):
    raise RuntimeError("broken family")


def _seeded_family(rng):
    return proptest.CheckResult("seeded", True, int(rng.integers(1000)))


def test_proptest_cli_wiring(monkeypatch, tmp_path, capsys):
    passing = [
        _fake_family("hard_ok", True),
        _fake_family("diag_bad", False, hard=False, detail="2 misses"),
        ("seeded", _seeded_family),
    ]
    monkeypatch.setattr(proptest, "ALL_CHECKS", passing)
    out = tmp_path / "reports"
    assert main(["proptest", "--seed", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    cases = int(np.random.default_rng(5).integers(1000))
    assert text == (
        "PASS hard_ok (cases=3)\n"
        "FAIL diag_bad (cases=3) [diagnostic] -- 2 misses\n"
        f"PASS seeded (cases={cases})\n"
    )
    assert (out / "proptest.txt").read_text() == text

    failing = [_fake_family("hard_bad", False), ("raises", _raising_family)]
    monkeypatch.setattr(proptest, "ALL_CHECKS", passing + failing)
    assert main(["proptest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == [
        "FAIL hard_bad (cases=3)",
        "FAIL raises (cases=0) -- error: RuntimeError('broken family')",
    ]
