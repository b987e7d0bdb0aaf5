"""Guards on the repository's tools: what they check must track what the
README shows, and the field diff must name what moved."""

import importlib.util
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_byte_identical_covers_readme_examples():
    # the byte-identical set runs each README CLI example; a README edit
    # that the tool does not follow would drop a command from the set.
    # The script is imported as a module, so its main does not run
    tool = _load("byte_identical")
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = [line.split(maxsplit=1)[1] for line in lines if line.startswith("carpetlab ")]
    assert examples
    assert [" ".join(e.split()) for e in tool.README_EXAMPLES] == [
        " ".join(e.split()) for e in examples
    ]


def test_field_diff_names_moved_fields_and_ulps():
    tool = _load("field_diff")
    x = 0.1847251681419567
    moved = math.nextafter(math.nextafter(x, 1.0), 1.0)
    sweep = "u0,t,slope,stderr,error\n0.5,0.25,{},0.04,\n0.5,0.75,0.3,0.04,\n"
    report = '{{"schema": "s", "slope": {}, "bounds": {{"prior": 0.5}}, "depths": [1, 2]}}\n'
    old = (0, sweep.format(x).encode(), b"", {"a.json": report.format(x).encode()})
    new = (0, sweep.format(moved).encode(), b"", {"a.json": report.format(moved).encode()})
    assert tool.compare(old, old) == {}
    assert tool.compare(old, new) == {"a.json:slope": 2, "stdout:slope": 2}
    text = (1, b"PASS a\nPASS b\n", b"", {"a.json": report.format(x).encode()})
    assert tool.compare(old, text) == {"exit": None, "stdout": None, **{
        f"stdout:{column}": None for column in ("error", "slope", "stderr", "t", "u0")
    }}
    assert tool.ulp_distance(0.0, -0.0) == 1
    assert tool.ulp_distance(-x, -moved) == 2
    assert tool.ulp_distance(1, 1.0) is None


def test_field_diff_runs_the_set_commands(tmp_path):
    # one command of the set, captured twice from this checkout, differs in
    # no field
    tool = _load("byte_identical")
    shutil.copytree(ROOT / "carpets", tmp_path / "carpets")
    argv = tool.README_EXAMPLES[0].split()
    first, second = (tool.capture(ROOT, tmp_path, argv) for _ in range(2))
    assert first[0] == 0 and first[3]
    assert _load("field_diff").compare(first, second) == {}


def test_byte_identical_commands_read_their_own_plan_carpets(tmp_path, monkeypatch):
    # the plans of two seeds write seeded carpets under the same file names,
    # so each command must be yielded while its own plan's files are in place
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    tool = _load("byte_identical")
    checked = 0
    for item, argv in tool.commands(tmp_path):
        name, _, rest = item.partition(":")
        if name not in tool.CLI_WORKLOADS:
            continue
        seed, index = (int(v) for v in rest.split(":"))
        plan = workloads.PLANS[name](seed)
        spec = plan.carpets[plan.ops[index].carpet]
        path = tmp_path / argv[argv.index("--carpet") + 1]
        assert path.read_text() == (spec.text() if spec.path is None else spec.path.read_text())
        checked += 1
    assert checked > len(tool.CLI_WORKLOADS) * len(tool.CLI_SEEDS)
