"""Guards on the package's names: every name it exports is used by the
program itself or by the acceptance suite, every name the benchmark's traced
run patches exists, no check in the source is an ``assert`` statement, and
no module imports another's private names."""

import ast
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carpetlab"


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_exports_reached():
    """An export that only unit tests or proptest families call is a test
    edit away, not silent.  ``proptest.py`` is the test harness, not the
    program, so its references do not count."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "proptest.py")]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    reached = set().union(*(_references(p) for p in sources))
    assert sorted(exported - reached) == []


def test_no_assert_statements():
    """``python -O`` strips ``assert``; library checks must raise explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_trace_points_exist(monkeypatch, tmp_path):
    """``perfbench/spans.py`` patches program names by attribute, such as
    ``cli.RotationOrbit``; a renamed or deleted one fails here, not in the
    benchmark.  The benchmark's self-test also needs the orbit path to call
    the traced word, measure and step layers, so 50 steps of the
    ``long-orbit`` operation run under the tracer.  The import leaves no
    bytecode in ``perfbench/``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import run
    import spans
    import workloads

    from carpetlab import cli

    op = dataclasses.replace(workloads.long_orbit(1, small=True).ops[0], steps=50)
    runner = run.Runner(workloads.Plan({}, [op]), tmp_path)
    original = cli.RotationOrbit
    with spans.Tracer().install() as tracer:
        assert cli.RotationOrbit is not original
        runner._orbit(runner._orbit_state(op), op)
    assert cli.RotationOrbit is original
    assert {
        "symbolic.shift",
        "measures.entropy",
        "measures.condition_rescale",
        "scenery.magnify_step",
    } <= {span[2] for span in tracer.spans}


def test_no_private_names_imported_across_modules():
    """A module's ``_name`` is its own: another module that needs one asks
    for a public function instead, so a private helper's return shape stays
    free to change.  Only relative imports inside the package are checked."""
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
