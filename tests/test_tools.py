"""Guards on the repository's tools: what they check must track what the
README shows."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_byte_identical_covers_readme_examples():
    # the byte-identical set runs each README CLI example; a README edit
    # that the tool does not follow would drop a command from the set.
    # The script is imported as a module, so its main does not run
    path = ROOT / "tools" / "byte_identical.py"
    spec = importlib.util.spec_from_file_location("byte_identical", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = [line.split(maxsplit=1)[1] for line in lines if line.startswith("carpetlab ")]
    assert examples
    assert [" ".join(e.split()) for e in tool.README_EXAMPLES] == [
        " ".join(e.split()) for e in examples
    ]
