"""Which report fields an intended byte change moved, and by how many ulps.

    python3 tools/field_diff.py OLD_CHECKOUT NEW_CHECKOUT > fields.json

Runs every CLI command of ``tools/byte_identical.py``'s set, as that tool
runs it, from each checkout's ``src/``, and compares the two outputs field by
field.  A JSON line (stdout, ``*.json``, ``*.jsonl``) is compared key by key,
nested keys joined by dots and list entries under ``key[]``; a CSV (a text
whose first line holds a comma and no ``{``) column by column, its rows in
order; any other text line by line.  Prints one JSON object:

- ``fields``: for each field that differs anywhere, the largest distance in
  ulps between the two values (a sign of zero counts 1) and the items it
  differs in;
- ``items``: for each item, the fields that differ in it and their largest
  distance.

A value that is not a float on both sides, or a line count, exit code or
file list that differs, has distance ``null``.  The set's in-process items
(``long-orbit`` and ``one-atom``) print no report to compare; compare their
digests with ``byte_identical.py``.  The command list and the carpets come
from the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def ulp_distance(a, b) -> int | None:
    """Ulps between two floats, over the integers that order the doubles;
    ``None`` unless both are floats (ints and text have no ulps)."""
    if type(a) is not float or type(b) is not float:
        return None
    if math.isnan(a) or math.isnan(b):
        return None

    def ordinal(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -1 - (bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(a) - ordinal(b))


def _flatten(value, prefix: str, out: dict[str, list]):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, f"{prefix}[]", out)
    else:
        out.setdefault(prefix, []).append(value)


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def fields(name: str, data: bytes) -> dict[str, list]:
    """The values of each field of one output, in order, keyed by
    ``name:field``."""
    text = data.decode()
    lines = text.splitlines()
    out: dict[str, list] = {}
    if lines and all(line.startswith("{") for line in lines):
        for line in lines:
            _flatten(json.loads(line), "", out)
    elif lines and "," in lines[0] and "{" not in lines[0]:
        for row in csv.DictReader(io.StringIO(text)):
            for key, value in row.items():
                out.setdefault(key, []).append(_number(value))
    else:
        out[""] = lines
    return {f"{name}:{key}" if key else name: values for key, values in out.items()}


def compare(old: tuple, new: tuple) -> dict[str, int | None]:
    """The fields in which two captures of one command differ, each with
    its largest ulp distance (``None`` where it is not a float distance)."""
    sides = []
    for code, stdout, stderr, files in (old, new):
        outputs = {"stdout": stdout, "stderr": stderr, **files}
        values = {"exit": [code]}
        for name, data in outputs.items():
            values.update(fields(name, data))
        sides.append(values)
    moved: dict[str, int | None] = {}
    for key in sorted(sides[0].keys() | sides[1].keys()):
        a, b = sides[0].get(key), sides[1].get(key)
        if a is None or b is None or len(a) != len(b):
            moved[key] = None
            continue
        pairs = [(x, y) for x, y in zip(a, b) if repr(x) != repr(y)]
        if pairs:
            distances = [ulp_distance(x, y) for x, y in pairs]
            moved[key] = None if None in distances else max(distances)
    return moved


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "perfbench")]
    import byte_identical

    report_fields: dict[str, dict] = {}
    report_items: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for item, command in byte_identical.commands(cwd):
            moved = compare(
                byte_identical.capture(old, cwd, command),
                byte_identical.capture(new, cwd, command),
            )
            if not moved:
                continue
            report_items[item] = moved
            for key, distance in moved.items():
                field = key.split(":", 1)[-1]
                entry = report_fields.setdefault(field, {"ulps": 0, "items": []})
                worst = entry["ulps"]
                entry["ulps"] = None if None in (worst, distance) else max(worst, distance)
                if item not in entry["items"]:
                    entry["items"].append(item)
    print(json.dumps({"fields": report_fields, "items": report_items}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
