"""Carpet text files and atomic report emission."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .carpet import Carpet, new_carpet
from .errors import CarpetFileError


def parse_carpet(text: str) -> Carpet:
    """Parse the carpet text format.

    Line 1: ``m n``.  Every further non-blank line: one ``x y`` digit pair.
    ``#`` starts a comment; whitespace is free-form.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise CarpetFileError("file contains no data")
    header = rows[0].split()
    if len(header) != 2:
        raise CarpetFileError(f"first line must be 'm n', got {rows[0]!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise CarpetFileError(f"bad exponents {rows[0]!r}") from exc
    digits = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise CarpetFileError(f"digit line must be 'x y', got {line!r}")
        try:
            digits.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise CarpetFileError(f"bad digit pair {line!r}") from exc
    return new_carpet(m, n, digits)


def load_carpet(path: str | Path) -> Carpet:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CarpetFileError(f"cannot read {path}: {exc}") from exc
    return parse_carpet(text)


def atomic_write(path: str | Path, content: str):
    """Write via a temp file and rename so failures never leave partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
