"""Readers for every input document: JSON objects and headed CSV tables.

Run configs and material registries are JSON objects, read through
``read_json_object`` and unpacked key by key with ``Cfg``, which rejects
unknown keys and checks that numbers are JSON numbers (not booleans or
strings) and paths are strings.
Optical tables, calibration samples and residual-bound files are headed
CSV tables, read through ``read_table`` under one set of rules:

- the file is UTF-8;
- blank lines and ``#`` comment lines are skipped anywhere;
- the first other line is the header, matched column by column, stripped
  and case-insensitively;
- every later line holds exactly one comma-separated float per column.

A file that breaks a rule raises ``ParseError`` with its path and file
line (exit 1 in the CLI); so does any input file that is not UTF-8,
height maps included (``open_text``). Values are not range-checked here:
each caller validates what its numbers mean.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError

_REQUIRED = object()


class Cfg:
    """Config-dict reader that rejects unknown keys on close()."""

    def __init__(self, doc: dict, where: str):
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{where}: expected a JSON object")
        self._doc = dict(doc)
        self._where = where

    def take(self, key, default=_REQUIRED):
        if key in self._doc:
            return self._doc.pop(key)
        if default is _REQUIRED:
            raise ConfigurationError(f"{self._where}: missing required key {key!r}")
        return default

    def take_float(self, key, default=_REQUIRED) -> float:
        val = self.take(key, default)
        if val is None and default is None:
            return None
        try:
            num = math.nan if isinstance(val, (bool, str)) else float(val)
        except (TypeError, ValueError):
            num = math.nan
        if not math.isfinite(num):
            raise ConfigurationError(
                f"{self._where}: {key!r} must be a finite number, got {val!r}"
            )
        return num

    def take_int(self, key, default=_REQUIRED) -> int:
        # Integers stay exact (64-bit seeds); floats must be whole numbers.
        val = self.take(key, default)
        if isinstance(val, float) and val.is_integer():
            val = int(val)
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigurationError(
                f"{self._where}: {key!r} must be an integer, got {val!r}"
            )
        return val

    def take_path(self, key, default=_REQUIRED) -> str | None:
        """A file path, which must be a string; a default of None passes."""
        val = self.take(key, default)
        if not (isinstance(val, str) or val is default is None):
            raise ConfigurationError(f"{self._where}: {key!r} must be a path string, got {val!r}")
        return val

    def close(self):
        if self._doc:
            raise ConfigurationError(
                f"{self._where}: unknown keys {sorted(self._doc)}"
            )


def open_text(path) -> io.StringIO:
    """The UTF-8 file ``path`` as a text stream with universal newlines.

    A byte sequence that is not UTF-8 raises ParseError with its line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text, newline=None)


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file ``path``."""
    try:
        doc = json.load(open_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return doc


def read_table(path, header: tuple[str, ...]) -> tuple[np.ndarray, list[int]]:
    """Rows of the headed CSV table ``path``, with the file line of each row.

    ``header`` lists the column names in lower case. Returns an
    (n_rows, len(header)) float array, n_rows >= 1.
    """
    want = ",".join(header)
    rows: list[list[float]] = []
    lines: list[int] = []
    header_line = None
    for lineno, raw in enumerate(open_text(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if header_line is None:
            if [p.strip().lower() for p in parts] != list(header):
                raise ParseError(f"{path}: expected header {want!r}", line=lineno)
            header_line = lineno
            continue
        if len(parts) != len(header):
            raise ParseError(
                f"{path}: expected {len(header)} fields, got {len(parts)}", line=lineno
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"{path}: non-numeric field in {line!r}", line=lineno) from None
        lines.append(lineno)
    if not rows:
        what = "no data rows" if header_line else f"missing header {want!r}"
        raise ParseError(f"{path}: {what}", line=header_line)
    return np.array(rows), lines
