"""Readers for every input document: JSON objects and headed CSV tables.

Run configs and material registries are JSON objects, read through
``read_json_object`` and unpacked key by key with ``Cfg``, which rejects
unknown keys and checks that numbers are JSON numbers (not booleans or
strings) and paths are strings.
Optical tables, calibration samples and residual-bound files are headed
CSV tables, read through ``read_table`` under one set of rules:

- the file is UTF-8, and a leading byte-order mark is ignored;
- blank lines and ``#`` comment lines are skipped anywhere;
- the first other line is the header, matched column by column, stripped
  and case-insensitively;
- every later line holds exactly one comma-separated float per column.

A file that breaks a rule raises ``ParseError`` with its path and file
line (exit 1 in the CLI); so does any input file that is not UTF-8,
height maps included (``open_text``, which also drops one leading
byte-order mark from every input file). Values are not range-checked here:
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
    """The UTF-8 file ``path`` as a text stream with universal newlines,
    without a leading byte-order mark (U+FEFF).

    A byte sequence that is not UTF-8 raises ParseError with its line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text.removeprefix("\ufeff"), newline=None)


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
    (n_rows, len(header)) float array, n_rows >= 1. Of the rows that break
    a rule, the first in file order is reported.
    """
    lines = map(str.strip, open_text(path).read().split("\n"))
    kept = [(lineno, line) for lineno, line in enumerate(lines, 1) if line and line[0] != "#"]
    if not kept:
        raise ParseError(f"{path}: missing header {','.join(header)!r}")
    (header_line, text), *rows = kept
    if [p.strip().lower() for p in text.split(",")] != list(header):
        raise ParseError(f"{path}: expected header {','.join(header)!r}", line=header_line)
    if not rows:
        raise ParseError(f"{path}: no data rows", line=header_line)
    linenos, texts = zip(*rows)
    try:
        if {t.count(",") for t in texts} == {len(header) - 1}:
            values = list(map(float, ",".join(texts).split(",")))
            return np.array(values).reshape(-1, len(header)), list(linenos)
    except ValueError:
        pass
    for lineno, line in rows:  # some row is bad: report the first in file order
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(f"{path}: expected {len(header)} fields, got {len(parts)}", line=lineno)
        try:
            list(map(float, parts))
        except ValueError:
            raise ParseError(f"{path}: non-numeric field in {line!r}", line=lineno) from None
