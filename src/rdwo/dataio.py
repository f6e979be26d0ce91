"""Deterministic text I/O: sample ingestion from CSV and record emission.

Floats are emitted with 17 significant digits, enough to round-trip IEEE
doubles exactly, so repeated runs over the same input are byte-identical.
"""

from __future__ import annotations

import json
from itertools import chain, islice, starmap
from math import isfinite
from typing import Iterator, Sequence

import numpy as np

from .core import Sample

__all__ = [
    "EXPECTED_HEADER",
    "InputFormatError",
    "iter_samples",
    "read_samples",
    "read_arrays",
    "iter_blocks",
    "format_float",
    "json_record",
    "csv_row",
    "parse_grid",
    "parse_grid_list",
]

EXPECTED_HEADER = "k,phi,y"


class InputFormatError(ValueError):
    """Malformed input data; the message carries the 1-based line number."""


def _parse_rows(fh) -> Iterator[tuple[int, float, float]]:
    """The CSV grammar: yield ``(k, phi, y)`` for each data row of ``fh``.

    Blank lines are ignored and surrounding whitespace is stripped.  After
    the header ``k,phi,y``, a row holds three comma-separated fields, only
    ASCII and no ``_``: ``k`` in decimal digits and at least 1, ``phi`` and
    ``y`` finite floats, and no index twice.  Any breach raises
    :class:`InputFormatError` naming the line.
    """
    # The indices seen so far are the run run_lo..run_hi plus the set; files
    # numbered in order keep the set empty, so the check takes O(1) memory.
    run_lo, run_hi = 1, 0
    seen: set[int] = set()
    header_done = False
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if not header_done:
            if line != EXPECTED_HEADER:
                raise InputFormatError(
                    f"line {line_no}: expected header {EXPECTED_HEADER!r}, got {line!r}"
                )
            header_done = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InputFormatError(
                f"line {line_no}: expected 3 comma-separated fields, got {len(parts)}"
            )
        try:
            if not raw.isascii() or "_" in line:
                raise ValueError("fields may hold only ASCII characters and no '_'")
            k_text = parts[0].strip()
            if not k_text.isdigit():
                raise ValueError(f"sample index must be decimal digits, got {k_text!r}")
            k = int(k_text)
            phi = float(parts[1])
            y = float(parts[2])
            if k < 1:
                raise ValueError(f"sample index must be >= 1, got {k}")
            if not (isfinite(phi) and isfinite(y)):
                raise ValueError(f"phi and y must be finite, got {phi!r} and {y!r}")
        except ValueError as exc:
            raise InputFormatError(f"line {line_no}: {exc}") from None
        if run_lo <= k <= run_hi or k in seen:
            raise InputFormatError(f"line {line_no}: duplicate sample index {k}")
        if k == run_hi + 1:
            run_hi = k
        elif run_hi < run_lo:
            run_lo = run_hi = k
        else:
            seen.add(k)
        yield k, phi, y


def iter_samples(path) -> Iterator[Sample]:
    """Yield the samples of a CSV file with header ``k,phi,y``, in file order.

    A file with no content at all yields nothing; see :func:`_parse_rows`
    for the grammar.
    """
    with open(path, "r", encoding="utf-8") as fh:
        yield from starmap(Sample, _parse_rows(fh))


def read_samples(path) -> list[Sample]:
    return list(iter_samples(path))


def read_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """The regressors and outputs of a CSV file as float arrays, in file order.

    Accepts and rejects exactly what :func:`iter_samples` does, without
    building a :class:`Sample` per row.
    """
    # Imported here: loading the extension module costs every other command
    # about 0.13 MiB of resident memory.
    from array import array

    phis, ys = array("d"), array("d")
    with open(path, "r", encoding="utf-8") as fh:
        for _, phi, y in _parse_rows(fh):
            phis.append(phi)
            ys.append(y)
    return np.frombuffer(phis), np.frombuffer(ys)


def iter_blocks(path, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The regressors and outputs of a CSV file as float arrays, ``size`` rows
    at a time, in file order; only the last block may be shorter.

    Accepts and rejects exactly what :func:`iter_samples` does, without
    building a :class:`Sample` per row.  The rows before a malformed line
    come out in whole blocks, and then the error is raised.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = _parse_rows(fh)
        while True:
            # Flattened (phi, y) pairs; no row outlives its own parse.
            flat = np.fromiter(
                chain.from_iterable((phi, y) for _, phi, y in islice(rows, size)), float
            )
            if flat.size == 0:
                return
            yield flat[0::2], flat[1::2]


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot emit value of type {type(value).__name__}")


def json_record(pairs: Sequence[tuple[str, object]]) -> str:
    """One JSON object per line, field order preserved."""
    body = ", ".join(f'"{key}": {_json_scalar(value)}' for key, value in pairs)
    return "{" + body + "}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot emit value of type {type(value).__name__}")


def csv_row(values: Sequence[object]) -> str:
    return ",".join(_csv_cell(v) for v in values)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``min:max:count`` into an evenly spaced query grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must have the form min:max:count, got {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"grid must have the form min:max:count, got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return tuple(float(v) for v in np.linspace(lo, hi, count))


def parse_grid_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of query points."""
    items = [chunk.strip() for chunk in text.split(",")]
    if not any(items):
        raise ValueError("query list must be nonempty")
    try:
        grid = tuple(float(chunk) for chunk in items if chunk)
    except ValueError:
        raise ValueError(f"query list must contain numbers, got {text!r}") from None
    if not all(np.isfinite(v) for v in grid):
        raise ValueError("query points must be finite")
    return grid
