"""Deterministic text I/O: sample ingestion from CSV and record emission.

Floats are emitted with 17 significant digits, enough to round-trip IEEE
doubles exactly, so repeated runs over the same input are byte-identical.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import starmap
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
    "format_rows",
    "format_heads",
    "join_lines",
    "line_tail",
    "parse_grid",
    "parse_grid_list",
]

EXPECTED_HEADER = "k,phi,y"


class InputFormatError(ValueError):
    """Malformed input data; the message carries the 1-based line number."""


# Characters the bulk reader takes from a file at a time.  Each run's
# temporaries live on the heap next to the caller's arrays; at 64 KiB they
# raised the peak resident memory of `stream` by 2%, at 16 KiB by under 1%,
# and the run time is the same.
_CHUNK_CHARS = 1 << 14

# Whitespace, and ``_``, which ``float()`` would read as a digit separator: a
# run of lines holding any of them goes to the line parser.
_NOT_BULK = "_ \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


class _ParseState:
    """How far a file has been read: the number of the next line, whether the
    header is read, and the indices seen so far.

    The indices are the run ``run_lo..run_hi`` plus the set ``seen``; files
    numbered in order keep the set empty, so the check takes O(1) memory.
    """

    __slots__ = ("line_no", "header_done", "run_lo", "run_hi", "seen")

    def __init__(self) -> None:
        self.line_no = 1
        self.header_done = False
        self.run_lo, self.run_hi = 1, 0
        self.seen: set[int] = set()


def _parse_rows(lines, state: _ParseState) -> Iterator[tuple[int, float, float]]:
    """The CSV grammar: yield ``(k, phi, y)`` for each data row in ``lines``,
    which continue the file where ``state`` left it.

    Blank lines are ignored and surrounding whitespace is stripped.  After
    the header ``k,phi,y``, a row holds three comma-separated fields, only
    ASCII and no ``_``: ``k`` in decimal digits and at least 1, ``phi`` and
    ``y`` finite floats, and no index twice.  Any breach raises
    :class:`InputFormatError` naming the line.  ``state`` is brought up to
    date once ``lines`` is used up.
    """
    run_lo, run_hi, seen = state.run_lo, state.run_hi, state.seen
    header_done = state.header_done
    line_no = state.line_no - 1
    for line_no, raw in enumerate(lines, start=state.line_no):
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
    state.line_no = line_no + 1
    state.header_done = header_done
    state.run_lo, state.run_hi = run_lo, run_hi


def _line_runs(fh) -> Iterator[str]:
    """The text of ``fh`` in runs of whole lines of about ``_CHUNK_CHARS``
    characters, each without its last newline."""
    tail = ""
    while block := fh.read(_CHUNK_CHARS):
        cut = block.rfind("\n")
        if cut < 0:
            tail += block
            continue
        yield tail + block[:cut]
        tail = block[cut + 1 :]
    if tail:
        yield tail


def _bulk_columns(text: str, state: _ParseState):
    """The ``phi`` and ``y`` columns of ``text``, lines without the last
    newline, if every line is a bare row ``k,phi,y`` whose ``k`` continues the
    run of indices; otherwise None, and ``state`` is left as it was.

    What this accepts :func:`_parse_rows` accepts with the same values: the
    text is ASCII with no whitespace or ``_``, each line has exactly two
    commas, each ``k`` is the decimal text of the next index, and numpy reads
    the float fields as ``float()`` does (``tests/test_dataio.py`` checks
    this), all finite.
    """
    if not state.header_done or not text.isascii() or any(c in text for c in _NOT_BULK):
        return None
    n = text.count("\n") + 1
    codes = np.frombuffer(text.encode("ascii"), np.uint8)
    commas = np.flatnonzero(codes == 44)
    # Two commas a line: the i-th newline has 2 * (i + 1) commas before it.
    if commas.size != 2 * n or not np.array_equal(
        np.searchsorted(commas, np.flatnonzero(codes == 10)), np.arange(2, 2 * n, 2)
    ):
        return None
    fields = text.replace("\n", ",").split(",")
    first = state.run_hi + 1
    if fields[0::3] != list(map(str, range(first, first + n))):
        return None
    if state.seen and not state.seen.isdisjoint(range(first, first + n)):
        return None
    try:
        phis = np.array(fields[1::3], dtype=float)
        ys = np.array(fields[2::3], dtype=float)
    except ValueError:
        return None
    if not (np.isfinite(phis).all() and np.isfinite(ys).all()):
        return None
    state.line_no += n
    state.run_hi = first + n - 1
    return phis, ys


def _column_runs(fh) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``phi`` and ``y`` columns of a CSV file, a run of lines at a time.

    Each run is checked as a whole by :func:`_bulk_columns`; a run that fails
    any check goes through :func:`_parse_rows` instead, which then names the
    first bad line.  The rows before that line still come out, as one last
    run, and the error is raised after it.
    """
    state = _ParseState()
    header_line = EXPECTED_HEADER + "\n"
    for text in _line_runs(fh):
        if not state.header_done and text.startswith(header_line):
            state.header_done = True
            state.line_no += 1
            text = text[len(header_line) :]
        columns = _bulk_columns(text, state)
        if columns is not None:
            yield columns
            continue
        phis, ys, error = [], [], None
        try:
            for _, phi, y in _parse_rows(text.split("\n"), state):
                phis.append(phi)
                ys.append(y)
        except InputFormatError as exc:
            error = exc
        yield np.array(phis, dtype=float), np.array(ys, dtype=float)
        if error is not None:
            raise error


def iter_samples(path) -> Iterator[Sample]:
    """Yield the samples of a CSV file with header ``k,phi,y``, in file order.

    A file with no content at all yields nothing; see :func:`_parse_rows`
    for the grammar.  This is the line-by-line reference that
    :func:`read_arrays` and :func:`iter_blocks` are tested against.
    """
    with open(path, "r", encoding="utf-8") as fh:
        yield from starmap(Sample, _parse_rows(fh, _ParseState()))


def read_samples(path) -> list[Sample]:
    return list(iter_samples(path))


def read_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """The regressors and outputs of a CSV file as float arrays, in file order.

    Accepts and rejects exactly what :func:`iter_samples` does, without
    building a :class:`Sample` per row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.seekable():
            # A first pass counts the lines, so that each column is allocated
            # once: growing it run by run leaves freed blocks on the heap.
            size = 1 + sum(text.count("\n") for text in iter(lambda: fh.read(_CHUNK_CHARS), ""))
            fh.seek(0)
            runs = _column_runs(fh)
        else:  # a pipe is read once, so its runs are held
            runs = list(_column_runs(fh))
            size = sum(phi_run.size for phi_run, _ in runs)
        phis, ys, n = np.empty(size), np.empty(size), 0
        for phi_run, y_run in runs:
            phis[n : n + phi_run.size] = phi_run
            ys[n : n + phi_run.size] = y_run
            n += phi_run.size
    return phis[:n], ys[:n]


def iter_blocks(path, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The regressors and outputs of a CSV file as float arrays, ``size`` rows
    at a time, in file order; only the last block may be shorter.

    Accepts and rejects exactly what :func:`iter_samples` does, without
    building a :class:`Sample` per row.  The rows before a malformed line
    come out in whole blocks, and then the error is raised.
    """
    with open(path, "r", encoding="utf-8") as fh:
        runs, held = [], 0
        for run in _column_runs(fh):
            runs.append(run)
            held += run[0].size
            if held < size:
                continue
            phis, ys = (np.concatenate(column) for column in zip(*runs))
            whole = held - held % size
            for start in range(0, whole, size):
                yield phis[start : start + size], ys[start : start + size]
            runs, held = [(phis[whole:], ys[whole:])], held - whole
        if held:
            yield tuple(np.concatenate(column) for column in zip(*runs))


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


# Lines per text that format_rows and join_lines hand out, about 8 KiB of
# them: a whole table as one string raised the peak memory of `stream` by
# 0.25 MiB.
_EMIT_ROWS = 64

# Cell templates by column kind: float, int, bool (fed as its text), and
# text printed as it is.
_CELLS = {"f": "%.17g", "d": "%d", "b": "%s", "s": "%s"}
_BOOL_TEXT = {True: "true", False: "false"}


def _row_template(fmt: str, header, kinds: str, nulls, prefix) -> str:
    """One ``%`` template for a line up to its tail (see :func:`line_tail`).
    A null cell swallows its value with ``%.0s``, so every row feeds the
    template the same tuple."""
    null = ("null" if fmt == "json" else "") + "%.0s"
    cells = [null if key in nulls else _CELLS[kind] for key, kind in zip(header, kinds)]
    if fmt == "csv":
        return ",".join(cells)
    fields = [_literal(f'"{key}": {_json_scalar(value)}') for key, value in prefix]
    fields += [f'"{_literal(key)}": {cell}' for key, cell in zip(header, cells)]
    return "{" + ", ".join(fields)


def _literal(text: str) -> str:
    return text.replace("%", "%%")


@lru_cache(maxsize=32)
def _templates(fmt: str, header: tuple, kinds: str, nullable: tuple, prefix: tuple):
    """The full and the null row template of one table shape, built once:
    ``stream --emit-every`` prints a table of the same shape per snapshot."""
    return (
        _row_template(fmt, header, kinds, (), prefix),
        _row_template(fmt, header, kinds, nullable, prefix),
    )


def line_tail(fmt: str, suffix=()) -> str:
    """The end of every line of a table: the ``suffix`` fields, which hold
    the same value in every row, then the newline, after a JSON record's
    closing brace."""
    if fmt == "csv":
        return "".join("," + _csv_cell(value) for _, value in suffix) + "\n"
    return "".join(f', "{key}": {_json_scalar(value)}' for key, value in suffix) + "}\n"


def format_heads(fmt, header, kinds, columns, *, supported=None, nullable=(), prefix=()):
    """Each row's line up to its tail, as a list: one ``%`` format of the
    row per line, through the cached templates of the table shape.

    ``columns`` holds the cells column by column, and ``kinds`` one letter
    per column: ``f`` float, ``d`` int, ``b`` bool, ``s`` text printed as it
    is.  A row whose ``supported`` entry is false prints null in the
    ``nullable`` columns, whatever they hold; all rows are supported when
    ``supported`` is None.  JSON records lead with the ``prefix`` fields,
    CSV rows leave them out.
    """
    full, null = _templates(
        fmt, tuple(header), kinds, tuple(nullable), tuple(map(tuple, prefix))
    )
    rows = zip(*(
        [_BOOL_TEXT.get(value) for value in column] if kind == "b" else column
        for kind, column in zip(kinds, columns)
    ))
    if supported is None or all(supported):
        return list(map(full.__mod__, rows))
    return [(null, full)[ok] % row for ok, row in zip(supported, rows)]


def join_lines(heads, tail: str) -> Iterator[str]:
    """The lines ``heads``, each ended by ``tail``, in texts of up to
    ``_EMIT_ROWS`` lines."""
    for start in range(0, len(heads), _EMIT_ROWS):
        yield tail.join(heads[start : start + _EMIT_ROWS]) + tail


def format_rows(
    fmt, header, kinds, columns, *, supported=None, nullable=(), prefix=(), suffix=()
) -> Iterator[str]:
    """The lines :func:`json_record` (``fmt`` ``"json"``) or :func:`csv_row`
    (``"csv"``) give for a table, in texts of up to ``_EMIT_ROWS`` lines,
    formatted a text at a time.

    The cells are as :func:`format_heads` takes them; each line ends with
    the ``suffix`` fields, which both formats print after the columns.
    """
    tail = line_tail(fmt, suffix)
    for start in range(0, len(columns[0]) if columns else 0, _EMIT_ROWS):
        stop = start + _EMIT_ROWS
        heads = format_heads(
            fmt, header, kinds, [column[start:stop] for column in columns],
            supported=None if supported is None else supported[start:stop],
            nullable=nullable, prefix=prefix,
        )
        yield tail.join(heads) + tail


def _require_plain(text: str, what: str) -> None:
    """The CSV number grammar's character rule: ASCII only, and no ``_``,
    which ``float()`` and ``int()`` would read as a digit separator."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{what} may hold only ASCII characters and no '_', got {text!r}")


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``min:max:count`` into an evenly spaced query grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must have the form min:max:count, got {text!r}")
    _require_plain(text, "grid fields")
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
    """Parse a comma-separated list of query points; each item is one
    number, with or without surrounding spaces."""
    items = [chunk.strip() for chunk in text.split(",")]
    if not any(items):
        raise ValueError("query list must be nonempty")
    if not all(items):
        raise ValueError(f"query list has an empty item, got {text!r}")
    _require_plain(text, "query list items")
    try:
        grid = tuple(map(float, items))
    except ValueError:
        raise ValueError(f"query list must contain numbers, got {text!r}") from None
    if not all(np.isfinite(v) for v in grid):
        raise ValueError("query points must be finite")
    return grid
