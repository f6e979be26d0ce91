"""Deterministic text I/O: sample ingestion from CSV and record emission.

Floats are emitted with 17 significant digits, enough to round-trip IEEE
doubles exactly, so repeated runs over the same input are byte-identical.

CSV input is decoded as UTF-8 with ``surrogateescape``, so a byte that is
not UTF-8 fails the grammar on its own line, and every reader names the
first bad line in file order.

On a large CSV file that :func:`can_split` admits, a child run by
:func:`beside` parses the second half for :func:`read_arrays` into a shared
anonymous map (``mmap``, loaded only then), or reads and folds the file for
``stream --emit-every`` and pipes each snapshot to the parent that prints
it.  Where the child does not finish, the caller does its part again, so
every result is the one a single process gives.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import threading
import warnings
from math import isfinite
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .core import _even_grid

__all__ = [
    "EXPECTED_HEADER",
    "InputFormatError",
    "iter_samples",
    "read_samples",
    "read_arrays",
    "iter_runs",
    "format_float",
    "json_record",
    "csv_row",
    "write_table",
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

# One row as the bulk reader parses it, and the largest index it can hold.
_ROW = np.dtype([("k", np.int64), ("phi", float), ("y", float)])
_INDEX_MAX = np.iinfo(np.int64).max


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

    numpy's C text reader parses the run in one call.  What this accepts
    :func:`_parse_rows` accepts with the same values: ASCII text with no
    whitespace or ``_``, each line a row of three fields that starts with a
    digit 1 to 9 (no sign, no leading zero), the ``k`` column the next
    indices, none of them seen, and float fields the reader converts as
    ``float()`` does (``tests/test_dataio.py`` checks this), all finite.  A
    field the reader refuses, or a warning, refuses the run.
    """
    if not state.header_done or not text.isascii() or any(c in text for c in _NOT_BULK):
        return None
    lines = text.split("\n")
    n = len(lines)
    first = state.run_hi + 1
    # Past int64, np.arange gives float64, whose 2**63 equals 2**63 - 1.
    if first + n > _INDEX_MAX or state.seen and not state.seen.isdisjoint(range(first, first + n)):
        return None
    codes = np.frombuffer(("\n" + text).encode("ascii"), np.uint8)
    heads = codes[1:][codes[:-1] == 10]
    if not ((heads >= ord("1")) & (heads <= ord("9"))).all():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    # The reader skips blank lines, so there must be a row for every line.
    if rows.size != n or not np.array_equal(rows["k"], np.arange(first, first + n)):
        return None
    phis, ys = rows["phi"], rows["y"]
    if not (np.isfinite(phis).all() and np.isfinite(ys).all()):
        return None
    state.line_no += n
    state.run_hi = first + n - 1
    return phis, ys


def _column_runs(fh, state=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``phi`` and ``y`` columns of a CSV file, a run of lines at a time,
    from where ``state`` left it, or from the start of the file.

    Each run is checked as a whole by :func:`_bulk_columns`; a run that fails
    any check goes through :func:`_parse_rows` instead, which then names the
    first bad line.  The rows before that line still come out, as one last
    run, and the error is raised after it.
    """
    state = _ParseState() if state is None else state
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


def iter_samples(path) -> Iterator[tuple[int, float, float]]:
    """Yield the rows ``(k, phi, y)`` of a CSV file with header ``k,phi,y``,
    in file order.

    A file with no content at all yields nothing; see :func:`_parse_rows`
    for the grammar.  This is the line-by-line reference that
    :func:`read_arrays` and :func:`iter_runs` are tested against.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from _parse_rows(fh, _ParseState())


def read_samples(path) -> list[tuple[int, float, float]]:
    return list(iter_samples(path))


def read_arrays(path):
    """The regressors and outputs of a CSV file as float arrays, in file order.

    Accepts and rejects exactly what :func:`iter_samples` does, without
    building a tuple per row.  A pipe is read once and its runs are held.
    Any other file is counted by :func:`_scan`, so that each column is
    allocated once (growing it run by run leaves freed blocks on the heap),
    then read again, or split between two processes (see
    :func:`_split_arrays`), with the same result.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        if fh.seekable():
            fd = fh.fileno()
            lines, cut, before, end = _scan(fh.buffer, os.fstat(fd).st_size)
            if cut is not None and can_split(path):
                index, comma, _ = os.pread(fd, 64, cut).partition(b",")
                if comma and index.isdigit():
                    return _split_arrays(fd, int(index), lines, cut, before, end)
            fh.seek(0)
            runs, size = _column_runs(fh), lines
        else:  # a pipe is read once, so its runs are held
            runs = list(_column_runs(fh))
            size = sum(phi_run.size for phi_run, _ in runs)
        columns = np.empty((2, size))
        n = _fill(columns, 0, runs)
    return columns[0, :n], columns[1, :n]


def _fill(columns: np.ndarray, n: int, runs) -> int:
    """Write ``runs`` into the two rows of ``columns`` from column ``n`` on;
    the column after the last one written."""
    for phi_run, y_run in runs:
        columns[0, n : n + phi_run.size] = phi_run
        columns[1, n : n + phi_run.size] = y_run
        n += phi_run.size
    return n


# The least file size worth reading in two processes.  The fork and the
# binary pass cost about 12 ms: in alternating runs on a 2-vCPU x86-64 VM
# (CHANGES.md), the split read took 1.1 to 1.7 times as long as one process
# at 2,500 to 5,000 rows (110 to 220 KB), about as long at 7,500, and 0.76
# to 0.88 times at 10,000 to 12,500 rows (440 to 550 KB).
_SPLIT_MIN_BYTES = 1 << 19


def can_split(path) -> bool:
    """Whether work on the file ``path`` may run in two processes: a regular
    file of at least ``_SPLIT_MIN_BYTES``, a second CPU to run a child, and
    no other thread, whose locks a fork could copy held.  It gates the split
    read and ``stream``'s forked fold, the two callers of :func:`beside`."""
    try:
        info = os.stat(path)
    except OSError:
        return False  # the reader names the error
    if not (stat.S_ISREG(info.st_mode) and info.st_size >= _SPLIT_MIN_BYTES):
        return False
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) > 1 and threading.active_count() == 1


T = TypeVar("T")


def beside(child: Callable[[], bool], parent: Callable[[], T]) -> tuple[T, bool]:
    """Run ``child()`` in a forked child while ``parent()`` runs here; the
    result of ``parent()``, and whether ``child()`` returned true.

    The child never returns into the caller's stack: every way out of it
    ends in ``os._exit``, which also skips the buffers and exit handlers it
    shares with the parent.  A warning raises in the child, so that only the
    parent writes to stderr.  If the fork fails, ``parent()`` runs alone and
    the child's part counts as not done.  If ``parent()`` raises, the child
    is killed and reaped first.
    """
    try:
        pid = os.fork()
    except OSError:
        return parent(), False
    if pid == 0:
        code = 1
        try:
            warnings.simplefilter("error")
            if child():
                code = 0
        finally:
            os._exit(code)
    try:
        result = parent()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        # Loaded only here, so that a fork which ends well loads no module.
        import signal

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return result, status == 0


class _Span:
    """The bytes ``start`` to ``end`` of the file ``fd`` as text, read with
    ``os.pread`` so that a forked child and its parent, which share the
    file offset, never move each other's; the bytes are known to be ASCII."""

    def __init__(self, fd: int, start: int, end: int) -> None:
        self.fd, self.at, self.end = fd, start, end

    def read(self, size: int) -> str:
        data = os.pread(self.fd, min(size, self.end - self.at), self.at)
        self.at += len(data)
        return data.decode("ascii")


def _scan(fh, size: int):
    """One binary pass over ``fh``: its line count, the cut just past the
    first newline from the middle byte on, the number of lines before the
    cut, and the number of bytes read.

    Each ``\\r`` counts as a line end too, so the count bounds the one the
    text reader makes and equals it in a file without ``\\r``.  The cut is
    None if the file holds a byte that is not ASCII or a ``\\r``, which the
    text reader would translate, or no newline from the middle byte on.
    """
    lines, cut, before, at, plain = 1, None, 0, 0, True
    middle = size // 2
    for block in iter(lambda: fh.read(_CHUNK_CHARS), b""):
        if b"\r" in block:
            lines += block.count(b"\r")
            plain = False
        plain = plain and block.isascii()
        if plain and cut is None and at + len(block) > middle:
            found = block.find(b"\n", max(middle - at, 0))
            if found >= 0:
                cut = at + found + 1
                before = lines + block.count(b"\n", 0, found)
        lines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == 10))
        at += len(block)
    return lines, cut if plain else None, before, at


def _split_arrays(fd: int, first: int, lines: int, cut: int, before: int, end: int):
    """:func:`read_arrays` of the file ``fd``, as :func:`_scan` found it,
    with the part from the cut on, whose first line starts with the index
    ``first``, parsed in a forked child.

    The child reads from the cut with :func:`_bulk_columns` alone, assuming
    the header read and the indices going on in order, and writes its rows
    into the shared columns, right after the rows of the lines before the
    cut.  The parent reads up to the cut through :func:`_column_runs`.  The
    child's rows stand only if every one of its runs was bulk and the
    parent's state at the cut is what the child assumed, with no row of the
    parent's more or fewer and none of its indices in the child's range;
    otherwise the parent reads on from the cut itself, so that the result,
    or the error, is the one a single process gives.
    """
    import mmap

    row = before - 1
    child_rows = lines - before - (os.pread(fd, 1, end - 1) == b"\n")
    columns = np.frombuffer(mmap.mmap(-1, 16 * lines)).reshape(2, lines)
    state = _ParseState()
    state.header_done, state.run_hi = True, first - 1

    def child() -> bool:
        n = row
        for text in _line_runs(_Span(fd, cut, end)):
            run = _bulk_columns(text, state)
            if run is None:
                return False
            n = _fill(columns, n, [run])
        return n == row + child_rows

    ours = _ParseState()
    n, done = beside(child, lambda: _fill(columns, 0, _column_runs(_Span(fd, 0, cut), ours)))
    last = first + child_rows - 1
    if (
        done
        and ours.header_done
        and n == row
        and ours.run_hi + 1 == first
        and not any(first <= k <= last for k in ours.seen)
    ):
        n += child_rows
    else:
        n = _fill(columns, n, _column_runs(_Span(fd, cut, end), ours))
    return columns[0, :n], columns[1, :n]


def iter_runs(path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The regressors and outputs of a CSV file as float arrays, a run of
    lines of about ``_CHUNK_CHARS`` characters at a time, in file order; a
    run may be empty.

    Accepts and rejects exactly what :func:`iter_samples` does, without
    building a tuple per row.  The rows before a malformed line come out,
    and then the error is raised.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from _column_runs(fh)


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _cell(fmt: str, value) -> str:
    """One value as a JSON (``fmt`` "json") or CSV cell: they differ only in
    None, null or nothing, and text, quoted or as it is."""
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value) if fmt == "json" else value
    raise TypeError(f"cannot emit value of type {type(value).__name__}")


def json_record(pairs: Sequence[tuple[str, object]]) -> str:
    """One JSON object per line, field order preserved."""
    body = ", ".join(f'"{key}": {_cell("json", value)}' for key, value in pairs)
    return "{" + body + "}"


def csv_row(values: Sequence[object]) -> str:
    return ",".join(_cell("csv", v) for v in values)


# Lines per write of write_table, about 8 KiB of them: a whole table as one
# string raised the peak memory of `stream` by 0.25 MiB.
_EMIT_ROWS = 64

# Cell templates by column kind: float, int, bool (fed as its text), and
# text printed as it is.
_CELLS = {"f": "%.17g", "d": "%d", "b": "%s", "s": "%s"}
_BOOL_TEXT = {True: "true", False: "false"}


def _row_template(fmt: str, header, kinds: str, nulls, prefix, suffix) -> str:
    """One ``%`` template for a whole line, newline included.  A null cell
    swallows its value with ``%.0s``, so every row feeds the template the
    same tuple."""
    null = ("null" if fmt == "json" else "") + "%.0s"
    cells = [null if key in nulls else _CELLS[kind] for key, kind in zip(header, kinds)]
    if fmt == "csv":
        return ",".join(cells + [_literal(_cell(fmt, value)) for _, value in suffix]) + "\n"
    fields = [_literal(f'"{key}": {_cell(fmt, value)}') for key, value in prefix]
    fields += [f'"{_literal(key)}": {cell}' for key, cell in zip(header, cells)]
    fields += [_literal(f'"{key}": {_cell(fmt, value)}') for key, value in suffix]
    return "{" + ", ".join(fields) + "}\n"


def _literal(text: str) -> str:
    return text.replace("%", "%%")


def write_table(out, fmt, header, kinds, columns, *, supported=None, nullable=(), prefix=(),
                suffix=(), with_header=True) -> None:
    """Write a table to ``out``: with ``fmt`` "csv" and ``with_header``, the
    header line, then one line per row, ``_EMIT_ROWS`` lines to a write.

    ``columns`` holds the cells column by column, and ``kinds`` one letter
    per column: ``f`` float, ``d`` int, ``b`` bool, ``s`` text printed as it
    is.  A row whose ``supported`` entry is false prints null in the
    ``nullable`` columns, whatever they hold; all rows are supported when
    ``supported`` is None.  JSON records lead with the ``prefix`` fields,
    CSV rows leave them out, and every line ends with the ``suffix`` fields,
    which hold the same value in every row.  Each line is one ``%`` format
    of its row.
    """
    if fmt == "csv" and with_header:
        out.write(",".join([*header, *(key for key, _ in suffix)]) + "\n")
    full = _row_template(fmt, header, kinds, (), prefix, suffix)
    rows = zip(*(
        [_BOOL_TEXT.get(value) for value in column] if kind == "b" else column
        for kind, column in zip(kinds, columns)
    ))
    if supported is None or all(supported):
        lines = map(full.__mod__, rows)
    else:
        null = _row_template(fmt, header, kinds, nullable, prefix, suffix)
        lines = ((null, full)[ok] % row for ok, row in zip(supported, rows))
    while text := "".join(itertools.islice(lines, _EMIT_ROWS)):
        out.write(text)


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
    return _even_grid("grid", lo, hi, count)


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
