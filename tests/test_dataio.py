import contextlib
import os
import threading
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rdwo import dataio
from rdwo.dataio import (
    EXPECTED_HEADER,
    InputFormatError,
    csv_row,
    format_float,
    iter_runs,
    iter_samples,
    json_record,
    parse_grid,
    parse_grid_list,
    read_arrays,
    read_samples,
    write_table,
)


class TestFormatFloat:
    def test_shortest_exact_form(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(21 / 13) == "1.6153846153846154"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip(self, value):
        assert float(format_float(value)) == value


class TestJsonRecord:
    def test_value_kinds(self):
        line = json_record(
            [("a", None), ("b", True), ("c", 3), ("d", 0.5), ("e", 'q"x')]
        )
        assert line == '{"a": null, "b": true, "c": 3, "d": 0.5, "e": "q\\"x"}'

    def test_preserves_order(self):
        assert json_record([("z", 1), ("a", 2)]).index('"z"') < json_record(
            [("z", 1), ("a", 2)]
        ).index('"a"')


class TestCsvRow:
    def test_none_becomes_empty_field(self):
        assert csv_row([1, None, 0.5]) == "1,,0.5"


class TestParseGrid:
    def test_linspace_form(self):
        assert parse_grid("0:1:3") == (0.0, 0.5, 1.0)

    def test_single_point(self):
        assert parse_grid("2.5:9:1") == (2.5,)

    @pytest.mark.parametrize("text", ["0:1", "0:1:0", "0:1:2.5", "a:b:3", ""])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    def test_list_form(self):
        assert parse_grid_list("1, -2,0.5") == (1.0, -2.0, 0.5)

    def test_list_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_grid_list("1,x")

    @pytest.mark.parametrize("text", ["0,,1.5", "0,1.5,", " ,0", ",0"])
    def test_list_rejects_an_empty_item(self, text):
        with pytest.raises(ValueError, match="empty item") as info:
            parse_grid_list(text)
        assert repr(text) in str(info.value)

    # float() and int() read "_" as a digit separator and take non-ASCII
    # digits and spaces; the CSV number grammar takes neither.
    @pytest.mark.parametrize("text", ["1_0", "0,1_0", "\uff11", "0,\u0661", "1\u00a0"])
    def test_list_follows_the_csv_number_grammar(self, text):
        with pytest.raises(ValueError, match="ASCII") as info:
            parse_grid_list(text)
        assert repr(text) in str(info.value)

    @pytest.mark.parametrize("text", ["0:1_0:1_1", "0:1:1_1", "0:\uff11:3", "\u0660:1:3"])
    def test_linspace_follows_the_csv_number_grammar(self, text):
        with pytest.raises(ValueError, match="ASCII") as info:
            parse_grid(text)
        assert repr(text) in str(info.value)

    def test_spaces_around_fields_stay_accepted(self):
        assert parse_grid(" 0 : 1 : 3 ") == (0.0, 0.5, 1.0)
        assert parse_grid_list(" 1 ,\t2 ") == (1.0, 2.0)


class TestIterSamples:
    @pytest.fixture()
    def make_file(self, tmp_path):
        def write(*lines):
            path = tmp_path / "data.csv"
            path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            return path

        return write

    def test_reads_valid_stream(self, make_file):
        path = make_file(EXPECTED_HEADER, "1,-0.5,1.0", "", "2,0.2,2.0", "  ")
        assert list(iter_samples(path)) == [(1, -0.5, 1.0), (2, 0.2, 2.0)]

    def test_header_required(self, make_file):
        with pytest.raises(InputFormatError, match="header"):
            list(iter_samples(make_file("1,0,0")))

    def test_wrong_field_count(self, make_file):
        with pytest.raises(InputFormatError, match="line 2"):
            list(iter_samples(make_file(EXPECTED_HEADER, "1,0")))

    def test_unparseable_number(self, make_file):
        with pytest.raises(InputFormatError, match="line 3"):
            list(iter_samples(make_file(EXPECTED_HEADER, "1,0,0", "2,zzz,0")))

    def test_non_finite_rejected(self, make_file):
        with pytest.raises(InputFormatError, match="line 2"):
            list(iter_samples(make_file(EXPECTED_HEADER, "1,nan,0")))

    def test_duplicate_index_rejected(self, make_file):
        with pytest.raises(InputFormatError, match="duplicate"):
            list(iter_samples(make_file(EXPECTED_HEADER, "1,0,0", "1,1,1")))

    @given(st.lists(st.integers(1, 12), max_size=14))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_duplicates_found_in_any_index_order(self, make_file, indices):
        path = make_file(EXPECTED_HEADER, *(f"{k},0.5,1.0" for k in indices))
        seen, first_repeat = set(), None
        for line_no, k in enumerate(indices, start=2):
            if k in seen:
                first_repeat = (line_no, k)
                break
            seen.add(k)
        if first_repeat is None:
            assert [k for k, _, _ in iter_samples(path)] == indices
        else:
            line_no, k = first_repeat
            with pytest.raises(InputFormatError) as exc:
                list(iter_samples(path))
            assert str(exc.value) == f"line {line_no}: duplicate sample index {k}"

    def test_empty_file_yields_nothing(self, make_file):
        assert list(iter_samples(make_file())) == []
        assert list(iter_samples(make_file(EXPECTED_HEADER))) == []

    def test_surrounding_whitespace_tolerated(self, make_file):
        path = make_file(f"  {EXPECTED_HEADER}", " 3 , 0.5 , 1.5 ")
        assert list(iter_samples(path)) == [(3, 0.5, 1.5)]

    def test_read_samples(self, make_file):
        assert read_samples(make_file(EXPECTED_HEADER, "1,0.0,1.0")) == [(1, 0.0, 1.0)]

    @pytest.mark.parametrize(
        "row",
        [
            "1_0,0.1,1.5",  # int() would read index 10
            "2,1_0.5,0",  # float() would read phi 10.5
            "3,0.5,1_0",
            "+4,0.5,1.0",
            "-5,0.5,1.0",
            "6.0,0.5,1.0",
            "\u0667,0.5,1.0",  # an Arabic-Indic seven
            "8,\uff11.5,1.0",  # a fullwidth one
            "9,0.5,1.0\u00a0",  # a trailing no-break space
        ],
    )
    def test_strict_field_grammar(self, make_file, row):
        path = make_file(EXPECTED_HEADER, row)
        for reader in (read_samples, read_arrays):
            with pytest.raises(InputFormatError, match="^line 2: "):
                reader(path)


class Forks:
    """``read_arrays`` with ``cpus`` as this process's CPU affinity and files
    of ``min_bytes`` or more split: the forks made, the exit statuses of the
    children reaped, and where each of the parent's reads of the file began
    (a read from the cut means the parent parsed the child's half itself)."""

    def __init__(self, mp, cpus=(0, 1), min_bytes=0):
        self.forks, self.statuses, self.starts = 0, [], []
        real_fork, real_waitpid, real_span = os.fork, os.waitpid, dataio._Span

        def fork():
            self.forks += 1
            return real_fork()

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            self.statuses.append(reaped[1])
            return reaped

        class Span(real_span):
            def __init__(span, fd, start, end):
                self.starts.append(start)
                super().__init__(fd, start, end)

        mp.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        mp.setattr(os, "fork", fork)
        mp.setattr(os, "waitpid", waitpid)
        mp.setattr(dataio, "_Span", Span)
        mp.setattr(dataio, "_SPLIT_MIN_BYTES", min_bytes)

    def check(self):
        """Every child was reaped, and none is left."""
        assert len(self.statuses) == self.forks
        assert_no_child()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def split_every_file():
    """Within the block, ``read_arrays`` splits every file the split can
    take at its middle; on leaving it, no child is left over."""
    with pytest.MonkeyPatch.context() as mp:
        forks = Forks(mp)
        yield forks
    forks.check()


@contextlib.contextmanager
def warnings_raised():
    """Within the block every warning raises: numpy's text reader, which the
    bulk reader runs, must warn no caller."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestReadArrays:
    @pytest.fixture()
    def path(self, tmp_path):
        return tmp_path / "data.csv"

    def test_values_in_file_order(self, path):
        path.write_text("k,phi,y\n3,0.5,1.5\n\n1,-0.25,2e-3\n", encoding="utf-8")
        phis, ys = read_arrays(path)
        assert phis.tolist() == [0.5, -0.25]
        assert ys.tolist() == [1.5, 0.002]

    def test_empty_file_gives_empty_arrays(self, path):
        path.write_text("", encoding="utf-8")
        phis, ys = read_arrays(path)
        assert phis.size == 0 and ys.size == 0

    FIELDS = st.sampled_from(
        ["1", "2", "07", "0", "-1", "+3", "1_0", " 4 ", "1e3", "0.5", "-2.25", "1_0.5",
         "2.5e-310", "1e400", "nan", "-inf", "x", "", "0x10", "\u0663", "\uff12"]
    )
    LINES = st.one_of(
        st.lists(FIELDS, min_size=1, max_size=4).map(",".join),
        st.sampled_from(["", "   ", EXPECTED_HEADER]),
    )

    @staticmethod
    def _outcome(read, path):
        try:
            with warnings_raised():
                return "ok", read(path)
        except InputFormatError as exc:
            return "error", str(exc)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.sampled_from([EXPECTED_HEADER, f" {EXPECTED_HEADER}", "k,phi", ""]),
        lines=st.lists(LINES, max_size=8),
    )
    def test_accepts_and_rejects_like_iter_samples(self, path, header, lines):
        # In one process, and again through the split.
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        want_kind, want = self._outcome(
            lambda p: [(phi, y) for _, phi, y in iter_samples(p)], path
        )
        outcomes = [self._outcome(read_arrays, path)]
        with split_every_file():
            outcomes.append(self._outcome(read_arrays, path))
        for kind, got in outcomes:
            assert kind == want_kind
            if kind == "ok":
                phis, ys = got
                assert list(zip(phis.tolist(), ys.tolist())) == want
            else:
                assert got == want

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.sampled_from([EXPECTED_HEADER, "k,phi", ""]),
        lines=st.lists(LINES, max_size=8),
    )
    def test_blocks_concatenate_to_read_arrays(self, path, header, lines):
        # The blocks are the runs of iter_runs.
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        kind, want = self._outcome(read_arrays, path)
        runs = []
        try:
            for phis, ys in iter_runs(path):
                runs.append((phis.tolist(), ys.tolist()))
        except InputFormatError as exc:
            assert kind == "error" and str(exc) == want
            return
        assert kind == "ok"
        assert sum((phis for phis, _ in runs), []) == want[0].tolist()
        assert sum((ys for _, ys in runs), []) == want[1].tolist()


def read_piped(path):
    """read_arrays of the bytes of ``path`` through a pipe, which a thread
    feeds until the reader stops."""
    read, write = os.pipe()

    def feed():
        try:
            os.write(write, path.read_bytes())
        except BrokenPipeError:
            pass  # the reader stopped at an error and closed the pipe
        finally:
            os.close(write)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return read_arrays(f"/dev/fd/{read}")
    finally:
        os.close(read)
        feeder.join(timeout=60)
        assert not feeder.is_alive()


def _ingest_outcomes(path):
    """What iter_samples, read_arrays on the file, iter_runs and read_arrays
    on a pipe make of one file, each its rows or its error, and the rows
    iter_samples and iter_runs gave before an error.  A ValueError outside
    the grammar, such as a decode error, is an outcome too, named by its
    type."""
    given = [], []

    def run(rows, iterate):
        try:
            with warnings_raised():
                for row in iterate():
                    rows.append(row)
        except InputFormatError as exc:
            return "error", str(exc)
        except ValueError as exc:
            return type(exc).__name__, str(exc)
        return "ok", rows

    def columns(read):
        return lambda: zip(*(column.tolist() for column in read(path)))

    reference = run(given[0], lambda: ((phi, y) for _, phi, y in iter_samples(path)))
    arrays = run([], columns(read_arrays))
    runs = run(given[1], lambda: (
        row for phis, ys in iter_runs(path) for row in zip(phis.tolist(), ys.tolist())
    ))
    piped = run([], columns(read_piped))
    return reference, arrays, runs, piped, given


class TestChunkedIngest:
    """read_arrays and iter_runs with runs of a few characters, so that
    files span many runs and rows straddle their ends; read_arrays in one
    process, again through the split, and through a pipe."""

    ROWS = [f"{k},{k / 8 - 3!r},{(-1) ** k * k / 7!r}" for k in range(1, 41)]

    @pytest.fixture(params=[1, 7, 64, 1 << 14])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", request.param)
        return request.param

    @pytest.fixture()
    def path(self, tmp_path):
        return tmp_path / "data.csv"

    def check(self, path, data: bytes):
        path.write_bytes(data)
        reference, arrays, runs, piped, (want, got) = _ingest_outcomes(path)
        assert arrays == reference and piped == reference
        with split_every_file():
            assert _ingest_outcomes(path)[1] == reference
        assert runs == reference and got == want
        return reference

    def test_rows_straddling_run_ends(self, chunk, path):
        kind, rows = self.check(path, "\n".join([EXPECTED_HEADER, *self.ROWS, ""]).encode())
        assert kind == "ok" and len(rows) == 40 and rows[-1] == (2.0, 40 / 7)

    def test_error_line_in_a_later_run(self, chunk, path):
        lines = [EXPECTED_HEADER, *self.ROWS[:30], "31,0.5", *self.ROWS[31:]]
        kind, message = self.check(path, ("\n".join(lines) + "\n").encode())
        assert (kind, message) == ("error", "line 32: expected 3 comma-separated fields, got 2")

    def test_bad_float_in_a_later_run(self, chunk, path):
        lines = [EXPECTED_HEADER, *self.ROWS[:25], "26,0x10,1", *self.ROWS[26:]]
        kind, message = self.check(path, ("\n".join(lines) + "\n").encode())
        assert kind == "error" and message.startswith("line 27: ")

    @pytest.mark.parametrize(
        "bad",
        [
            "3,1_0.5,0",  # float() would read phi 10.5
            "3,0.5,1_0",
            "3,nan,0",
            "3,0.5,-inf",
            "3,1e400,0",
            "3,0x10,0",
            "3,,0",
            "3,0.5,0,",
            "+3,0.5,0",
            "3,\u00bd,0",
            # An index numpy could read through a float.
            "3e0,0.5,0",
            "3.0,0.5,0",
            "3.,0.5,0",
            # Four fields, then two: the commas balance over the two lines,
            # and the tokens 3 and 4 still fall where indices belong.
            "3,0.5,0.5,4\n0.5,0.5",
            "3,0.5\n0.5,0.5,4,0.5,0.5",
        ],
    )
    def test_rows_in_index_order_keep_the_grammar(self, chunk, path, bad):
        # The rows after the bad ones go on with the next free index.
        rows = [*self.ROWS[:2], bad, *self.ROWS[2 + bad.count("\n") + 1 :]]
        kind, message = self.check(path, "\n".join([EXPECTED_HEADER, *rows, ""]).encode())
        assert kind == "error" and message.startswith("line 4: ")
        index = bad.partition(",")[0]
        if not index.isdigit():
            assert message == f"line 4: sample index must be decimal digits, got {index!r}"

    def test_leading_zeros_in_an_index(self, chunk, path):
        rows = [*self.ROWS[:2], "003,0.5,1.5", *self.ROWS[3:]]
        kind, rows = self.check(path, "\n".join([EXPECTED_HEADER, *rows, ""]).encode())
        assert kind == "ok" and rows[2] == (0.5, 1.5)

    def test_crlf_line_endings(self, chunk, path):
        kind, rows = self.check(path, "\r\n".join([EXPECTED_HEADER, *self.ROWS, ""]).encode())
        assert kind == "ok" and len(rows) == 40

    def test_lone_cr_line_endings(self, chunk, path):
        # The scan counts each \r as a line end, as text mode reads it, and
        # gives no cut, so even a forced split reads in one process.
        path.write_bytes("\r".join([EXPECTED_HEADER, *self.ROWS, ""]).encode())
        with open(path, "rb") as fh:
            assert dataio._scan(fh, path.stat().st_size)[:2] == (42, None)
        kind, rows = self.check(path, path.read_bytes())
        assert kind == "ok" and len(rows) == 40
        with split_every_file() as forks:
            phis, _ = read_arrays(path)
        assert forks.forks == 0 and phis.size == 40

    def with_undecodable_byte(self, gap, bad="2,abc,2"):
        """The header, the rows 1 and ``bad``, rows up to at least ``gap``
        bytes past ``bad``'s line, then a row whose ``y`` holds the byte
        0xff, and one row more."""
        lines = [EXPECTED_HEADER, self.ROWS[0], bad]
        k, size = 3, 0
        while size < gap:
            lines.append(f"{k},0.5,{k}")
            size += len(lines[-1]) + 1
            k += 1
        text = "\n".join(lines) + f"\n{k},0.5,1"
        return text.encode() + b"\xff" + f"\n{k + 1},0.5,1\n".encode()

    # Where the byte lies after the bad row: in the same run, or two runs on.
    @pytest.mark.parametrize("runs", [0, 2])
    def test_an_undecodable_byte_after_a_bad_row(self, chunk, path, runs):
        # Every reader names the bad row, wherever it decodes the byte.
        kind, message = self.check(path, self.with_undecodable_byte(runs * chunk))
        assert (kind, message) == ("error", "line 3: could not convert string to float: 'abc'")

    def test_an_undecodable_byte_alone(self, chunk, path):
        data = self.with_undecodable_byte(100, bad=self.ROWS[1])
        kind, message = self.check(path, data)
        line = 1 + data.count(b"\n", 0, data.index(b"\xff"))
        assert (kind, message) == (
            "error", f"line {line}: fields may hold only ASCII characters and no '_'"
        )

    def test_an_undecodable_byte_in_the_header(self, chunk, path):
        data = "\n".join([EXPECTED_HEADER, *self.ROWS, ""]).encode()
        kind, message = self.check(path, data.replace(b"\n", b"\xff\n", 1))
        assert (kind, message) == (
            "error", "line 1: expected header 'k,phi,y', got 'k,phi,y\\udcff'"
        )

    def test_no_trailing_newline(self, chunk, path):
        kind, rows = self.check(path, "\n".join([EXPECTED_HEADER, *self.ROWS]).encode())
        assert kind == "ok" and len(rows) == 40

    def test_blank_and_padded_lines_mid_file(self, chunk, path):
        lines = [EXPECTED_HEADER, *self.ROWS[:10], "", "   ", f" {self.ROWS[10]} ", *self.ROWS[11:]]
        kind, rows = self.check(path, ("\n".join(lines) + "\n").encode())
        assert kind == "ok" and len(rows) == 40

    def test_out_of_order_indices(self, chunk, path):
        lines = [EXPECTED_HEADER, *self.ROWS[20:], *self.ROWS[:20]]
        kind, rows = self.check(path, ("\n".join(lines) + "\n").encode())
        assert kind == "ok" and rows[0] == (21 / 8 - 3, -21 / 7)

    def test_duplicate_index_in_a_later_run(self, chunk, path):
        lines = [EXPECTED_HEADER, *self.ROWS[:35], "12,0.5,1.5", *self.ROWS[35:]]
        kind, message = self.check(path, ("\n".join(lines) + "\n").encode())
        assert (kind, message) == ("error", "line 37: duplicate sample index 12")

    def test_index_reappearing_after_a_gap(self, chunk, path):
        # 50 is set aside while 1..49 run in order, so the bulk check must
        # look at the set as well as at the run.
        more = [f"{k},0.5,{k}" for k in range(41, 61)]
        lines = [EXPECTED_HEADER, *self.ROWS[:10], "50,0,0", *self.ROWS[10:], *more]
        kind, message = self.check(path, ("\n".join(lines) + "\n").encode())
        assert (kind, message) == ("error", "line 52: duplicate sample index 50")

    def test_indices_at_the_int64_edge(self, chunk, path):
        # Past 2**63 - 1 the bulk reader leaves the run to the line parser:
        # np.arange would give float64, and float64 2**63 equals the int64
        # index 2**63 - 1.
        data = b"k,phi,y\n9223372036854775807,0.5,1\n9223372036854775807,0.5,2\n"
        kind, message = self.check(path, data)
        assert (kind, message) == ("error", "line 3: duplicate sample index 9223372036854775807")

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        chunk_chars=st.integers(1, 40),
        lines=st.lists(TestReadArrays.LINES, max_size=12),
    )
    def test_any_run_length_agrees_with_iter_samples(self, path, chunk_chars, lines):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
            self.check(path, "\n".join([EXPECTED_HEADER, *lines]).encode())


def at_the_cut(before, after):
    """The bytes of a file of the header, ``before`` and ``after``, which the
    split cuts between ``before`` and ``after``: zeros are appended to the
    ``phi`` field of the first line of ``before`` or of the last of ``after``
    until the first newline from the middle byte on ends ``before``."""
    before, after = list(before), list(after)
    for _ in range(1000):
        head = ("\n".join([EXPECTED_HEADER, *before]) + "\n").encode()
        data = head + ("\n".join(after) + "\n").encode()
        cut = data.index(b"\n", len(data) // 2) + 1
        if cut == len(head):
            return data
        part, i = (before, 0) if cut > len(head) else (after, -1)
        k, phi, y = part[i].split(",")
        part[i] = f"{k},{phi}0,{y}"
    raise AssertionError("no padding puts the cut between the two parts")


class TestSplitRead:
    """read_arrays with the file's second half parsed by a forked child: the
    arrays or the error of one process, whatever lies at the cut, and no
    child left over."""

    ROWS = TestChunkedIngest.ROWS

    @pytest.fixture()
    def path(self, tmp_path):
        return tmp_path / "data.csv"

    def outcome(self, path, **forced):
        """What read_arrays makes of ``path`` in one process and in two; the
        forks and statuses of the second."""
        want = TestReadArrays._outcome(read_arrays, path)
        with pytest.MonkeyPatch.context() as mp:
            forks = Forks(mp, **forced)
            got = TestReadArrays._outcome(read_arrays, path)
        forks.check()
        reference = TestReadArrays._outcome(
            lambda p: [(phi, y) for _, phi, y in iter_samples(p)], path
        )
        if want[0] == "ok":
            assert list(zip(*(column.tolist() for column in want[1]))) == reference[1]
            assert got[0] == "ok"
            assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
        else:
            assert got == want == reference
        return want, forks

    # The line after the cut, in place of index 21 or before it, and the
    # outcome: a line that does not start with a decimal index is not forked
    # for, and a child that meets a line the bulk reader refuses fails, so
    # the parent reads on from the cut.
    SEAMS = {
        "blank": ("", "ok", 0),
        "padded-left": (" 21,0.5,1.5", "ok", 0),
        "padded-right": ("21,0.5,1.5 ", "ok", 1),
        "bad-float": ("21,0x10,1.5", "error", 1),
        "leading-zeros": ("021,0.5,1.5", "ok", 1),
    }

    @pytest.mark.parametrize("line, kind, forks", SEAMS.values(), ids=SEAMS)
    def test_a_line_just_after_the_cut(self, path, line, kind, forks):
        after = [line, *self.ROWS[21:]] if line.strip() else [line, *self.ROWS[20:]]
        path.write_bytes(at_the_cut(self.ROWS[:20], after))
        (got, _), made = self.outcome(path)
        assert got == kind and made.forks == forks
        if forks:
            assert made.statuses[0] != 0
            assert made.starts == [0, path.read_bytes().index(line.encode())]

    def test_halves_that_continue_are_taken_as_the_child_read_them(self, path):
        data = at_the_cut(self.ROWS[:20], self.ROWS[20:])
        path.write_bytes(data)
        (kind, rows), made = self.outcome(path)
        assert kind == "ok" and rows[0].size == 40
        assert (made.forks, made.statuses, made.starts) == (1, [0], [0])

    def test_a_cut_right_after_the_header(self, path):
        path.write_bytes(b"k,phi,y\n1,0,2\n")
        with open(path, "rb") as fh:
            assert dataio._scan(fh, 14)[1:3] == (8, 1)
        (kind, rows), made = self.outcome(path)
        assert kind == "ok" and rows[0].tolist() == [0.0] and rows[1].tolist() == [2.0]
        assert (made.forks, made.statuses, made.starts) == (1, [0], [0])

    def test_no_header_before_the_cut(self, path):
        # The parent's half is one blank line: no row, and the child's first
        # index goes on from the parent's, but the header is missing.
        path.write_bytes(b" " * 20 + b"\n1,0,2\n")
        (kind, message), made = self.outcome(path)
        assert (kind, message) == ("error", "line 2: expected header 'k,phi,y', got '1,0,2'")
        assert (made.forks, made.statuses, made.starts) == (1, [0], [0, 21])

    def test_a_newline_as_the_last_byte_past_the_middle(self, path):
        # The child's half would be empty: no fork.
        path.write_bytes(b"k,phi,y\n1,0.5000,2\n")
        (kind, rows), made = self.outcome(path)
        assert kind == "ok" and made.forks == 0

    def test_a_bad_line_in_each_half(self, path):
        before = [*self.ROWS[:10], "11,0.5", *self.ROWS[11:20]]
        after = [*self.ROWS[20:30], "31,x,1", *self.ROWS[31:]]
        path.write_bytes(at_the_cut(before, after))
        (kind, message), made = self.outcome(path)
        assert (kind, message) == ("error", "line 12: expected 3 comma-separated fields, got 2")
        assert made.forks == 1 and made.statuses[0] != 0 and made.starts == [0]

    def test_indices_out_of_order_across_the_cut(self, path):
        # Each half runs in order, but the child's does not go on from the
        # parent's: the parent reads it again.
        path.write_bytes(at_the_cut(self.ROWS[20:], self.ROWS[:20]))
        (kind, rows), made = self.outcome(path)
        assert kind == "ok" and rows[0][0] == 21 / 8 - 3
        assert made.forks == 1 and made.statuses == [0] and len(made.starts) == 2

    def test_a_duplicate_first_seen_by_the_parent(self, path):
        # 35 is set aside in the parent's half; the child's run 21..40 holds it.
        before = [*self.ROWS[:10], "35,0.5,1.5", *self.ROWS[10:20]]
        path.write_bytes(at_the_cut(before, self.ROWS[20:]))
        (kind, message), made = self.outcome(path)
        assert (kind, message) == ("error", "line 37: duplicate sample index 35")
        assert made.forks == 1 and made.statuses == [0] and len(made.starts) == 2

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_short_runs_on_both_sides_of_the_cut(self, path, chunk, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
        path.write_bytes(at_the_cut(self.ROWS[:20], self.ROWS[20:]))
        (kind, rows), made = self.outcome(path)
        assert kind == "ok" and rows[0].size == 40
        assert (made.forks, made.statuses, made.starts) == (1, [0], [0])

    # The file holds four blocks of _CHUNK_CHARS bytes and 123 more, so its
    # middle byte is 61 bytes into the third block.  The first newline from
    # there on is the first byte of the fourth block, the last byte of the
    # third, or, in a file with no trailing newline, 10 bytes past the middle.
    CHUNK = dataio._CHUNK_CHARS
    SCAN_CUTS = {
        "first-byte-of-a-block": (3 * CHUNK, True),
        "last-byte-of-a-block": (3 * CHUNK - 1, True),
        "no-trailing-newline": (2 * CHUNK + 71, False),
    }

    @pytest.mark.parametrize("newline, trailing", SCAN_CUTS.values(), ids=SCAN_CUTS)
    def test_scan_counts_as_bytes_count_does(self, path, newline, trailing):
        data = bytearray(b"x" * (4 * self.CHUNK + 123))
        middle = len(data) // 2
        for at in [*range(50, middle, 97), newline, *range(newline + 97, len(data), 97)]:
            data[at] = ord("\n")
        data[-1] = ord("\n") if trailing else ord("x")
        path.write_bytes(data)
        data = bytes(data)
        assert data.find(b"\n", middle) == newline
        want = (1 + data.count(b"\n"), newline + 1, 1 + data.count(b"\n", 0, newline), len(data))
        with open(path, "rb", buffering=0) as fh:
            got = dataio._scan(fh, len(data))
        assert got == want and all(type(value) is int for value in got)


class TestSplitGate:
    """The inputs read_arrays keeps in one process, and its faults."""

    ROWS = TestChunkedIngest.ROWS

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(at_the_cut(self.ROWS[:20], self.ROWS[20:]))
        return path

    def forks_for(self, path, *, want=None, **forced):
        want = read_arrays(path) if want is None else want
        with pytest.MonkeyPatch.context() as mp:
            forks = Forks(mp, **forced)
            got = read_arrays(path)
        forks.check()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        return forks.forks

    def test_a_pipe(self, path):
        read, write = os.pipe()
        try:
            os.write(write, path.read_bytes())
            os.close(write)
            assert self.forks_for(f"/dev/fd/{read}", want=read_arrays(path)) == 0
        finally:
            os.close(read)

    def test_one_cpu(self, path):
        assert self.forks_for(path, cpus=(0,)) == 0

    def test_a_carriage_return(self, path):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 3))
        assert self.forks_for(path) == 0

    def test_not_ascii(self, path):
        path.write_bytes(path.read_bytes().replace(b"\n", "\u00a0\n".encode(), 1))
        assert self.forks_for(path) == 0

    def test_the_least_size(self, path):
        size = path.stat().st_size
        assert self.forks_for(path, min_bytes=size + 1) == 0
        assert self.forks_for(path, min_bytes=size) == 1

    def test_another_thread(self, path):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert self.forks_for(path) == 0
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_a_failed_fork_reads_in_process(self, path, monkeypatch):
        want = read_arrays(path)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(dataio, "_SPLIT_MIN_BYTES", 0)
        got = read_arrays(path)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_an_error_of_the_parent_reaps_the_child(self, path, monkeypatch):
        def fails(fh, state=None):
            raise MemoryError("the parent's half failed")
            yield

        with pytest.MonkeyPatch.context() as mp:
            forks = Forks(mp)
            mp.setattr(dataio, "_column_runs", fails)
            with pytest.raises(MemoryError, match="^the parent's half failed$"):
                read_arrays(path)
        assert forks.forks == 1
        forks.check()


DECIMALS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", max_size=40),
    st.one_of(st.just(""), st.text("0123456789", max_size=40).map(".{}".format)),
    st.one_of(
        st.just(""),
        st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                  st.integers(0, 400)),
    ),
)
SPECIALS = st.sampled_from(
    ["inf", "-Inf", "+INF", "infinity", "-Infinity", "iNfInItY", "nan", "-NaN", "+nan",
     "NAN", "nan(1)", "nan(123)", "infinit", "1e-324", "2.4703282292062328e-324", "4.9e-324",
     "1e309", "1e-400", "-0", "-0.0", "0x10", "1d5", "1.0j", "1\x00", "1_0", "", ".", "e5",
     "1e", "--1"]
)


class TestNumpyFloatParse:
    """The bulk reader converts its float fields with numpy's text reader;
    this holds it to Python's float(), the line parser's conversion."""

    @given(body=st.one_of(DECIMALS, SPECIALS))
    def test_numpy_reads_like_float(self, body):
        # The bulk reader may refuse a row float() reads, which then goes to
        # the line parser, but what it takes it takes bit for bit.
        state = dataio._ParseState()
        state.header_done = True
        with warnings_raised():
            got = dataio._bulk_columns(f"1,{body},0", state)
        try:
            want = float(body)
        except ValueError:
            assert got is None
            return
        if got is not None:
            assert got[0].tobytes() == np.float64(want).tobytes()


EDGE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 123456789.12345678]
    ),
)


def table_texts(fmt, header, kinds, columns, **rows):
    """A table's texts as write_table writes them after any CSV header."""
    texts = []
    write_table(SimpleNamespace(write=texts.append), fmt, header, kinds, columns,
                with_header=False, **rows)
    return texts


class TestFormatRows:
    """The row templates print exactly what json_record and csv_row print."""

    @given(
        rows=st.lists(
            st.tuples(EDGE_FLOATS, EDGE_FLOATS, st.integers(-(2**62), 2**62), st.booleans(),
                      EDGE_FLOATS, st.booleans()),
            max_size=12,
        ),
        support_sum=st.booleans(),
        n_seen=st.one_of(st.none(), st.integers(0, 2**62)),
        prefix=st.sampled_from([(), (("type", "query"),)]),
    )
    def test_matches_json_record_and_csv_row(self, rows, support_sum, n_seen, prefix):
        header = ["x", "estimate", "active_count", "ok", "support_sum"]
        kinds = "ffdbf"
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(6)]
        supported = columns.pop()
        if not support_sum:
            header, kinds, columns = header[:4], kinds[:4], columns[:4]
        if n_seen is not None:
            header, kinds = header + ["n_seen"], kinds + "d"
            columns.append([n_seen] * len(rows))
        nullable = ("estimate", "ok", "support_sum")
        cells = [
            [None if key in nullable and not ok else value for key, value in zip(header, row)]
            for ok, row in zip(supported, zip(*columns))
        ]
        for fmt in ("json", "csv"):
            want = "".join(
                (json_record([*prefix, *zip(header, row)]) if fmt == "json" else csv_row(row))
                + "\n"
                for row in cells
            )
            got = "".join(
                table_texts(
                    fmt, header, kinds, columns, supported=supported, nullable=nullable,
                    prefix=prefix,
                )
            )
            assert got == want

    @given(
        values=st.lists(st.tuples(EDGE_FLOATS, st.integers(-(2**62), 2**62), st.booleans()),
                        max_size=3 * dataio._EMIT_ROWS),
        n_seen=st.integers(0, 2**62),
    )
    def test_text_cells_and_a_suffix(self, values, n_seen):
        # a text cell prints as it is; the suffix ends every line in both formats
        header, nullable = ["x", "n"], ("n",)
        xs, ns, oks = (list(column) for column in zip(*values)) if values else ([], [], [])
        texts = [format_float(x) for x in xs]
        for fmt in ("json", "csv"):
            want = [
                (json_record([("x", x), ("n", n if ok else None), ("n_seen", n_seen)])
                 if fmt == "json" else csv_row([x, n if ok else None, n_seen])) + "\n"
                for x, n, ok in values
            ]
            got = table_texts(fmt, header, "sd", [texts, ns], supported=oks,
                              nullable=nullable, suffix=[("n_seen", n_seen)])
            assert "".join(got) == "".join(want)
            assert [text.count("\n") for text in got] == [
                len(want[start : start + dataio._EMIT_ROWS])
                for start in range(0, len(want), dataio._EMIT_ROWS)
            ]

    def test_all_supported_without_a_mask(self):
        text = "".join(table_texts("json", ["n", "ok"], "db", [[1, 2], [True, False]]))
        assert text == '{"n": 1, "ok": true}\n{"n": 2, "ok": false}\n'

    def test_long_tables_come_in_texts_of_whole_lines(self):
        size = dataio._EMIT_ROWS
        texts = table_texts("csv", ["n"], "d", [range(2 * size + 5)])
        assert [text.count("\n") for text in texts] == [size, size, 5]
        assert "".join(texts) == "".join(f"{n}\n" for n in range(2 * size + 5))

    def test_percent_in_a_key_is_literal(self):
        assert "".join(table_texts("json", ["a%d"], "d", [[7]])) == '{"a%d": 7}\n'
