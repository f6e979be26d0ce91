import math
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
    format_heads,
    format_rows,
    iter_blocks,
    iter_samples,
    join_lines,
    json_record,
    line_tail,
    parse_grid,
    parse_grid_list,
    read_arrays,
    read_samples,
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
        samples = list(iter_samples(path))
        assert [s.index for s in samples] == [1, 2]
        assert samples[0].phi == -0.5
        assert samples[1].y == 2.0

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
            assert [s.index for s in iter_samples(path)] == indices
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
        samples = list(iter_samples(path))
        assert samples[0].index == 3
        assert samples[0].phi == 0.5

    def test_read_samples(self, make_file):
        samples = read_samples(make_file(EXPECTED_HEADER, "1,0.0,1.0"))
        assert len(samples) == 1 and samples[0].y == 1.0

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
            return "ok", read(path)
        except InputFormatError as exc:
            return "error", str(exc)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.sampled_from([EXPECTED_HEADER, f" {EXPECTED_HEADER}", "k,phi", ""]),
        lines=st.lists(LINES, max_size=8),
    )
    def test_accepts_and_rejects_like_iter_samples(self, path, header, lines):
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        kind, got = self._outcome(read_arrays, path)
        want_kind, want = self._outcome(
            lambda p: [(s.phi, s.y) for s in iter_samples(p)], path
        )
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
        size=st.integers(1, 4),
    )
    def test_blocks_concatenate_to_read_arrays(self, path, header, lines, size):
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        kind, want = self._outcome(read_arrays, path)
        blocks = []
        try:
            for phis, ys in iter_blocks(path, size):
                blocks.append((phis.tolist(), ys.tolist()))
        except InputFormatError as exc:
            assert kind == "error" and str(exc) == want
            assert all(len(phis) == size for phis, _ in blocks)
            return
        assert kind == "ok"
        assert all(len(phis) == size for phis, _ in blocks[:-1])
        assert all(0 < len(phis) <= size for phis, _ in blocks)
        assert sum((phis for phis, _ in blocks), []) == want[0].tolist()
        assert sum((ys for _, ys in blocks), []) == want[1].tolist()


def _ingest_outcomes(path, size):
    """What iter_samples, read_arrays and iter_blocks make of one file."""

    def run(read):
        try:
            return "ok", read()
        except InputFormatError as exc:
            return "error", str(exc)

    reference = run(lambda: [(s.phi, s.y) for s in iter_samples(path)])
    arrays = run(lambda: list(zip(*(column.tolist() for column in read_arrays(path)))))
    blocks = []

    def read_blocks():
        for phis, ys in iter_blocks(path, size):
            blocks.append(len(phis))
            yield from zip(phis.tolist(), ys.tolist())

    return reference, arrays, run(lambda: list(read_blocks())), blocks


class TestChunkedIngest:
    """read_arrays and iter_blocks with runs of a few characters, so that
    files span many runs and rows straddle their ends."""

    ROWS = [f"{k},{k / 8 - 3!r},{(-1) ** k * k / 7!r}" for k in range(1, 41)]

    @pytest.fixture(params=[1, 7, 64, 1 << 14])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", request.param)
        return request.param

    @pytest.fixture()
    def path(self, tmp_path):
        return tmp_path / "data.csv"

    def check(self, path, data: bytes, *, size=3):
        path.write_bytes(data)
        reference, arrays, blocks, sizes = _ingest_outcomes(path, size)
        assert arrays == reference
        if reference[0] == "ok":
            assert blocks == reference
            assert all(n == size for n in sizes[:-1])
        else:
            assert blocks[0] == "error" and blocks[1] == reference[1]
            assert all(n == size for n in sizes)
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

    def test_leading_zeros_in_an_index(self, chunk, path):
        rows = [*self.ROWS[:2], "003,0.5,1.5", *self.ROWS[3:]]
        kind, rows = self.check(path, "\n".join([EXPECTED_HEADER, *rows, ""]).encode())
        assert kind == "ok" and rows[2] == (0.5, 1.5)

    def test_crlf_line_endings(self, chunk, path):
        kind, rows = self.check(path, "\r\n".join([EXPECTED_HEADER, *self.ROWS, ""]).encode())
        assert kind == "ok" and len(rows) == 40

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

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        chunk_chars=st.integers(1, 40),
        lines=st.lists(TestReadArrays.LINES, max_size=12),
        size=st.integers(1, 4),
    )
    def test_any_run_length_agrees_with_iter_samples(self, path, chunk_chars, lines, size):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
            self.check(path, "\n".join([EXPECTED_HEADER, *lines]).encode(), size=size)


SPACES = st.sampled_from(["", " ", "  ", "\t"])
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
     "NAN", "nan(1)", "infinit", "1e-324", "2.4703282292062328e-324", "4.9e-324", "1e309",
     "0x10", "1_0", "", ".", "e5", "1e", "--1"]
)


class TestNumpyFloatParse:
    """The bulk reader converts its float fields with numpy; this holds it to
    Python's float(), the line parser's conversion."""

    @staticmethod
    def _parse(convert, text):
        try:
            return convert(text)
        except ValueError:
            return "error"

    @given(pad_left=SPACES, body=st.one_of(DECIMALS, SPECIALS), pad_right=SPACES)
    def test_numpy_reads_like_float(self, pad_left, body, pad_right):
        text = pad_left + body + pad_right
        want = self._parse(float, text)
        got = self._parse(lambda s: float(np.array([s], dtype=float)[0]), text)
        if want == "error" or got == "error":
            assert got == want
        elif math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


EDGE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 123456789.12345678]
    ),
)


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
                format_rows(
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
            got = list(format_rows(fmt, header, "sd", [texts, ns], supported=oks,
                                   nullable=nullable, suffix=[("n_seen", n_seen)]))
            assert "".join(got) == "".join(want)
            assert [text.count("\n") for text in got] == [
                len(want[start : start + dataio._EMIT_ROWS])
                for start in range(0, len(want), dataio._EMIT_ROWS)
            ]
            heads = format_heads(fmt, header, "sd", [texts, ns], supported=oks,
                                 nullable=nullable)
            assert list(join_lines(heads, line_tail(fmt, [("n_seen", n_seen)]))) == got

    def test_all_supported_without_a_mask(self):
        text = "".join(format_rows("json", ["n", "ok"], "db", [[1, 2], [True, False]]))
        assert text == '{"n": 1, "ok": true}\n{"n": 2, "ok": false}\n'

    def test_long_tables_come_in_texts_of_whole_lines(self):
        size = dataio._EMIT_ROWS
        texts = list(format_rows("csv", ["n"], "d", [range(2 * size + 5)]))
        assert [text.count("\n") for text in texts] == [size, size, 5]
        assert "".join(texts) == "".join(f"{n}\n" for n in range(2 * size + 5))

    def test_percent_in_a_key_is_literal(self):
        assert "".join(format_rows("json", ["a%d"], "d", [[7]])) == '{"a%d": 7}\n'
