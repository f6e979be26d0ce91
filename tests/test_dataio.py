import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rdwo.dataio import (
    EXPECTED_HEADER,
    InputFormatError,
    csv_row,
    format_float,
    iter_samples,
    json_record,
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
