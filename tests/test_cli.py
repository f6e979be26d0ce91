import dataclasses
import errno
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rdwo import cli, dataio
from rdwo.cli import MODE_AGREEMENT_RTOL, main
from rdwo.core import EstimatorConfig, grid_solve
from rdwo.dataio import csv_row, json_record, read_arrays
from rdwo.simulate import load_spec, max_relative_deviation, run_experiment, stream_estimates
from rdwo.streaming import StreamingGrid

REPO = Path(__file__).resolve().parents[1]
HAND_ESTIMATE = 21 / 13
HAND_OPTIMUM = 0.9433981132056605


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


@pytest.fixture()
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("k,phi,y\n1,-0.5,1\n2,0.2,2\n3,2.0,100\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def sim_spec(tmp_path):
    spec = {
        "function": {"kind": "sine", "amplitude": 1.0, "frequency": 1.0},
        "delta": 0.5,
        "l1": 1.0,
        "input_range": [-3.0, 3.0],
        "noise_sigma": 0.1,
        "n_samples": 600,
        "seed": 7,
        "query_grid": {"min": -2.5, "max": 2.5, "count": 9},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


class TestFit:
    def test_json_output(self, capsys, tiny_csv):
        code, out, err = run_cli(
            capsys, "fit", "--input", tiny_csv, "--delta", "1.0", "--grid-list", "0"
        )
        assert code == 0 and err == ""
        (record,) = json_lines(out)
        assert record["x"] == 0.0
        assert math.isclose(record["estimate"], HAND_ESTIMATE, rel_tol=1e-12)
        assert record["active_count"] == 2
        assert math.isclose(record["objective"], HAND_OPTIMUM, rel_tol=1e-12)

    def test_csv_output(self, capsys, tiny_csv):
        code, out, _ = run_cli(
            capsys,
            "fit", "--input", tiny_csv, "--delta", "1.0",
            "--grid-list", "0", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "x,estimate,active_count,objective"
        fields = row.split(",")
        assert float(fields[0]) == 0.0
        assert math.isclose(float(fields[1]), HAND_ESTIMATE, rel_tol=1e-12)
        assert fields[2] == "2"

    def test_no_support_emits_null(self, capsys, tiny_csv):
        code, out, _ = run_cli(
            capsys, "fit", "--input", tiny_csv, "--delta", "1.0", "--grid-list", "50"
        )
        assert code == 0
        (record,) = json_lines(out)
        assert record["estimate"] is None
        assert record["objective"] is None
        assert record["active_count"] == 0

    def test_no_support_csv_field_is_empty(self, capsys, tiny_csv):
        code, out, _ = run_cli(
            capsys,
            "fit", "--input", tiny_csv, "--delta", "1.0",
            "--grid-list", "50", "--format", "csv",
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.split(",")[1] == ""

    def test_diagnostics_fields(self, capsys, tiny_csv):
        code, out, _ = run_cli(
            capsys,
            "fit", "--input", tiny_csv, "--delta", "1.0",
            "--grid-list", "0", "--diagnostics",
        )
        assert code == 0
        (record,) = json_lines(out)
        assert math.isclose(record["support_sum"], 1.3, rel_tol=1e-15)
        assert record["n_seen"] == 3

    def test_reruns_are_byte_identical(self, capsys, tiny_csv):
        # values starting with "-" need the --flag=value spelling
        argv = ("fit", "--input", tiny_csv, "--delta", "0.9", "--grid=-1:2:7")
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_agrees_with_stream(self, capsys, tiny_csv):
        common = ("--input", tiny_csv, "--delta", "1.0", "--grid=-1:2.5:13")
        code, fit_out, _ = run_cli(capsys, "fit", *common)
        assert code == 0
        code, stream_out, _ = run_cli(capsys, "stream", *common)
        assert code == 0
        fit_records = json_lines(fit_out)
        stream_records = json_lines(stream_out)
        assert len(fit_records) == len(stream_records) == 13
        for a, b in zip(fit_records, stream_records):
            assert a["x"] == b["x"]
            assert a["active_count"] == b["active_count"]
            if a["estimate"] is None:
                assert b["estimate"] is None
            else:
                assert math.isclose(a["estimate"], b["estimate"], rel_tol=1e-10)


class TestStream:
    def test_emit_every_blocks(self, capsys, tiny_csv):
        code, out, _ = run_cli(
            capsys,
            "stream", "--input", tiny_csv, "--delta", "1.0",
            "--grid-list", "0", "--emit-every", "1",
        )
        assert code == 0
        records = json_lines(out)
        # one block per ingested sample plus the final state
        assert [r["n_seen"] for r in records] == [1, 2, 3, 3]
        assert math.isclose(records[-1]["estimate"], HAND_ESTIMATE, rel_tol=1e-12)
        assert records[0]["estimate"] == 1.0

    def test_emit_every_csv_has_single_header(self, capsys, tiny_csv):
        code, out, _ = run_cli(
            capsys,
            "stream", "--input", tiny_csv, "--delta", "1.0",
            "--grid-list", "0", "--emit-every", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,estimate,active_count,objective,n_seen"
        assert len(lines) == 5
        assert not any(line.startswith("x,") for line in lines[1:])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_emit_every_builds_each_template_once(self, capsys, monkeypatch, fmt):
        built = []
        original = dataio._row_template

        def spy(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(dataio, "_row_template", spy)
        dataio._templates.cache_clear()
        code, out, _ = run_cli(
            capsys,
            "stream", "--input", str(REPO / "demos" / "data" / "tiny.csv"), "--delta", "1.0",
            "--grid-list", "0,1.5", "--emit-every", "1", "--format", fmt,
        )
        dataio._templates.cache_clear()
        assert code == 0
        assert out == TINY_SNAPSHOTS[fmt]
        # every snapshot is one table shape: its full and its null row
        # template are built once each
        assert len(built) == 2

    def test_header_only_input(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k,phi,y\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "stream", "--input", str(path), "--delta", "1.0", "--grid-list", "0"
        )
        assert code == 0
        (record,) = json_lines(out)
        assert record["estimate"] is None and record["active_count"] == 0

    def test_zero_byte_input(self, capsys, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(path), "--delta", "1.0", "--grid-list", "0"
        )
        assert code == 0
        (record,) = json_lines(out)
        assert record["estimate"] is None


# `rdwo stream --input demos/data/tiny.csv --delta 1.0 --grid-list 0,1.5
# --emit-every 1`: one snapshot per sample, then the final state again.
TINY_SNAPSHOTS = {
    "json": (
        '{"x": 0, "estimate": 1, "active_count": 1, "objective": 0.5, "n_seen": 1}\n'
        '{"x": 1.5, "estimate": null, "active_count": 0, "objective": null, "n_seen": 1}\n'
        '{"x": 0, "estimate": 1.6153846153846154, "active_count": 2, "objective": 0.94339811320566047, "n_seen": 2}\n'
        '{"x": 1.5, "estimate": null, "active_count": 0, "objective": null, "n_seen": 2}\n'
        '{"x": 0, "estimate": 1.6153846153846154, "active_count": 2, "objective": 0.94339811320566047, "n_seen": 3}\n'
        '{"x": 1.5, "estimate": 100, "active_count": 1, "objective": 0.5, "n_seen": 3}\n'
        '{"x": 0, "estimate": 1.6153846153846154, "active_count": 2, "objective": 0.94339811320566047, "n_seen": 3}\n'
        '{"x": 1.5, "estimate": 100, "active_count": 1, "objective": 0.5, "n_seen": 3}\n'
    ),
    "csv": (
        'x,estimate,active_count,objective,n_seen\n'
        '0,1,1,0.5,1\n'
        '1.5,,0,,1\n'
        '0,1.6153846153846154,2,0.94339811320566047,2\n'
        '1.5,,0,,2\n'
        '0,1.6153846153846154,2,0.94339811320566047,3\n'
        '1.5,100,1,0.5,3\n'
        '0,1.6153846153846154,2,0.94339811320566047,3\n'
        '1.5,100,1,0.5,3\n'
    ),
}


STREAM_GRID = (-0.8, -0.1, 0.0, 0.45, 0.9)


@pytest.fixture()
def stream_rows():
    rng = np.random.default_rng(40)
    return list(zip(rng.uniform(-1, 1, 24).tolist(), rng.normal(0, 1, 24).tolist()))


def write_rows(path, rows, bad_row=None):
    lines = ["k,phi,y"] + [f"{k},{p!r},{y!r}" for k, (p, y) in enumerate(rows, start=1)]
    if bad_row is not None:
        lines[bad_row] = f"{bad_row},abc,1"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def expected_snapshots(rows, emit_every):
    """Snapshot records at each n_seen, from an engine fed one sample at a time."""
    engine = StreamingGrid(np.array(STREAM_GRID), EstimatorConfig(delta=0.5))
    wanted = [n for n in range(emit_every, len(rows) + 1, emit_every)] + [len(rows)]
    records = []
    for n, (p, y) in enumerate(rows, start=1):
        engine.update(p, y)
        for _ in range(wanted.count(n)):
            for x, est, count, obj in zip(
                STREAM_GRID, engine.estimates(), engine.active_counts(), engine.objectives()
            ):
                supported = count > 0
                records.append(
                    {
                        "x": x,
                        "estimate": float(est) if supported else None,
                        "active_count": int(count),
                        "objective": float(obj) if supported else None,
                        "n_seen": n,
                    }
                )
    return records


class TestStreamBlocks:
    GRID_ARGS = ("--delta", "0.5", "--grid-list=" + ",".join(map(str, STREAM_GRID)))

    @pytest.mark.parametrize(
        "emit_every, blocks",
        [(5, [5, 10, 15, 20, 24]), (50, [24]), (8, [8, 16, 24, 24])],
        ids=["not-dividing", "larger-than-n", "dividing"],
    )
    def test_emit_points(self, capsys, tmp_path, stream_rows, emit_every, blocks):
        path = write_rows(tmp_path / "rows.csv", stream_rows)
        code, out, err = run_cli(
            capsys, "stream", "--input", path, *self.GRID_ARGS, "--emit-every", str(emit_every)
        )
        assert code == 0 and err == ""
        records = json_lines(out)
        assert [r["n_seen"] for r in records[:: len(STREAM_GRID)]] == blocks
        assert records == expected_snapshots(stream_rows, emit_every)

    def test_malformed_row_after_snapshots(self, capsys, tmp_path, stream_rows):
        # data row 14 sits on line 15; the snapshots at 5 and 10 are out by then
        path = write_rows(tmp_path / "bad.csv", stream_rows, bad_row=14)
        code, out, err = run_cli(
            capsys, "stream", "--input", path, *self.GRID_ARGS, "--emit-every", "5"
        )
        assert code == 2
        assert err == "error: line 15: could not convert string to float: 'abc'\n"
        want = expected_snapshots(stream_rows, 5)[: 2 * len(STREAM_GRID)]
        assert json_lines(out) == want


def grid_reference(fmt, xs, solution, diagnostics, n_seen, with_header=True):
    """One grid snapshot printed field by field through json_record/csv_row."""
    width = 5 if diagnostics else 4
    header = ["x", "estimate", "active_count", "objective", "support_sum"][:width]
    if n_seen is not None:
        header.append("n_seen")
    lines = [",".join(header)] if fmt == "csv" and with_header else []
    for x, est, count, obj, support in zip(xs.tolist(), *(c.tolist() for c in solution)):
        row = [x, est, count, obj, support] if count else [x, None, 0, None, None]
        row = row[:width] + ([] if n_seen is None else [n_seen])
        lines.append(json_record(list(zip(header, row))) if fmt == "json" else csv_row(row))
    return "".join(line + "\n" for line in lines)


class TestPinnedOutput:
    """stdout of fit, stream and simulate against a reference printed one
    field at a time, on a seeded 300-row input with unsupported points."""

    GRID = "--grid=-3.5:3.5:57"

    @pytest.fixture()
    def data(self, tmp_path):
        rng = np.random.default_rng(300)
        phi = rng.uniform(-3, 3, 300)
        rows = list(zip(phi.tolist(), (np.sin(phi) + rng.normal(0, 0.1, 300)).tolist()))
        return write_rows(tmp_path / "seeded.csv", rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_fit(self, capsys, data, fmt, diagnostics):
        extra = ["--diagnostics"] if diagnostics else []
        code, out, err = run_cli(
            capsys, "fit", "--input", data, "--delta", "0.1", self.GRID,
            "--format", fmt, *extra,
        )
        assert code == 0 and err == ""
        phis, ys = read_arrays(data)
        xs = np.linspace(-3.5, 3.5, 57)
        solution = grid_solve(xs, phis, ys, EstimatorConfig(delta=0.1))
        n_seen = 300 if diagnostics else None
        assert out == grid_reference(fmt, xs, solution, diagnostics, n_seen)
        assert '"estimate": null' in out or ",," in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_stream_emit_every(self, capsys, data, fmt, diagnostics):
        extra = ["--diagnostics"] if diagnostics else []
        code, out, err = run_cli(
            capsys, "stream", "--input", data, "--delta", "0.1", self.GRID,
            "--format", fmt, "--emit-every", "64", *extra,
        )
        assert code == 0 and err == ""
        phis, ys = read_arrays(data)
        engine = StreamingGrid(np.linspace(-3.5, 3.5, 57), EstimatorConfig(delta=0.1))
        want = []
        for start in range(0, 300, 64):
            engine.extend(phis[start : start + 64], ys[start : start + 64])
            if engine.n_seen % 64 == 0:
                solution = (engine.estimates(), engine.active_counts(), engine.objectives(),
                            engine.support_sums())
                want.append(grid_reference(fmt, engine.xs, solution, diagnostics,
                                           engine.n_seen, not want))
        solution = (engine.estimates(), engine.active_counts(), engine.objectives(),
                    engine.support_sums())
        want.append(grid_reference(fmt, engine.xs, solution, diagnostics, 300, False))
        assert out == "".join(want)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fit_formats_a_text_at_a_time(self, capsys, monkeypatch, data, fmt):
        # fit keeps no line between texts: format_rows formats 64 at a time
        sizes = []
        real = dataio.format_heads

        def spy(fmt, header, kinds, columns, **rows):
            sizes.append(len(columns[0]))
            return real(fmt, header, kinds, columns, **rows)

        monkeypatch.setattr(dataio, "format_heads", spy)
        monkeypatch.setattr(cli, "format_heads", spy)
        code, out, _ = run_cli(capsys, "fit", "--input", data, "--delta", "0.1",
                               "--grid=-3.5:3.5:150", "--format", fmt)
        assert code == 0 and out.count("\n") == 150 + (fmt == "csv")
        assert sizes == [64, 64, 22]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_simulate(self, capsys, tmp_path, fmt):
        spec_data = {
            "function": {"kind": "atan", "scale": 2.0},
            "delta": 0.05,
            "l1": 2.0,
            "input_range": [-2.0, 2.0],
            "noise_sigma": 0.2,
            "n_samples": 300,
            "seed": 11,
            "query_grid": {"min": -2.5, "max": 2.5, "count": 41},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_data), encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(path), "--format", fmt)
        spec = load_spec(path)
        report = run_experiment(spec)
        deviation = max_relative_deviation(report, stream_estimates(spec))
        assert deviation <= MODE_AGREEMENT_RTOL
        assert code == (1 if report.violation_count else 0)
        records = [r.to_dict() for r in report.records]
        assert any(r["estimate"] is None for r in records)
        if fmt == "json":
            lines = [json_record([("type", "query"), *r.items()]) for r in records]
            lines.append(
                json_record(
                    [
                        ("type", "summary"),
                        ("supported_count", report.supported_count),
                        ("no_support_count", report.no_support_count),
                        ("violation_count", report.violation_count),
                        ("mean_abs_error", report.mean_abs_error),
                        ("max_abs_error", report.max_abs_error),
                        ("mode_max_rel_dev", deviation),
                    ]
                )
            )
        else:
            lines = [",".join(records[0])] + [csv_row(list(r.values())) for r in records]
        assert out == "".join(line + "\n" for line in lines)


def stream_reference(xs, phis, ys, delta, fmt, diagnostics, emit_every):
    """stream's stdout from grid_reference, one snapshot per full block of
    emit_every samples and the final state."""
    engine = StreamingGrid(xs, EstimatorConfig(delta=delta))
    want = []

    def snapshot(n_seen):
        solution = (engine.estimates(), engine.active_counts(), engine.objectives(),
                    engine.support_sums())
        want.append(grid_reference(fmt, xs, solution, diagnostics, n_seen, not want))

    for start in range(0, phis.size, emit_every):
        engine.extend(phis[start : start + emit_every], ys[start : start + emit_every])
        if engine.n_seen - start == emit_every:
            snapshot(engine.n_seen)
    snapshot(engine.n_seen)
    return "".join(want)


class TestChangeDrivenSnapshots:
    """stream keeps each grid point's line between snapshots and formats it
    again only when the point absorbed a sample; fit formats a text at a
    time.  Both print what grid_reference prints field by field."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1e6, 1e6, allow_subnormal=False)),
            max_size=90,
        ),
        points=st.lists(st.floats(-1.5, 1.5) | st.sampled_from([-0.5, 0.0, 0.5]),
                        min_size=1, max_size=12),
        delta=st.sampled_from([0.05, 0.3, 1.0]),
        emit_every=st.integers(1, 40),
        dividing=st.booleans(),
        fmt=st.sampled_from(["json", "csv"]),
        diagnostics=st.booleans(),
    )
    def test_every_snapshot_matches_the_reference(
        self, capsys, tmp_path, rows, points, delta, emit_every, dividing, fmt, diagnostics
    ):
        if dividing:
            rows = rows[: len(rows) - len(rows) % emit_every]
        # unsorted, with a duplicate and a point no sample reaches
        xs = np.array([*points, 9.0, points[0]])
        path = write_rows(tmp_path / "rows.csv", rows)
        phis, ys = np.array([p for p, _ in rows]), np.array([y for _, y in rows])
        extra = ["--diagnostics"] if diagnostics else []
        grid = "--grid-list=" + ",".join(map(repr, xs.tolist()))
        common = ("--input", path, f"--delta={delta}", grid, "--format", fmt, *extra)
        code, out, err = run_cli(capsys, "stream", *common, f"--emit-every={emit_every}")
        assert code == 0 and err == ""
        assert out == stream_reference(xs, phis, ys, delta, fmt, diagnostics, emit_every)
        code, out, err = run_cli(capsys, "fit", *common)
        assert code == 0 and err == ""
        solution = grid_solve(xs, phis, ys, EstimatorConfig(delta=delta))
        assert out == grid_reference(fmt, xs, solution, diagnostics,
                                     phis.size if diagnostics else None)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_snapshot_formats_only_the_rows_that_changed(
        self, capsys, monkeypatch, tmp_path, stream_rows, fmt
    ):
        grid = (*STREAM_GRID, 5.0, STREAM_GRID[1])
        formatted, x_texts = [], []
        real_heads, real_float = cli.format_heads, cli.format_float

        def heads_spy(fmt, header, kinds, columns, **rows):
            formatted.append(list(columns[0]))
            return real_heads(fmt, header, kinds, columns, **rows)

        def float_spy(value):
            x_texts.append(value)
            return real_float(value)

        monkeypatch.setattr(cli, "format_heads", heads_spy)
        monkeypatch.setattr(cli, "format_float", float_spy)
        path = write_rows(tmp_path / "rows.csv", stream_rows)
        code, out, _ = run_cli(
            capsys, "stream", "--input", path, "--delta", "0.5",
            "--grid-list=" + ",".join(map(str, grid)), "--emit-every", "3", "--format", fmt,
        )
        assert code == 0
        phis, ys = read_arrays(path)
        assert out == stream_reference(np.array(grid), phis, ys, 0.5, fmt, False, 3)
        # each x is formatted once; a snapshot formats the rows whose active
        # count moved since the last one, all of them at the first
        assert x_texts == list(grid)
        engine = StreamingGrid(np.array(grid), EstimatorConfig(delta=0.5))
        before, want = np.full(len(grid), -1), []
        for n_seen in [*range(3, 25, 3), 24]:
            engine.extend(phis[engine.n_seen : n_seen], ys[engine.n_seen : n_seen])
            changed = np.flatnonzero(engine.n_active != before)
            before = engine.active_counts()
            if changed.size:
                want.append([real_float(grid[i]) for i in changed])
        assert formatted == want
        assert len(want) < 9 and sum(map(len, want)) < 9 * len(grid)


class TestBadInput:
    def test_wrong_header(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,0,0\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "fit", "--input", str(path), "--delta", "1.0", "--grid-list", "0"
        )
        assert code == 2
        assert "header" in err

    def test_duplicate_index(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("k,phi,y\n1,0,0\n1,1,1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "stream", "--input", str(path), "--delta", "1.0", "--grid-list", "0"
        )
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("row", ["1_0,0.1,1.5", "2,1_0.5,0"])
    def test_underscore_in_field(self, capsys, tmp_path, row):
        path = tmp_path / "underscore.csv"
        path.write_text(f"k,phi,y\n{row}\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "fit", "--input", str(path), "--delta", "1.0", "--grid-list", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2: ") and "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "fit", "--input", str(tmp_path / "nope.csv"),
            "--delta", "1.0", "--grid-list", "0",
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("grid", ["0:1", "0:1:0", "1:2:x"])
    def test_malformed_grid(self, capsys, tiny_csv, grid):
        code, _, err = run_cli(
            capsys, "fit", "--input", tiny_csv, "--delta", "1.0", "--grid", grid
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flag",
        ["--grid-list=0,,1.5", "--grid-list=0,1.5,", "--grid-list= ,0", "--grid-list=1_0",
         "--grid-list=\uff11", "--grid=0:1_0:1_1", "--grid=0:\uff11:3"],
    )
    @pytest.mark.parametrize("command", ["fit", "stream"])
    def test_grid_follows_the_csv_number_grammar(self, capsys, tiny_csv, command, flag):
        code, out, err = run_cli(capsys, command, "--input", tiny_csv, "--delta", "1.0", flag)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(flag.split("=", 1)[1]) in err

    def test_nonpositive_delta(self, capsys, tiny_csv):
        code, _, err = run_cli(
            capsys, "fit", "--input", tiny_csv, "--delta", "0", "--grid-list", "0"
        )
        assert code == 2
        assert "delta" in err

    def test_conflicting_grid_flags(self, capsys, tiny_csv):
        code, _, _ = run_cli(
            capsys,
            "fit", "--input", tiny_csv, "--delta", "1.0",
            "--grid", "0:1:2", "--grid-list", "0",
        )
        assert code == 2

    def test_negative_emit_every(self, capsys, tiny_csv):
        code, _, err = run_cli(
            capsys,
            "stream", "--input", tiny_csv, "--delta", "1.0",
            "--grid-list", "0", "--emit-every", "-1",
        )
        assert code == 2
        assert "emit-every" in err

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "fit" in out and "verify" in out


class TestSimulate:
    def test_json_records_and_summary(self, capsys, sim_spec):
        code, out, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert code == 0 and err == ""
        records = json_lines(out)
        queries = [r for r in records if r["type"] == "query"]
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(queries) == 9 and len(summaries) == 1
        summary = summaries[0]
        assert summary["violation_count"] == 0
        assert summary["supported_count"] + summary["no_support_count"] == 9
        assert summary["mode_max_rel_dev"] <= 1e-10
        for q in queries:
            if q["estimate"] is not None:
                assert q["bound_holds"] is True
                assert q["abs_error"] <= q["bound_z"]

    def test_seed_flag_overrides_spec(self, capsys, sim_spec):
        _, base, _ = run_cli(capsys, "simulate", "--spec", sim_spec)
        _, same, _ = run_cli(capsys, "simulate", "--spec", sim_spec, "--seed", "7")
        _, other, _ = run_cli(capsys, "simulate", "--spec", sim_spec, "--seed", "8")
        assert base == same
        assert base != other

    def test_csv_format(self, capsys, sim_spec):
        code, out, err = run_cli(
            capsys, "simulate", "--spec", sim_spec, "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,truth,estimate,abs_error,bound_z,bound_holds,active_count"
        assert len(lines) == 10
        assert err.startswith("summary:")

    def test_violation_names_the_worst_query(self, capsys, sim_spec, monkeypatch):
        report = run_experiment(load_spec(sim_spec))
        bad = dataclasses.replace(
            report.records[3], abs_error=report.records[3].bound_z + 0.25, bound_holds=False
        )
        records = report.records[:3] + (bad,) + report.records[4:]
        stub = dataclasses.replace(report, records=records, violation_count=1)
        monkeypatch.setattr(cli, "run_experiment", lambda spec: stub)
        code, out, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert code == 1
        assert err == (
            f"verification failure: 1 error-bound violation(s), worst at x={bad.x!r}: "
            f"abs_error={bad.abs_error!r} bound_z={bad.bound_z!r} "
            f"excess={bad.abs_error - bad.bound_z!r}\n"
        )
        queries = [r for r in json_lines(out) if r["type"] == "query"]
        assert queries == [{"type": "query", **r.to_dict()} for r in records]
        assert json_lines(out)[-1]["violation_count"] == 1

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--spec", str(tmp_path / "no.json"))
        assert code == 2
        assert err.startswith("error:")


def demo_spec():
    return json.loads((REPO / "demos" / "data" / "sine_experiment.json").read_text("utf-8"))


def assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Malformed spec values: scalars where an object or list belongs, keys no
# schema knows, and counts that are fractional, boolean or not numbers.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))
KNOWN_KEYS = {*demo_spec(), *demo_spec()["function"], *demo_spec()["query_grid"]}
NOT_WHOLE = st.one_of(
    st.booleans(), st.floats().filter(lambda v: not v.is_integer()), st.text(max_size=3)
)
SPEC_FAULTS = st.one_of(
    st.tuples(st.just(None), st.just("function"), SCALARS | st.lists(SCALARS, max_size=2)),
    st.tuples(st.just(None), st.just("query_grid"), SCALARS),
    st.tuples(
        st.sampled_from([None, "function", "query_grid"]),
        st.text(max_size=8).filter(lambda key: key not in KNOWN_KEYS),
        SCALARS,
    ),
    st.tuples(st.just(None), st.sampled_from(["n_samples", "seed"]), NOT_WHOLE),
    st.tuples(st.just("query_grid"), st.just("count"), NOT_WHOLE),
)


class TestSpecErrors:
    """A malformed spec exits 2 with one line, never 1: exit 1 claims a
    verification failure."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "function", 5),
            (None, "function", ["sine"]),
            (None, "query_grid", 3),
            (None, "query_grid", "12"),
            (None, "noise_sgima", 0.1),
            (None, "n_samples", 5.7),
            (None, "n_samples", True),
            (None, "seed", 7.5),
            (None, "seed", False),
            ("function", "amplitdue", 2.0),
            ("query_grid", "step", 0.25),
            ("query_grid", "count", 21.5),
            ("query_grid", "count", True),
            # Number fields take JSON numbers only, not strings or booleans.
            (None, "delta", True),
            (None, "noise_sigma", "0.1"),
            (None, "l1", True),
            (None, "input_range", ["-3", 3]),
            ("function", "amplitude", "1"),
            (None, "query_grid", ["0.5", 1]),
            ("query_grid", "max", None),
        ],
    )
    def test_rejected(self, capsys, tmp_path, section, key, value):
        spec = demo_spec()
        (spec if section is None else spec[section])[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert_one_line_error(code, out, err)
        assert key in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("input_range", 5, "input_range must be a list of 2 numbers, got 5"),
            ("input_range", [1, 2, 3], "input_range must be a list of 2 numbers, got [1, 2, 3]"),
            ("knots", 5, "knots must be a list of [x, y] pairs, got 5"),
            ("knots", [[0, 0], [1]], "knot must be a list of 2 numbers, got [1]"),
            ("knots", [[0, 0], [1, "2"]], "knot item must be a number, got '2'"),
            ("min", "min", "query_grid min must be a number, got 'min'"),
        ],
        ids=["range-scalar", "range-three", "knots-scalar", "knot-short", "knot-text", "grid-min"],
    )
    def test_wrong_shape_names_the_field(self, capsys, tmp_path, field, value, message):
        spec = demo_spec()
        if field == "knots":
            spec["function"] = {"kind": "piecewise_linear", "knots": value}
        elif field == "min":
            spec["query_grid"]["min"] = value
        else:
            spec[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert_one_line_error(code, out, err)
        assert err == f"error: {message}\n"

    def test_unanticipated_error_exits_2(self, capsys, monkeypatch, sim_spec):
        """An error no check anticipated still exits 2, named by its type."""

        def broken(path):
            raise TypeError("cannot unpack non-iterable int object")

        monkeypatch.setattr("rdwo.cli.load_spec", broken)
        code, out, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert_one_line_error(code, out, err)
        assert err == "error: TypeError: cannot unpack non-iterable int object\n"

    def test_whole_float_counts_accepted(self, capsys, tmp_path):
        spec = demo_spec()
        spec.update(n_samples=300.0, seed=7.0)
        spec["query_grid"]["count"] = 5.0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(path))
        assert code == 0
        assert json_lines(out)[-1]["supported_count"] == 5

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fault=SPEC_FAULTS)
    def test_fuzzed_faults_exit_2(self, capsys, tmp_path, fault):
        section, key, value = fault
        spec = demo_spec()
        spec["n_samples"] = 50
        (spec if section is None else spec[section])[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert_one_line_error(*run_cli(capsys, "simulate", "--spec", str(path)))


class TestVerify:
    def test_clean_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--instances", "5")
        assert code == 0 and err == ""
        records = json_lines(out)
        instances = [r for r in records if r["type"] == "instance"]
        summary = records[-1]
        assert len(instances) == 5
        assert all(r["ok"] is True for r in instances)
        assert summary["failures"] == 0
        assert summary["fault_injected"] is False
        assert summary["max_simplex_abs_dev"] <= 1e-6
        assert summary["max_signed_excess"] <= 1e-6

    def test_fault_injection_trips(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--instances", "5", "--inject-fault")
        assert code == 1
        summary = json_lines(out)[-1]
        assert summary["failures"] >= 1
        assert summary["fault_injected"] is True

    def test_fault_injection_names_each_failing_instance(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--instances", "10", "--inject-fault")
        assert code == 1
        failing = [r for r in json_lines(out) if r["type"] == "instance" and not r["ok"]]
        lines = err.splitlines()
        assert len(failing) >= 1 and len(lines) == len(failing)
        for record, line in zip(failing, lines):
            assert line == (
                f"verification failure: instance {record['instance']} of seed 0 "
                f"(n={record['n']}): simplex_abs_dev={record['simplex_abs_dev']:.2g} "
                f"signed_excess={record['signed_excess']:.2g}"
            )
        # The line is enough to replay the instance as the last of a shorter run.
        last = failing[-1]["instance"]
        _, replay, _ = run_cli(
            capsys, "verify", "--instances", str(last + 1), "--seed", "0", "--inject-fault"
        )
        assert json_lines(replay)[-2] == failing[-1]

    def test_seed_with_a_former_false_failure_passes(self, capsys):
        # A step-halving search stalled 7.9e-6 short of the optimum at instance 139.
        assert main(["verify", "--instances", "140", "--seed", "74857987"]) == 0
        assert capsys.readouterr().err == ""

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--instances", "4", "--seed", "3")
        _, second, _ = run_cli(capsys, "verify", "--instances", "4", "--seed", "3")
        assert first == second

    def test_csv_format(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--instances", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("instance,n,claimed,simplex,signed")
        assert len(lines) == 4
        assert err.startswith("summary:")

    def test_rejects_zero_instances(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--instances", "0")
        assert code == 2
        assert "instances" in err


class TestModuleEntryPoint:
    def test_python_dash_m_matches_in_process(self, capsys, tiny_csv):
        argv = ["fit", "--input", tiny_csv, "--delta", "1.0", "--grid=-1:2:5"]
        _, expected, _ = run_cli(capsys, *argv)
        result = subprocess.run(
            [sys.executable, "-m", "rdwo", *argv],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert result.stdout == expected


    def test_fit_reads_a_pipe(self, capsys, tmp_path):
        # /dev/stdin is a pipe here: read_arrays cannot count its lines first.
        rng = np.random.default_rng(5)
        path = write_rows(tmp_path / "rows.csv", rng.uniform(-1, 1, (1500, 2)).tolist())
        argv = ["fit", "--delta", "0.1", "--grid=-1:1:21", "--diagnostics"]
        _, expected, _ = run_cli(capsys, *argv, "--input", path)
        result = subprocess.run(
            [sys.executable, "-m", "rdwo", *argv, "--input", "/dev/stdin"],
            input=Path(path).read_text(encoding="utf-8"),
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout == expected


class TestBrokenPipe:
    def test_closed_stdout_is_quiet(self, capsys, monkeypatch, tmp_path, tiny_csv):
        sink = open(tmp_path / "sink", "w", encoding="utf-8")

        class ClosedPipe:
            """A stdout whose reader has gone away."""

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["fit", "--input", tiny_csv, "--delta", "1.0", "--grid=-1:2:5"])
        monkeypatch.undo()
        sink.close()
        assert code == 141
        assert capsys.readouterr().err == ""


def readme_examples():
    """``$ rdwo ...`` commands of the README with their output lines, leaving
    out those whose output is abridged by a ``...`` line."""
    examples = []
    for block in (REPO / "README.md").read_text("utf-8").split("```sh\n")[1:]:
        lines = block.split("```")[0].splitlines()
        if lines and lines[0].startswith("$ rdwo ") and "..." not in lines[1:]:
            examples.append((lines[0][len("$ rdwo "):], lines[1:]))
    return examples


class TestReadmeExamples:
    def test_some_example_is_checked(self):
        assert readme_examples()

    @pytest.mark.parametrize("command, expected", readme_examples())
    def test_output_matches(self, capsys, monkeypatch, command, expected):
        monkeypatch.chdir(REPO)
        code, out, _ = run_cli(capsys, *shlex.split(command))
        assert code == 0
        assert out.splitlines() == expected
