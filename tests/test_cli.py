import ast
import contextlib
import dataclasses
import errno
import importlib.util
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rdwo
from rdwo import cli, core, dataio, simulate
from rdwo.cli import MODE_AGREEMENT_RTOL, main
from rdwo.core import EstimatorConfig, grid_solve
from rdwo.dataio import csv_row, json_record, read_arrays
from rdwo.simulate import (
    QUERY_HEADER,
    load_spec,
    max_relative_deviation,
    run_experiment,
)
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


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    def test_emit_every_prints_one_snapshot_per_sample(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys,
            "stream", "--input", str(REPO / "demos" / "data" / "tiny.csv"), "--delta", "1.0",
            "--grid-list", "0,1.5", "--emit-every", "1", "--format", fmt,
        )
        assert (code, out) == (0, TINY_SNAPSHOTS[fmt])

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
        engine.extend([p], [y])
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

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 14])
    def test_snapshots_whatever_the_runs(self, capsys, monkeypatch, tmp_path, stream_rows,
                                         chunk):
        # A run holds one line at 1 and 7 characters, one or two at 64 and
        # the whole file at 16 KiB, so snapshots fall between runs and inside
        # them; every 8 divides the 24 rows, every 5 does not, every 50 is
        # more than the file.
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
        path = write_rows(tmp_path / "rows.csv", stream_rows)
        for emit_every in (5, 8, 50):
            code, out, err = run_cli(
                capsys, "stream", "--input", path, *self.GRID_ARGS, "--emit-every", str(emit_every)
            )
            assert code == 0 and err == ""
            assert json_lines(out) == expected_snapshots(stream_rows, emit_every)
        path = write_rows(tmp_path / "bad.csv", stream_rows, bad_row=14)
        code, out, err = run_cli(
            capsys, "stream", "--input", path, *self.GRID_ARGS, "--emit-every", "5"
        )
        assert code == 2
        assert err == "error: line 15: could not convert string to float: 'abc'\n"
        assert json_lines(out) == expected_snapshots(stream_rows, 5)[: 2 * len(STREAM_GRID)]

    @pytest.mark.parametrize("emit_every", [[], ["--emit-every", "1"],
                                            ["--emit-every", "5"], ["--emit-every", "50"]],
                             ids=["none", "1", "5", "50"])
    def test_extend_takes_no_more_than_a_run(self, capsys, monkeypatch, tmp_path, stream_rows,
                                             emit_every):
        # No call of extend spans the end of a run, so stream holds one run
        # of rows at a time, whatever --emit-every is.
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", 64)
        runs, calls = [], []
        column_runs, extend = dataio._column_runs, StreamingGrid.extend

        def spy_runs(*args):
            for run in column_runs(*args):
                runs.append(run[0].size)
                yield run

        def spy_extend(self, phis, ys):
            calls.append(len(phis))
            return extend(self, phis, ys)

        monkeypatch.setattr(dataio, "_column_runs", spy_runs)
        monkeypatch.setattr(StreamingGrid, "extend", spy_extend)
        path = write_rows(tmp_path / "rows.csv", stream_rows)
        code, _, err = run_cli(capsys, "stream", "--input", path, *self.GRID_ARGS, *emit_every)
        assert code == 0 and err == ""
        assert max(runs) < len(stream_rows) and sum(calls) == sum(runs) == len(stream_rows)
        assert set(np.cumsum(runs).tolist()) <= set(np.cumsum(calls).tolist())


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
    field at a time, on a seeded 300-row input with unsupported points, and
    stdout of verify against pinned text."""

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
    def test_fit_formats_each_row_once(self, capsys, monkeypatch, data, fmt):
        # fit's one table formats every row once, in one call
        sizes = []
        real = dataio.write_table

        def spy(out, fmt, header, kinds, columns, **rows):
            sizes.append(len(columns[0]))
            return real(out, fmt, header, kinds, columns, **rows)

        monkeypatch.setattr(dataio, "write_table", spy)
        monkeypatch.setattr(cli, "write_table", spy)
        code, out, _ = run_cli(capsys, "fit", "--input", data, "--delta", "0.1",
                               "--grid=-3.5:3.5:150", "--format", fmt)
        assert code == 0 and out.count("\n") == 150 + (fmt == "csv")
        assert sizes == [150]

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
        deviation = max_relative_deviation(report, report.stream_estimate)
        assert deviation <= MODE_AGREEMENT_RTOL
        assert code == (1 if report.violation_count else 0)
        records = query_records(report)
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

    # stdout of `rdwo verify --instances 12 --seed 3`: the instances, the
    # closed-form and searched objectives and their deviations, bit for bit.
    VERIFY_JSON = """\
{"type": "instance", "instance": 0, "n": 2, "claimed": 0.39317665517593864, "simplex": 0.39317665517593858, "signed": 0.39317665517593858, "simplex_abs_dev": 5.5511151231257827e-17, "signed_excess": -5.5511151231257827e-17, "ok": true}
{"type": "instance", "instance": 1, "n": 3, "claimed": 0.87562441240995159, "simplex": 0.87562441240995015, "signed": 0.87562441240995015, "simplex_abs_dev": 1.4432899320127035e-15, "signed_excess": -1.4432899320127035e-15, "ok": true}
{"type": "instance", "instance": 2, "n": 4, "claimed": 0.46075484498662661, "simplex": 0.46075484498662655, "signed": 0.46075484498662655, "simplex_abs_dev": 5.5511151231257827e-17, "signed_excess": -5.5511151231257827e-17, "ok": true}
{"type": "instance", "instance": 3, "n": 5, "claimed": 0.69472775256689434, "simplex": 0.69472775256689423, "signed": 0.69472775256689423, "simplex_abs_dev": 1.1102230246251565e-16, "signed_excess": -1.1102230246251565e-16, "ok": true}
{"type": "instance", "instance": 4, "n": 6, "claimed": 1.3544004751987957, "simplex": 1.3544004751987957, "signed": 1.3544004751987957, "simplex_abs_dev": 0, "signed_excess": 0, "ok": true}
{"type": "instance", "instance": 5, "n": 7, "claimed": 0.47141590591393967, "simplex": 0.47141590591393912, "signed": 0.47141590591393912, "simplex_abs_dev": 5.5511151231257827e-16, "signed_excess": -5.5511151231257827e-16, "ok": true}
{"type": "instance", "instance": 6, "n": 8, "claimed": 0.68839117031918207, "simplex": 0.68839117031918129, "signed": 0.68839117031918129, "simplex_abs_dev": 7.7715611723760958e-16, "signed_excess": -7.7715611723760958e-16, "ok": true}
{"type": "instance", "instance": 7, "n": 9, "claimed": 1.1456136486308597, "simplex": 1.1456136486308575, "signed": 1.1456136486308575, "simplex_abs_dev": 2.2204460492503131e-15, "signed_excess": -2.2204460492503131e-15, "ok": true}
{"type": "instance", "instance": 8, "n": 10, "claimed": 1.4690666796585345, "simplex": 1.4690666796585323, "signed": 1.4690666796585323, "simplex_abs_dev": 2.2204460492503131e-15, "signed_excess": -2.2204460492503131e-15, "ok": true}
{"type": "instance", "instance": 9, "n": 11, "claimed": 2.0586943444128956, "simplex": 2.0586943444128951, "signed": 2.0586943444128951, "simplex_abs_dev": 4.4408920985006262e-16, "signed_excess": -4.4408920985006262e-16, "ok": true}
{"type": "instance", "instance": 10, "n": 12, "claimed": 1.1198879607027028, "simplex": 1.1198879607026984, "signed": 1.1198879607026984, "simplex_abs_dev": 4.4408920985006262e-15, "signed_excess": -4.4408920985006262e-15, "ok": true}
{"type": "instance", "instance": 11, "n": 2, "claimed": 0.68757930233147346, "simplex": 0.68757930233147335, "signed": 0.68757930233147335, "simplex_abs_dev": 1.1102230246251565e-16, "signed_excess": -1.1102230246251565e-16, "ok": true}
{"type": "summary", "instances": 12, "failures": 0, "max_simplex_abs_dev": 4.4408920985006262e-15, "max_signed_excess": 0, "fault_injected": false}
"""
    VERIFY_CSV = """\
instance,n,claimed,simplex,signed,simplex_abs_dev,signed_excess,ok
0,2,0.39317665517593864,0.39317665517593858,0.39317665517593858,5.5511151231257827e-17,-5.5511151231257827e-17,true
1,3,0.87562441240995159,0.87562441240995015,0.87562441240995015,1.4432899320127035e-15,-1.4432899320127035e-15,true
2,4,0.46075484498662661,0.46075484498662655,0.46075484498662655,5.5511151231257827e-17,-5.5511151231257827e-17,true
3,5,0.69472775256689434,0.69472775256689423,0.69472775256689423,1.1102230246251565e-16,-1.1102230246251565e-16,true
4,6,1.3544004751987957,1.3544004751987957,1.3544004751987957,0,0,true
5,7,0.47141590591393967,0.47141590591393912,0.47141590591393912,5.5511151231257827e-16,-5.5511151231257827e-16,true
6,8,0.68839117031918207,0.68839117031918129,0.68839117031918129,7.7715611723760958e-16,-7.7715611723760958e-16,true
7,9,1.1456136486308597,1.1456136486308575,1.1456136486308575,2.2204460492503131e-15,-2.2204460492503131e-15,true
8,10,1.4690666796585345,1.4690666796585323,1.4690666796585323,2.2204460492503131e-15,-2.2204460492503131e-15,true
9,11,2.0586943444128956,2.0586943444128951,2.0586943444128951,4.4408920985006262e-16,-4.4408920985006262e-16,true
10,12,1.1198879607027028,1.1198879607026984,1.1198879607026984,4.4408920985006262e-15,-4.4408920985006262e-15,true
11,2,0.68757930233147346,0.68757930233147335,0.68757930233147335,1.1102230246251565e-16,-1.1102230246251565e-16,true
"""
    VERIFY_FAULT_JSON = """\
{"type": "instance", "instance": 0, "n": 2, "claimed": 0.39305622262722756, "simplex": 0.39317665517593858, "signed": 0.39317665517593858, "simplex_abs_dev": 0.00012043254871102471, "signed_excess": 0.00012043254871102471, "ok": false}
{"type": "instance", "instance": 1, "n": 3, "claimed": 0.87562222344337526, "simplex": 0.87562441240995015, "signed": 0.87562441240995015, "simplex_abs_dev": 2.1889665748897613e-06, "signed_excess": 2.1889665748897613e-06, "ok": false}
{"type": "instance", "instance": 2, "n": 4, "claimed": 0.46017057058284394, "simplex": 0.46075484498662655, "signed": 0.46075484498662655, "simplex_abs_dev": 0.00058427440378261419, "signed_excess": 0.00058427440378261419, "ok": false}
{"type": "instance", "instance": 3, "n": 5, "claimed": 0.69387697965346706, "simplex": 0.69472775256689423, "signed": 0.69472775256689423, "simplex_abs_dev": 0.00085077291342716688, "signed_excess": 0.00085077291342716688, "ok": false}
{"type": "instance", "instance": 4, "n": 6, "claimed": 1.353549381055932, "simplex": 1.3544004751987957, "signed": 1.3544004751987957, "simplex_abs_dev": 0.00085109414286366203, "signed_excess": 0.00085109414286366203, "ok": false}
{"type": "instance", "instance": 5, "n": 7, "claimed": 0.47087496746749058, "simplex": 0.47141590591393912, "signed": 0.47141590591393912, "simplex_abs_dev": 0.00054093844644853561, "signed_excess": 0.00054093844644853561, "ok": false}
{"type": "instance", "instance": 6, "n": 8, "claimed": 0.68727417853323447, "simplex": 0.68839117031918129, "signed": 0.68839117031918129, "simplex_abs_dev": 0.0011169917859468192, "signed_excess": 0.0011169917859468192, "ok": false}
{"type": "instance", "instance": 7, "n": 9, "claimed": 1.1443773407939308, "simplex": 1.1456136486308575, "signed": 1.1456136486308575, "simplex_abs_dev": 0.0012363078369266312, "signed_excess": 0.0012363078369266312, "ok": false}
{"type": "instance", "instance": 8, "n": 10, "claimed": 1.4683666417050798, "simplex": 1.4690666796585323, "signed": 1.4690666796585323, "simplex_abs_dev": 0.00070003795345252584, "signed_excess": 0.00070003795345252584, "ok": false}
{"type": "instance", "instance": 9, "n": 11, "claimed": 2.0564637363916036, "simplex": 2.0586943444128951, "signed": 2.0586943444128951, "simplex_abs_dev": 0.0022306080212914914, "signed_excess": 0.0022306080212914914, "ok": false}
{"type": "instance", "instance": 10, "n": 12, "claimed": 1.1197376907935381, "simplex": 1.1198879607026984, "signed": 1.1198879607026984, "simplex_abs_dev": 0.00015026990916022775, "signed_excess": 0.00015026990916022775, "ok": false}
{"type": "instance", "instance": 11, "n": 2, "claimed": 0.6875787188677891, "simplex": 0.68757930233147335, "signed": 0.68757930233147335, "simplex_abs_dev": 5.8346368425610251e-07, "signed_excess": 5.8346368425610251e-07, "ok": true}
{"type": "summary", "instances": 12, "failures": 11, "max_simplex_abs_dev": 0.0022306080212914914, "max_signed_excess": 0.0022306080212914914, "fault_injected": true}
"""

    @pytest.mark.parametrize(
        "extra, code, want",
        [
            ([], 0, VERIFY_JSON),
            (["--format", "csv"], 0, VERIFY_CSV),
            (["--inject-fault"], 1, VERIFY_FAULT_JSON),
        ],
        ids=["json", "csv", "json-fault"],
    )
    def test_verify(self, capsys, extra, code, want):
        got = run_cli(capsys, "verify", "--instances", "12", "--seed", "3", *extra)
        assert got[:2] == (code, want)

    # stderr of `rdwo verify --instances 12 --seed 3 --format csv
    # --inject-fault`: the summary line, then one line per failing instance.
    VERIFY_FAULT_CSV_ERR = """\
summary: instances=12 failures=11 max_simplex_abs_dev=0.00223061 max_signed_excess=0.00223061
verification failure: instance 0 of seed 3 (n=2): simplex_abs_dev=0.00012 signed_excess=0.00012
verification failure: instance 1 of seed 3 (n=3): simplex_abs_dev=2.2e-06 signed_excess=2.2e-06
verification failure: instance 2 of seed 3 (n=4): simplex_abs_dev=0.00058 signed_excess=0.00058
verification failure: instance 3 of seed 3 (n=5): simplex_abs_dev=0.00085 signed_excess=0.00085
verification failure: instance 4 of seed 3 (n=6): simplex_abs_dev=0.00085 signed_excess=0.00085
verification failure: instance 5 of seed 3 (n=7): simplex_abs_dev=0.00054 signed_excess=0.00054
verification failure: instance 6 of seed 3 (n=8): simplex_abs_dev=0.0011 signed_excess=0.0011
verification failure: instance 7 of seed 3 (n=9): simplex_abs_dev=0.0012 signed_excess=0.0012
verification failure: instance 8 of seed 3 (n=10): simplex_abs_dev=0.0007 signed_excess=0.0007
verification failure: instance 9 of seed 3 (n=11): simplex_abs_dev=0.0022 signed_excess=0.0022
verification failure: instance 10 of seed 3 (n=12): simplex_abs_dev=0.00015 signed_excess=0.00015
"""

    def test_verify_csv_fault_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--instances", "12", "--seed", "3",
                                 "--format", "csv", "--inject-fault")
        assert (code, err) == (1, self.VERIFY_FAULT_CSV_ERR)
        assert out.count("\n") == 13 and out.count(",false\n") == 11

    def test_simulate_csv_stderr(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--spec",
                               str(REPO / "demos" / "data" / "sine_experiment.json"),
                               "--format", "csv")
        assert (code, err) == (
            0, "summary: supported=21 no_support=0 violations=0 mode_max_rel_dev=2.04919e-15\n"
        )


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


class TestSnapshots:
    """stream formats every grid point's line at each snapshot, and fit once.
    Both print what grid_reference prints field by field."""

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

    def test_a_file_a_pipe_and_a_stream_name_the_same_first_bad_line(self, tmp_path):
        # Line 3 holds a bad float, and line 3001, about 21,000 bytes on, a
        # byte that is not UTF-8: every reader names line 3.
        lines = ["k,phi,y", "1,0.5,1", "2,abc,2", *(f"{k},0.5,{k}" for k in range(3, 3001))]
        path = tmp_path / "bad.csv"
        path.write_bytes("\n".join(lines).encode() + b"\xff\n")
        data = path.read_bytes()
        assert data.count(b"\n", 0, data.index(b"\xff")) + 1 == 3001
        args = ["--delta", "0.5", "--grid-list", "0"]
        runs = [
            (["fit", "--input", str(path), *args], None),
            (["fit", "--input", "/dev/stdin", *args], data),
            (["stream", "--input", str(path), *args, "--emit-every", "1000"], None),
        ]
        for argv, stdin in runs:
            result = subprocess.run(
                [sys.executable, "-m", "rdwo", *argv], input=stdin, capture_output=True,
                check=False,
            )
            assert (result.returncode, result.stdout) == (2, b"")
            assert result.stderr == b"error: line 3: could not convert string to float: 'abc'\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "fit", "--input", str(tmp_path / "nope.csv"),
            "--delta", "1.0", "--grid-list", "0",
        )
        assert code == 2
        assert err.startswith("error:")

    # The last span overflows, which np.linspace would turn into inf and nan
    # points with two RuntimeWarnings on stderr.
    # A row that starts with "--" is the whole flag.
    @pytest.mark.parametrize("grid", ["0:1", "0:1:0", "1:2:x", "-1e308:1e308:3", "inf:1:3",
                                      "--grid-list=", "--grid-list=inf"])
    def test_malformed_grid(self, capsys, tiny_csv, grid):
        flag = grid if grid.startswith("--") else f"--grid={grid}"
        for command in ("fit", "stream"):
            code, out, err = run_cli(capsys, command, "--input", tiny_csv, "--delta", "1.0", flag)
            assert_one_line_error(code, out, err)

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

    # Margins reach delta.  Both commands sum them scaled, as margin / delta,
    # so at 1e200 every term and sum stays finite and both answer.  At
    # 1.7e308 the support sum delta * S of the three margins overflows in
    # both; numpy would warn and print inf or a wrong estimate.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", ["1e200", "1.7e308"])
    @pytest.mark.parametrize("command", ["fit", "stream"])
    def test_overflowing_delta(self, capsys, command, delta):
        tiny = str(REPO / "demos" / "data" / "tiny.csv")
        argv = ("--input", tiny, "--delta", delta, "--grid-list", "0", "--diagnostics")
        code, out, err = run_cli(capsys, command, *argv)
        if delta == "1.7e308":
            assert_one_line_error(code, out, err)
            assert err == overflow_error(delta)
            return
        assert code == 0 and err == ""
        other = run_cli(capsys, "stream" if command == "fit" else "fit", *argv)
        assert other[0] == 0 and other[2] == ""
        (got,), (want,) = json_lines(out), json_lines(other[1])
        assert got["active_count"] == want["active_count"] == 3
        for key in ("estimate", "objective", "support_sum"):
            assert math.isclose(got[key], want[key], rel_tol=MODE_AGREEMENT_RTOL), key
        assert math.isclose(got["support_sum"], 3 * float(delta), rel_tol=1e-15)

    # Outputs near the largest double, of opposite signs: the terms scaled
    # margin * y stay within |y| and their sum cancels, so both answer.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_outputs(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("k,phi,y\n1,0,1.7e308\n2,0.1,-1.7e308\n", encoding="utf-8")
        argv = ("--input", str(path), "--delta", "1", "--grid-list", "0")
        fit = run_cli(capsys, "fit", *argv)
        assert fit == (0, (
            '{"x": 0, "estimate": 8.9473684210526304e+306, "active_count": 2, '
            '"objective": 1.3453624047073711}\n'
        ), "")
        code, out, err = run_cli(capsys, "stream", *argv)
        assert code == 0 and err == ""
        (got,), (want,) = json_lines(out), json_lines(fit[1])
        assert got["active_count"] == want["active_count"]
        for key in ("estimate", "objective"):
            assert math.isclose(got[key], want[key], rel_tol=MODE_AGREEMENT_RTOL), key

    # The same outputs with one sign: their scaled sum passes the largest
    # double, in the batch sums as in the running ones, so both exit 2.
    @pytest.mark.filterwarnings("error")
    def test_same_sign_outputs_overflow_both_modes(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("k,phi,y\n1,0,1.7e308\n2,0.1,1.7e308\n", encoding="utf-8")
        argv = ("--input", str(path), "--delta", "1", "--grid-list", "0")
        for command in ("fit", "stream"):
            code, out, err = run_cli(capsys, command, *argv)
            assert_one_line_error(code, out, err)
            assert err == overflow_error("1.0"), command

    @pytest.mark.filterwarnings("error")
    def test_outputs_overflow_alike_on_a_grid_with_cores(self, capsys, tmp_path):
        # 3,001 points at delta 1 keep cores, whose moments hold tau * y:
        # same-sign outputs overflow in both modes, and opposite-sign ones
        # are answered by both, within MODE_AGREEMENT_RTOL of 1.7e308.
        argv = ("--delta", "1", "--grid=-1:1:3001")
        for sign, want in (("", 2), ("-", 0)):
            path = tmp_path / f"huge{sign}.csv"
            path.write_text(f"k,phi,y\n1,0,1.7e308\n2,0.1,{sign}1.7e308\n", encoding="utf-8")
            fit, stream = (run_cli(capsys, command, "--input", str(path), *argv)
                           for command in ("fit", "stream"))
            if want:
                for code, out, err in (fit, stream):
                    assert_one_line_error(code, out, err)
                    assert err == overflow_error("1.0")
                continue
            assert fit[0] == stream[0] == 0
            for got, ref in zip(json_lines(stream[1]), json_lines(fit[1])):
                assert got["active_count"] == ref["active_count"]
                if ref["estimate"] is not None:
                    assert abs(got["estimate"] - ref["estimate"]) <= MODE_AGREEMENT_RTOL * 1.7e308

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spec_delta(self, capsys, tmp_path):
        # exit 2, not 1: batch and stream do not really disagree here
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**demo_spec(), "delta": 1.7e308}), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert_one_line_error(code, out, err)
        assert err == overflow_error("1.7e308")
        assert_no_child()

    # The target is evaluated with numpy warnings off, outside the window
    # arithmetic's overflow check: arctan of an overflowed product is +-pi/2,
    # which runs, and a target that is not finite at a point is named, not
    # blamed on delta.  One CPU and two print the same.
    @pytest.mark.filterwarnings("error")
    def test_target_overflowing_inside_runs(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "spec.json"
        spec = {**demo_spec(), "function": {"kind": "atan", "scale": 1e308}, "l1": 1e308}
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert (code, err) == (0, "")
        summary = json_lines(out)[-1]
        assert (summary["supported_count"], summary["violation_count"]) == (21, 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run_cli(capsys, "simulate", "--spec", str(path)) == (0, out, "")
        assert_no_child()

    @pytest.mark.filterwarnings("error")
    def test_target_not_finite(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        spec = {**demo_spec(), "function": {"kind": "sine", "frequency": 1e308}, "l1": 1e308,
                "input_range": [-1, 1], "query_grid": [0, 2]}
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert_one_line_error(code, out, err)
        assert err == "error: the target function is not finite at 2.0\n"
        assert_no_child()


def overflow_error(delta):
    return (
        f"error: the window arithmetic overflows at delta={float(delta)!r}: "
        "delta or the outputs are too large\n"
    )


def query_records(report):
    """A report's query rows as dicts keyed as QUERY_HEADER, with None in the
    nullable cells of an unsupported query."""
    rows = []
    for row in zip(*(getattr(report, key).tolist() for key in QUERY_HEADER)):
        record = dict(zip(QUERY_HEADER, row))
        if record["active_count"] == 0:
            record.update(estimate=None, abs_error=None, bound_z=None, bound_holds=None)
        rows.append(record)
    return rows


class TestSimulate:
    def test_json_records_and_summary(self, capsys, sim_spec):
        code, out, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert code == 0 and err == ""
        assert_no_child()
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

    @staticmethod
    def with_violation(report, i, abs_error, bound_z):
        """``report`` with query ``i``'s bound broken: its error and bound set."""
        columns = {key: getattr(report, key).copy() for key in ("abs_error", "bound_z")}
        columns["abs_error"][i], columns["bound_z"][i] = abs_error, bound_z
        holds = report.bound_holds.copy()
        holds[i] = False
        return dataclasses.replace(report, **columns, bound_holds=holds, violation_count=1)

    def test_violation_names_the_worst_query(self, capsys, sim_spec, monkeypatch):
        report = run_experiment(load_spec(sim_spec))
        bound = report.bound_z[3].item()
        stub = self.with_violation(report, 3, bound + 0.25, bound)
        monkeypatch.setattr(cli, "run_experiment", lambda spec: stub)
        code, out, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert code == 1
        x, abs_error = stub.x[3].item(), stub.abs_error[3].item()
        assert err == (
            f"verification failure: 1 error-bound violation(s), worst at x={x!r}: "
            f"abs_error={abs_error!r} bound_z={bound!r} "
            f"excess={abs_error - bound!r}\n"
        )
        queries = [r for r in json_lines(out) if r["type"] == "query"]
        assert queries == [{"type": "query", **r} for r in query_records(stub)]
        assert json_lines(out)[-1]["violation_count"] == 1
        assert_no_child()

    def test_violation_message_prints_plain_floats(self, capsys, sim_spec, monkeypatch):
        # the numbers come from the report's arrays, and print as Python floats
        stub = self.with_violation(run_experiment(load_spec(sim_spec)), 3, 1.5, 1.25)
        monkeypatch.setattr(cli, "run_experiment", lambda spec: stub)
        code, _, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert code == 1
        assert err == (
            "verification failure: 1 error-bound violation(s), worst at x=-0.625: "
            "abs_error=1.5 bound_z=1.25 excess=0.25\n"
        )
        assert "np.float64" not in err

    # Noise this large draws inf outputs, which the streaming pass rejects;
    # but the batch sums of the noise overflow first on the demo spec, and
    # the error check's magnitude w . |y| + l1 * w . |x - phi| + w . |noise|
    # on the second.  The batch error wins, with no warning, on one CPU or
    # two.
    def test_a_batch_overflow_comes_before_a_streaming_error(self, capsys, tmp_path,
                                                             monkeypatch):
        for overrides in (
            {"noise_sigma": 1e308},
            {"delta": 0.01, "l1": 1e308, "noise_sigma": 1e308, "n_samples": 40, "seed": 0,
             "query_grid": {"min": -2.9, "max": 2.9, "count": 600}},
        ):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({**demo_spec(), **overrides}), encoding="utf-8")
            runs = []
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                    raising=False)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = run_cli(capsys, "simulate", "--spec", str(path))
                runs.append((result, [(w.category, str(w.message)) for w in caught]))
            assert runs[0] == runs[1], overrides
            (code, out, err), caught = runs[0]
            assert (code, out, err) == (2, "", overflow_error(overrides.get("delta", 0.5)))
            assert caught == []
            assert_no_child()

    def test_a_zero_crossing_is_no_disagreement(self, capsys, tmp_path):
        # Bisect the batch estimate of the seeded data to its sign change, so
        # no bits are pinned: there the estimate is a rounding residue of
        # sums of size w . |y|, and the two modes' residues differ relative
        # to the estimate but not to that scale.
        data = {**demo_spec(), "n_samples": 30000, "seed": 0}
        spec = simulate.ExperimentSpec.from_dict(data)
        phis, _, ys = simulate._dataset_arrays(spec)

        def estimate(x):
            return grid_solve([x], phis, ys, spec.config)[0][0]

        lo, hi = -0.25, 0.25
        assert estimate(lo) < 0.0 < estimate(hi)
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (mid, hi) if estimate(mid) < 0.0 else (lo, mid)
        x = min((lo, hi), key=lambda v: abs(estimate(v)))
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps({**data, "query_grid": [x]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert (code, err) == (0, "")
        (query, summary) = json_lines(out)
        assert summary["mode_max_rel_dev"] <= MODE_AGREEMENT_RTOL
        report = run_experiment(load_spec(path))
        assert abs(query["estimate"]) <= 1e-12 * report.y_magnitude[0]

    def test_a_real_disagreement_exits_1(self, capsys, sim_spec, monkeypatch):
        report = run_experiment(load_spec(sim_spec))
        stub = dataclasses.replace(
            report, stream_estimate=report.stream_estimate + 1e-6 * report.y_magnitude
        )
        monkeypatch.setattr(cli, "run_experiment", lambda spec: stub)
        code, _, err = run_cli(capsys, "simulate", "--spec", sim_spec)
        assert code == 1
        assert err.startswith("verification failure: batch and streaming estimates disagree")

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
            (None, "query_grid", {"min": -1e308, "max": 1e308, "count": 3}),
            (None, "n_samples", 0),
            (None, "seed", -1),
            (None, "function", {"kind": 3}),
            ("query_grid", "count", 0),
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
            # A whole float out of range is named as given, not as its int.
            ("seed", -1e300, "seed must be >= 0, got -1e+300"),
            ("n_samples", -1e300, "n_samples must be >= 1, got -1e+300"),
            ("count", -1e300, "grid count must be >= 1, got -1e+300"),
            # A JSON integer beyond the largest float is named as given.
            ("delta", 10**400, "delta must be finite, got 1" + "0" * 400),
            (None, ["sine"], "experiment spec must be a JSON object, got list"),
        ],
        ids=["range-scalar", "range-three", "knots-scalar", "knot-short", "knot-text", "grid-min",
             "seed-huge", "n-samples-huge", "count-huge", "delta-huge-int", "spec-list"],
    )
    def test_wrong_shape_names_the_field(self, capsys, tmp_path, field, value, message):
        spec = demo_spec()
        if field is None:
            spec = value
        elif field == "knots":
            spec["function"] = {"kind": "piecewise_linear", "knots": value}
        elif field in ("min", "count"):
            spec["query_grid"][field] = value
        else:
            spec[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
        assert_one_line_error(code, out, err)
        assert err == f"error: {message}\n"

    # Values that overflow in the slope scan of the target: one line, with no
    # numpy warning before it, and a nan scan is no pass.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("change, message", [
        ({"input_range": [-1e308, 1e308]}, "input_range span from -1e+308 to 1e+308 overflows"),
        ({"function": {"kind": "sine", "amplitude": 1, "frequency": 1e308}, "l1": 1e308},
         "target function exceeds its declared slope bound on the input range: "
         "scanned nan, declared 1e+308"),
        ({"function": {"kind": "piecewise_linear", "knots": [[0, -1e308], [1e-300, 1e308]]}},
         "estimator l1 (1.0) must dominate the target's slope bound (inf)"),
    ], ids=["range", "sine", "knots"])
    def test_overflowing_scan(self, capsys, tmp_path, change, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**demo_spec(), **change}), encoding="utf-8")
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

    def test_fault_on_equal_weights_lowers_the_objective(self):
        # Both weights are the largest and the least, so the mass moves from
        # the first sample to the last, far enough to trip the check.
        x, phis, config = 0.0, np.array([-0.5, 0.5]), EstimatorConfig(delta=1.0)
        closed = float(grid_solve([x], phis, np.zeros(2), config)[2][0])
        assert closed - cli._perturbed_objective(x, phis, config) > cli.ORACLE_TOL

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

    @pytest.mark.parametrize("argv, message", [
        (("--instances", "-3"), "--instances must be >= 1"),
        (("--seed", "-1"), "--seed must be >= 0"),
    ], ids=["instances", "seed"])
    def test_rejected_options(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert_one_line_error(code, out, err)
        assert err == f"error: {message}\n"


class TestTracerContract:
    """perfbench/tracer.py wraps names of rdwo.cli and methods of
    StreamingGrid by attribute, and reads a few attributes of their results;
    a rename would otherwise show only in a traced benchmark run."""

    @pytest.fixture(scope="class")
    def tracer(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", REPO / "perfbench" / "tracer.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_cli_names_are_bound(self, tracer):
        assert [name for name in tracer.CLI_NAMES if not hasattr(cli, name)] == []

    def test_grid_reads_are_methods(self, tracer):
        assert all(callable(getattr(StreamingGrid, name, None)) for name in tracer.GRID_READS)
        engine = StreamingGrid(np.array([0.0]), EstimatorConfig(delta=1.0))
        assert (engine.n_active.size, engine.n_seen, engine.xs.size) == (1, 0, 1)

    def test_run_experiment_count(self, tracer, sim_spec):
        report = cli.run_experiment(load_spec(sim_spec))
        count = tracer.CLI_NAMES["run_experiment"]((), {}, report)
        assert count == report.supported_count == int(np.count_nonzero(report.active_count))


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


def openblas_on_two_cpus():
    """Whether numpy is built on OpenBLAS and two CPUs are there for its
    threads; OpenBLAS runs no more threads than it sees CPUs."""
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        return False
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


class TestBlasThreads:
    @pytest.mark.skipif(not openblas_on_two_cpus(), reason="needs numpy on OpenBLAS and 2 CPUs")
    def test_fit_prints_the_same_bytes_on_one_and_two_threads(self, tmp_path):
        # Windows of about 14,900 samples: OPENBLAS_NUM_THREADS is read when
        # numpy loads, so each thread count needs its own process.
        rng = np.random.default_rng(35)
        phis = rng.uniform(-3, 3, 30_000)
        ys = np.sin(phis) + rng.normal(0, 0.1, phis.size)
        path = write_rows(tmp_path / "wide.csv", zip(phis.tolist(), ys.tolist()))
        outputs = []
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "rdwo", "fit", "--input", path, "--delta", "1.5",
                 "--grid=-1:1:3"],
                capture_output=True,
                check=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


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


class ForkedRuns:
    """Commands run with every fork gate opened on small files, each compared
    with the one-process run of the same command."""

    GRID_ARGS = ("--delta", "0.3", "--grid=-1:1:9")

    @pytest.fixture()
    def forks(self, monkeypatch):
        """Open the gates on any file and list the runs of ``dataio.beside``:
        whether the child finished, or None where the parent raised.  No
        descriptor or child may outlive the test."""
        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

        monkeypatch.setattr(dataio, "_SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(cli, "_STREAM_FORK_MIN_LINES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        runs = []
        real = dataio.beside

        def beside(child, parent):
            runs.append(None)
            result = real(child, parent)
            runs[-1] = result[1]
            return result

        monkeypatch.setattr(dataio, "beside", beside)
        yield runs
        assert_no_child()
        if fds is not None:
            assert sorted(os.listdir("/proc/self/fd")) == fds

    def one_cpu(self, capsys, monkeypatch, *argv):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            return run_cli(capsys, *argv)


class TestStreamForkGate:
    """``_stream_forks`` stops counting the input's newlines once there are
    enough, and decides as a count of all of them would:
    ``lines // every * points >= _STREAM_FORK_MIN_LINES``."""

    @pytest.mark.parametrize("points, every", [(1, 3), (7, 2), (500, 1000), (6000, 5), (7000, 1)])
    def test_decision_is_the_full_count_rule(self, monkeypatch, tmp_path, points, every):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        least = cli._STREAM_FORK_MIN_LINES
        need = every * math.ceil(least / points)
        for lines in (need - 1, need, need + 1):
            # A tail with no newline makes the file pass the size gate.
            path = tmp_path / f"{lines}.csv"
            path.write_bytes(b"1,0.5,2.25\n" * lines + b"x" * dataio._SPLIT_MIN_BYTES)
            args = cli.build_parser().parse_args(
                ["stream", "--input", str(path), "--delta", "1", "--grid-list", "0",
                 "--emit-every", str(every)])
            want = lines // every * points >= least
            assert cli._stream_forks(args, points) == want == (lines >= need), lines


class TestForkedStream(ForkedRuns):
    """``stream --emit-every`` reads and folds the file in a forked child and
    prints here."""

    @pytest.fixture()
    def rows_csv(self, tmp_path):
        rng = np.random.default_rng(21)
        return write_rows(tmp_path / "rows.csv", rng.uniform(-1, 1, (240, 2)).tolist())

    @pytest.mark.parametrize("every", ["16", "25"], ids=["dividing", "not-dividing"])
    @pytest.mark.parametrize("fmt", [("--format", "json"), ("--format", "csv", "--diagnostics")],
                             ids=["json", "csv-diagnostics"])
    def test_same_bytes(self, capsys, monkeypatch, forks, rows_csv, every, fmt):
        argv = ("stream", "--input", rows_csv, *self.GRID_ARGS, "--emit-every", every, *fmt)
        want = self.one_cpu(capsys, monkeypatch, *argv)
        assert forks == []
        assert want[0] == 0 and want[2] == ""
        assert run_cli(capsys, *argv) == want
        assert forks == [True]

    def test_malformed_line_midway(self, capsys, monkeypatch, forks, tmp_path):
        rng = np.random.default_rng(22)
        path = write_rows(tmp_path / "bad.csv", rng.uniform(-1, 1, (240, 2)).tolist(), 130)
        argv = ("stream", "--input", path, *self.GRID_ARGS, "--emit-every", "16")
        want = self.one_cpu(capsys, monkeypatch, *argv)
        code, out, err = want
        assert code == 2 and err == "error: line 131: could not convert string to float: 'abc'\n"
        assert len(json_lines(out)) == 8 * 9
        assert run_cli(capsys, *argv) == want
        assert forks == [False]

    # Same-sign outputs overflow SY in the child's fold, after one snapshot;
    # a delta this large overflows delta * S in the parent's second readout.
    @pytest.mark.parametrize("data, delta, snapshots, forked", [
        ("1,0,1.7e308\n2,0.1,1.7e308\n", "1", 1, False),
        ("1,-0.5,1\n2,0.2,2\n3,2.0,100\n", "1.7e308", 1, None),
    ], ids=["outputs", "delta"])
    def test_overflow(self, capsys, monkeypatch, forks, tmp_path, data, delta, snapshots,
                      forked):
        path = tmp_path / "huge.csv"
        path.write_text("k,phi,y\n" + data, encoding="utf-8")
        argv = ("stream", "--input", str(path), "--delta", delta, "--grid-list", "0",
                "--emit-every", "1")
        want = self.one_cpu(capsys, monkeypatch, *argv)
        assert want[0] == 2 and want[2] == overflow_error(delta)
        assert len(json_lines(want[1])) == snapshots
        assert run_cli(capsys, *argv) == want
        assert forks == [forked]

    @pytest.mark.parametrize("killed_at", [0, 3, 15])
    def test_child_killed_after_some_snapshots(self, capsys, monkeypatch, forks, rows_csv,
                                               killed_at):
        argv = ("stream", "--input", rows_csv, *self.GRID_ARGS, "--emit-every", "16")
        want = self.one_cpu(capsys, monkeypatch, *argv)
        parent = os.getpid()
        real = cli._records

        def records(args, engine):
            for n_seen, sums in real(args, engine):
                if os.getpid() != parent and n_seen >= 16 * killed_at:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield n_seen, sums

        monkeypatch.setattr(cli, "_records", records)
        assert run_cli(capsys, *argv) == want
        assert forks == [False]

    def test_failed_fork(self, capsys, monkeypatch, forks, rows_csv):
        argv = ("stream", "--input", rows_csv, *self.GRID_ARGS, "--emit-every", "16")
        want = self.one_cpu(capsys, monkeypatch, *argv)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert run_cli(capsys, *argv) == want
        assert forks == [False]

    def test_second_thread_runs_in_process(self, capsys, monkeypatch, forks, rows_csv):
        argv = ("stream", "--input", rows_csv, *self.GRID_ARGS, "--emit-every", "16")
        want = self.one_cpu(capsys, monkeypatch, *argv)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = run_cli(capsys, *argv)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert got == want
        assert forks == []

    def test_closed_stdout(self, capsys, monkeypatch, forks, rows_csv, tmp_path):
        sink = open(tmp_path / "sink", "w", encoding="utf-8")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            code = main(["stream", "--input", rows_csv, *self.GRID_ARGS, "--emit-every", "16"])
        sink.close()
        assert code == 141
        assert capsys.readouterr().err == ""
        assert forks == [None]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_many_runs_leave_no_descriptor_or_child(self, capsys, forks, rows_csv):
        argv = ("stream", "--input", rows_csv, *self.GRID_ARGS, "--emit-every", "16")
        want = run_cli(capsys, *argv)
        before = sorted(os.listdir("/proc/self/fd"))
        for _ in range(50):
            assert run_cli(capsys, *argv) == want
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert forks == [True] * 51
        assert_no_child()


class TestForkedFit(ForkedRuns):
    """``fit`` on a file its gate admits forks once: a child parses the
    second half of the file, and the parent sorts all the rows and sums the
    windows of the whole grid."""

    @pytest.fixture()
    def rows_csv(self, tmp_path):
        rng = np.random.default_rng(23)
        return write_rows(tmp_path / "rows.csv", rng.uniform(-1, 1, (240, 2)).tolist())

    def same_as_one_cpu(self, capsys, monkeypatch, *argv):
        """Run ``argv`` on one CPU, then with the gate open; the first run."""
        want = self.one_cpu(capsys, monkeypatch, *argv)
        assert run_cli(capsys, *argv) == want
        return want

    @pytest.mark.parametrize("fmt", [("--format", "json"), ("--format", "csv", "--diagnostics"),
                                     ("--diagnostics",)], ids=["json", "csv-diagnostics",
                                                              "json-diagnostics"])
    def test_same_bytes(self, capsys, monkeypatch, forks, rows_csv, fmt):
        code, out, err = self.same_as_one_cpu(capsys, monkeypatch, "fit", "--input", rows_csv,
                                              *self.GRID_ARGS, *fmt)
        assert code == 0 and err == "" and len(out.splitlines()) >= 9
        assert forks == [True]

    def test_ties_and_signed_zeros_on_both_sides_of_the_cut(self, capsys, monkeypatch, forks,
                                                            tmp_path):
        rng = np.random.default_rng(24)
        phis = np.round(rng.uniform(-1, 1, 240), 1)
        phis[[3, 50, 130, 200]] = -0.0
        phis[[7, 90, 150, 230]] = 0.0
        ys = rng.normal(0, 1e3, 240)
        path = write_rows(tmp_path / "ties.csv", zip(phis.tolist(), ys.tolist()))
        # numpy's default sort orders these ties otherwise than the stable one
        order = np.argsort(phis, kind="stable")
        assert not np.array_equal(np.argsort(phis), order)
        xs = [0.0, -0.1, 0.1, 0.0, 0.45]
        argv = ("fit", "--input", path, "--delta", "0.3", "--grid-list", ",".join(map(str, xs)))
        code, out, _ = self.same_as_one_cpu(capsys, monkeypatch, *argv, "--diagnostics")
        assert code == 0
        assert forks == [True]
        # Each window sums its ties in file order.
        _, s, _, sy = core._window_dots(np.array(xs), phis[order], 0.3, (ys[order],))
        assert [row["estimate"] for row in json_lines(out)] == (sy / s).tolist()

    @pytest.mark.parametrize("points", ["0.5,-0.5,0.5,0,-0.9,0.5,0.2", "0.1"],
                             ids=["unsorted-repeated", "one-point"])
    def test_grid_lists(self, capsys, monkeypatch, forks, rows_csv, points):
        argv = ("fit", "--input", rows_csv, "--delta", "0.3", "--grid-list", points)
        code, out, _ = self.same_as_one_cpu(capsys, monkeypatch, *argv)
        assert code == 0 and len(json_lines(out)) == points.count(",") + 1
        assert forks == [True]

    def test_windows_of_several_dot_blocks(self, capsys, monkeypatch, forks, tmp_path):
        rng = np.random.default_rng(25)
        rows = rng.uniform(-1, 1, (3 * core._DOT_BLOCK, 2)).tolist()
        path = write_rows(tmp_path / "wide.csv", rows)
        argv = ("fit", "--input", path, "--delta", "1.5", "--grid=-1:1:3")
        code, out, _ = self.same_as_one_cpu(capsys, monkeypatch, *argv)
        assert code == 0
        assert min(row["active_count"] for row in json_lines(out)) > 2 * core._DOT_BLOCK
        assert forks == [True]

    def test_child_killed(self, capsys, monkeypatch, forks, rows_csv):
        argv = ("fit", "--input", rows_csv, *self.GRID_ARGS)
        want = self.one_cpu(capsys, monkeypatch, *argv)
        parent = os.getpid()

        def bulk_columns(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_bulk(*args)

        real_bulk = dataio._bulk_columns
        monkeypatch.setattr(dataio, "_bulk_columns", bulk_columns)
        assert run_cli(capsys, *argv) == want
        assert forks == [False]

    def test_failed_fork(self, capsys, monkeypatch, forks, rows_csv):
        argv = ("fit", "--input", rows_csv, *self.GRID_ARGS)
        want = self.one_cpu(capsys, monkeypatch, *argv)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert run_cli(capsys, *argv) == want
        assert forks == [False]

    def test_second_half_not_bulk(self, capsys, monkeypatch, forks, tmp_path):
        # Spaces after the commas of the second half: the read's child
        # refuses its runs, and the parent reads them.
        rng = np.random.default_rng(27)
        path = Path(write_rows(tmp_path / "spaced.csv", rng.uniform(-1, 1, (240, 2)).tolist()))
        lines = path.read_text("utf-8").splitlines()
        lines[121:] = [line.replace(",", ", ") for line in lines[121:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ("fit", "--input", str(path), *self.GRID_ARGS, "--diagnostics")
        code, out, _ = self.same_as_one_cpu(capsys, monkeypatch, *argv)
        assert code == 0 and json_lines(out)[0]["n_seen"] == 240
        assert forks == [False]

    def test_second_thread_runs_in_process(self, capsys, monkeypatch, forks, rows_csv):
        argv = ("fit", "--input", rows_csv, *self.GRID_ARGS)
        want = self.one_cpu(capsys, monkeypatch, *argv)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = run_cli(capsys, *argv)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert got == want
        assert forks == []

    # A delta this large overflows delta * S in the readout.  Outputs of
    # 1.7e308 overflow SY in the windows that hold two: the window of one
    # grid point, or of both.
    @pytest.mark.parametrize("huge, delta, points", [
        (None, "1.7e308", "-0.5,0.5"),
        ((0.6, 1.0), "0.3", "-0.5,0.8"),
        ((-1.0, 1.0), "0.3", "-0.5,0.8"),
    ], ids=["delta", "outputs-at-one-point", "outputs-in-both"])
    def test_overflow(self, capsys, monkeypatch, forks, tmp_path, huge, delta, points):
        rng = np.random.default_rng(26)
        phis = rng.uniform(-1, 1, 240)
        ys = rng.uniform(-1, 1, 240)
        if huge is not None:
            ys[(phis > huge[0]) & (phis < huge[1])] = 1.7e308
        path = write_rows(tmp_path / "huge.csv", zip(phis.tolist(), ys.tolist()))
        argv = ("fit", "--input", path, "--delta", delta, f"--grid-list={points}")
        assert self.same_as_one_cpu(capsys, monkeypatch, *argv) == (2, "", overflow_error(delta))
        assert forks == [True]


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


def quick_start():
    """The python block under "Library quick start" in the README."""
    section = (REPO / "README.md").read_text("utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def doc_imports():
    """The names the README's python blocks and ``demos/*.py`` take from
    ``rdwo``: by ``from rdwo import ...``, or as ``rdwo.<name>``."""
    readme = (REPO / "README.md").read_text("utf-8")
    sources = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    sources += [path.read_text("utf-8") for path in sorted((REPO / "demos").glob("*.py"))]
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "rdwo":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "rdwo":
                    names.add(node.attr)
    return names


class TestLibraryDocs:
    def test_quick_start_prints_its_comments(self, capsys):
        code = quick_start()
        prints = [line for line in code.splitlines() if line.startswith("print(")]
        assert prints and all("  # " in line for line in prints)
        exec(compile(code, "README quick start", "exec"), {})
        want = [line.split("  # ", 1)[1].strip() for line in prints]
        assert capsys.readouterr().out.splitlines() == want

    def test_all_is_what_the_docs_import(self):
        assert set(rdwo.__all__) == doc_imports()
        assert len(rdwo.__all__) == len(set(rdwo.__all__))
        for name in rdwo.__all__:
            assert getattr(rdwo, name) is not None
