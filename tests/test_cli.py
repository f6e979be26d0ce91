import errno
import json
import math
import subprocess
import sys

import pytest

from rdwo.cli import main

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

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--spec", str(tmp_path / "no.json"))
        assert code == 2
        assert err.startswith("error:")


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
