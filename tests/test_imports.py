"""Command-scoped loading: ``import rdwo``, ``import rdwo.cli`` and the
``fit`` and ``stream`` commands never load the modules that only
``simulate`` and ``verify`` run, ``stream`` never loads the batch moment
kernel, and only ``fit``'s split read of a large input loads ``mmap``.
Each check runs in a fresh interpreter, since this test session has long
loaded every module."""

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from rdwo import cli, dataio
from rdwo.streaming import StreamingGrid

REPO = Path(__file__).resolve().parents[1]
TINY = str(REPO / "demos" / "data" / "tiny.csv")
SPEC = str(REPO / "demos" / "data" / "sine_experiment.json")
DEFERRED = ("rdwo.simulate", "rdwo.oracle", "rdwo._segments", "rdwo._moments", "mmap")

RUN_AND_LIST = """
import contextlib, io, sys
import rdwo.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rdwo.cli.main(sys.argv[1:])
print(code, *sorted(name for name in {deferred!r} if name in sys.modules))
"""


def python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=False, timeout=120
    )


def run_and_list(*argv):
    """Exit code of ``rdwo.cli.main(argv)`` in a fresh interpreter, and the
    deferred modules loaded by then."""
    result = python("-c", RUN_AND_LIST.format(deferred=DEFERRED), *argv)
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.split()
    return int(code), loaded


def test_import_cli_loads_no_deferred_module():
    result = python("-c", f"import sys, rdwo.cli; print(*[m for m in {DEFERRED!r} if m in sys.modules])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


@pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["fit", "--format", "csv", "--diagnostics"],
        ["stream"],
        ["stream", "--emit-every", "1"],
        ["stream", "--emit-every", "2", "--format", "csv", "--diagnostics"],
    ],
    ids=" ".join,
)
def test_fit_and_stream_load_no_deferred_module(argv):
    # Only fit's window sums load the moment kernel.
    command, *options = argv
    full = [command, "--input", TINY, "--delta", "1.0", "--grid-list", "0,1.5", *options]
    assert run_and_list(*full) == (0, ["rdwo._moments"] if command == "fit" else [])


def test_fit_loads_mmap_only_to_split(tmp_path):
    path = tmp_path / "large.csv"
    rows = (f"{k},{k * 1e-5!r},{k % 7}.25\n" for k in range(1, dataio._SPLIT_MIN_BYTES // 10))
    path.write_text("k,phi,y\n" + "".join(rows), encoding="ascii")
    assert path.stat().st_size >= dataio._SPLIT_MIN_BYTES
    loaded = ["mmap", "rdwo._moments"] if dataio.can_split(path) else ["rdwo._moments"]
    assert run_and_list("fit", "--input", str(path), "--delta", "0.1", "--grid-list", "1") == (
        0, loaded
    )


@pytest.mark.parametrize("large", [True, False], ids=["at-the-gate", "small"])
def test_stream_forks_without_loading_a_module(tmp_path, large):
    # One grid point, and just enough snapshots at the gate.
    rows = dataio._SPLIT_MIN_BYTES // 10 if large else 40
    every = rows // cli._STREAM_FORK_MIN_LINES if large else 1
    path = tmp_path / "rows.csv"
    path.write_text(
        "k,phi,y\n" + "".join(f"{k},{k * 1e-5!r},{k % 7}.25\n" for k in range(1, rows + 1)),
        encoding="ascii",
    )
    assert (path.stat().st_size >= dataio._SPLIT_MIN_BYTES) == large
    argv = ("--input", str(path), "--delta", "0.1", "--grid-list", "1", "--emit-every", str(every))
    assert run_and_list("stream", *argv) == (0, [])


def test_simulate_and_verify_load_their_modules():
    assert run_and_list("simulate", "--spec", SPEC) == (0, ["rdwo._moments", "rdwo.simulate"])
    assert run_and_list("verify", "--instances", "3") == (0, ["rdwo._moments", "rdwo.oracle"])


def test_all_names_are_the_defining_modules_objects():
    # from rdwo import X, for every X of __all__, in an interpreter that has
    # loaded none of the deferred modules yet.
    script = """
import sys
import rdwo
names = list(rdwo.__all__)
for name in names:
    exec(f"from rdwo import {name}")
    value = eval(name)
    assert value is getattr(sys.modules[value.__module__], name), name
    assert name in dir(rdwo), name
print(len(names))
"""
    result = python("-c", script)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) == 12


def test_star_import_is_warning_free():
    result = python("-W", "error", "-c", "from rdwo import *; print(run_experiment.__module__)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "rdwo.simulate\n"


@pytest.mark.parametrize("module", ["rdwo", "rdwo.cli"])
def test_unknown_attribute_raises(module):
    script = f"""
import {module} as m
try:
    m.no_such_name
except AttributeError as exc:
    print(exc)
"""
    result = python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"module '{module}' has no attribute 'no_such_name'\n"


def test_traced_simulate_records_the_simulate_spans():
    # perfbench's tracer wraps the names by attribute on rdwo.cli;
    # cmd_simulate must call what is bound there for the spans to exist.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    uninstall = tracer.install(cli, StreamingGrid)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = tracer.call("main", cli.main, ["simulate", "--spec", SPEC])
    finally:
        uninstall()
    assert code == 0 and out.getvalue().count("\n") == 22
    names = {span[0] for span in tracer.spans}
    assert {"load_spec", "run_experiment:batch", "max_relative_deviation"} <= names
