"""End-to-end acceptance gate.

Each test checks one release criterion over many seeded instances and prints
a single machine-scannable PASS/FAIL line.  Run with ``pytest -v -s`` to see
the lines as they complete; tolerances and time limits are part of the
criteria and must not be loosened.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from rdwo.cli import main
from rdwo.core import EstimatorConfig, grid_solve, query_weights, simplex_objective
from rdwo.oracle import maximize_signed, maximize_simplex, random_instance
from rdwo.simulate import ExperimentSpec, Sine, run_experiment
from rdwo.streaming import StreamingGrid
from reference import optimum, running_sums

REPO_ROOT = Path(__file__).resolve().parents[1]
TINY_CSV = REPO_ROOT / "demos" / "data" / "tiny.csv"

HAND_ESTIMATE = 21 / 13


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _oracle_instances(count: int = 200):
    for i in range(count):
        rng = np.random.default_rng([1000, i])
        n = 2 + (i % 11)
        yield i, random_instance(rng, n_samples=n)


def test_criterion_01_simplex_oracle_matches_closed_form():
    start = time.perf_counter()
    max_obj_dev = 0.0
    max_w_dev = 0.0
    count = 0
    for _, (x, phis, config) in _oracle_instances():
        weights = query_weights(x, phis, config)
        claimed = optimum(x, phis, config)
        result = maximize_simplex(x, phis, config)
        max_obj_dev = max(max_obj_dev, abs(result.objective - claimed))
        max_w_dev = max(
            max_w_dev, float(np.max(np.abs(np.asarray(result.weights) - weights)))
        )
        count += 1
    elapsed = time.perf_counter() - start
    ok = max_obj_dev <= 1e-6 and max_w_dev <= 1e-3 and elapsed <= 60.0
    _report(
        1,
        "simplex-oracle-matches-closed-form",
        ok,
        f"instances={count} max_obj_dev={max_obj_dev:.3e} "
        f"max_w_dev={max_w_dev:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_signed_oracle_matches_closed_form():
    start = time.perf_counter()
    max_dev = 0.0
    count = 0
    for _, (x, phis, config) in _oracle_instances():
        claimed = optimum(x, phis, config)
        result = maximize_signed(x, phis, config)
        max_dev = max(max_dev, abs(result.objective - claimed))
        count += 1
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-6 and elapsed <= 60.0
    _report(
        2,
        "signed-oracle-matches-closed-form",
        ok,
        f"instances={count} max_abs_dev={max_dev:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_03_streaming_equals_batch():
    start = time.perf_counter()
    config = EstimatorConfig(delta=0.25, l1=1.0)
    xs = np.linspace(-2.5, 2.5, 101)
    max_grid_dev = 0.0
    max_snap_dev = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        phis = rng.uniform(-3.0, 3.0, 10_000)
        ys = np.sin(phis) + 2.0 + rng.normal(0.0, 0.1, 10_000)

        engine = StreamingGrid(xs, config)
        engine.extend(phis, ys)
        streamed = engine.estimates()
        counts = engine.active_counts()
        batch_est, batch_counts, _, _ = grid_solve(xs, phis, ys, config)

        assert np.array_equal(counts, batch_counts)
        mask = batch_counts > 0
        assert mask.any()
        dev = np.abs(streamed[mask] - batch_est[mask]) / np.abs(batch_est[mask])
        max_grid_dev = max(max_grid_dev, float(np.max(dev)))

        for qi in (10, 50, 90):
            x = float(xs[qi])
            estimate, s, _, _, positions, scaled = running_sums(x, phis, ys, config.delta)
            # scalar and vectorized paths perform identical float ops
            assert estimate == streamed[qi]
            snapshot = np.zeros(phis.size)
            snapshot[positions] = np.array(scaled) / s
            closed = query_weights(x, phis, config)
            snap_dev = float(np.max(np.abs(snapshot - closed)))
            max_snap_dev = max(max_snap_dev, snap_dev)
    elapsed = time.perf_counter() - start
    ok = max_grid_dev <= 1e-10 and max_snap_dev <= 1e-12 and elapsed <= 10.0
    _report(
        3,
        "streaming-equals-batch",
        ok,
        f"seeds=20 max_rel_dev={max_grid_dev:.3e} "
        f"max_weight_dev={max_snap_dev:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_04_exact_support_sparsity():
    rng = np.random.default_rng(202404)
    checked = 0
    violations = 0
    while checked < 10_000:
        n = int(rng.integers(1, 41))
        phis = rng.uniform(-3.0, 3.0, n)
        x = float(rng.uniform(-2.0, 2.0))
        delta = float(rng.uniform(0.05, 1.5))
        margins = delta - np.abs(x - phis)
        if not np.any(margins > 0.0):
            continue
        weights = query_weights(x, phis, EstimatorConfig(delta=delta))
        inside = margins > 0.0
        if not (
            np.array_equal(weights == 0.0, ~inside)
            and np.array_equal(weights > 0.0, inside)
        ):
            violations += 1
        checked += 1
    ok = violations == 0
    _report(
        4,
        "exact-support-sparsity",
        ok,
        f"instances={checked} violations={violations}",
    )


def test_criterion_05_closed_form_achieves_optimum():
    rng = np.random.default_rng(505)
    checked = 0
    max_rel_dev = 0.0
    while checked < 10_000:
        n = int(rng.integers(1, 41))
        phis = rng.uniform(-3.0, 3.0, n)
        rng.normal(0.0, 1.0, n)  # outputs, which the objective does not use
        x = float(rng.uniform(-2.0, 2.0))
        delta = float(rng.uniform(0.05, 1.5))
        if not np.any(delta - np.abs(x - phis) > 0.0):
            continue
        config = EstimatorConfig(delta=delta)
        achieved = simplex_objective(query_weights(x, phis, config), x, phis, config)
        best = optimum(x, phis, config)
        max_rel_dev = max(max_rel_dev, abs(achieved - best) / best)
        checked += 1
    ok = max_rel_dev <= 1e-12
    _report(
        5,
        "closed-form-achieves-optimum",
        ok,
        f"instances={checked} max_rel_dev={max_rel_dev:.3e}",
    )


def test_criterion_06_error_bound_holds():
    start = time.perf_counter()
    grid = tuple(np.linspace(-2.8, 2.8, 21))
    total_violations = 0
    total_supported = 0
    for seed in range(1000):
        spec = ExperimentSpec(
            function=Sine(amplitude=1.0, frequency=1.0),
            config=EstimatorConfig(delta=0.5, l1=1.0),
            input_range=(-3.0, 3.0),
            noise_sigma=0.1,
            n_samples=500,
            seed=seed,
            query_grid=grid,
        )
        report = run_experiment(spec)
        total_violations += report.violation_count
        total_supported += report.supported_count
    elapsed = time.perf_counter() - start
    ok = total_violations == 0 and elapsed <= 30.0
    _report(
        6,
        "error-bound-holds",
        ok,
        f"seeds=1000 supported_queries={total_supported} "
        f"violations={total_violations} elapsed={elapsed:.2f}s",
    )


def test_criterion_07_noiseless_error_collapse():
    config = EstimatorConfig(delta=0.1, l1=1.0)
    spec = ExperimentSpec(
        function=Sine(amplitude=1.0, frequency=1.0),
        config=config,
        input_range=(-3.0, 3.0),
        noise_sigma=0.0,
        n_samples=10_000,
        seed=123,
        query_grid=tuple(np.linspace(-2.9, 2.9, 41)),
    )
    report = run_experiment(spec)
    cap = config.l1 * config.delta
    ok = (
        report.no_support_count == 0
        and report.max_abs_error is not None
        and report.max_abs_error <= cap
    )
    _report(
        7,
        "noiseless-error-collapse",
        ok,
        f"queries=41 max_abs_error={report.max_abs_error:.3e} cap={cap}",
    )


def test_criterion_08_order_invariance():
    config = EstimatorConfig(delta=0.25, l1=1.0)
    xs = np.linspace(-2.5, 2.5, 11)
    max_dev = 0.0
    for seed in range(100):
        rng = np.random.default_rng([77, seed])
        phis = rng.uniform(-3.0, 3.0, 300)
        ys = np.sin(phis) + rng.normal(0.0, 0.1, 300)

        base = StreamingGrid(xs, config)
        base.extend(phis, ys)
        base_est = base.estimates()
        base_counts = base.active_counts()
        mask = base_counts > 0

        for _ in range(10):
            perm = rng.permutation(300)
            engine = StreamingGrid(xs, config)
            engine.extend(phis[perm], ys[perm])
            assert np.array_equal(engine.active_counts(), base_counts)
            est = engine.estimates()
            if mask.any():
                dev = np.abs(est[mask] - base_est[mask]) / np.abs(base_est[mask])
                max_dev = max(max_dev, float(np.max(dev)))
    ok = max_dev <= 1e-10
    _report(
        8,
        "order-invariance",
        ok,
        f"seeds=100 permutations=10 max_rel_dev={max_dev:.3e}",
    )


def test_criterion_09_shift_and_scale_invariance():
    max_dev = 0.0
    count = 0
    for i in range(200):
        rng = np.random.default_rng([55, i])
        x, phis, config = random_instance(rng)
        base = query_weights(x, phis, config)
        for shift in (-10.0, 3.7):
            w = query_weights(x + shift, phis + shift, config)
            max_dev = max(max_dev, float(np.max(np.abs(w - base))))
        for scale in (0.5, 100.0):
            scaled_config = EstimatorConfig(delta=config.delta * scale, l1=config.l1)
            w = query_weights(x * scale, phis * scale, scaled_config)
            max_dev = max(max_dev, float(np.max(np.abs(w - base))))
        count += 1
    ok = max_dev <= 1e-12
    _report(
        9,
        "shift-and-scale-invariance",
        ok,
        f"instances={count} transforms=4 max_weight_dev={max_dev:.3e}",
    )


def _run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_10_cli_end_to_end():
    assert TINY_CSV.is_file()
    fit_argv = ["fit", "--input", str(TINY_CSV), "--delta", "1.0", "--grid-list", "0"]

    code, out = _run_main(fit_argv)
    fit_record = json.loads(out.strip())
    fit_ok = code == 0 and math.isclose(
        fit_record["estimate"], HAND_ESTIMATE, rel_tol=1e-12
    )

    code, out = _run_main(["stream", *fit_argv[1:]])
    stream_record = json.loads(out.strip())
    stream_ok = code == 0 and math.isclose(
        stream_record["estimate"], HAND_ESTIMATE, rel_tol=1e-12
    )

    first = subprocess.run(
        [sys.executable, "-m", "rdwo", *fit_argv], capture_output=True, check=False
    )
    second = subprocess.run(
        [sys.executable, "-m", "rdwo", *fit_argv], capture_output=True, check=False
    )
    rerun_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )

    verify_code, _ = _run_main(["verify"])
    fault_code, _ = _run_main(
        ["verify", "--instances", "10", "--seed", "0", "--inject-fault"]
    )
    verify_ok = verify_code == 0 and fault_code == 1

    ok = fit_ok and stream_ok and rerun_ok and verify_ok
    _report(
        10,
        "cli-end-to-end",
        ok,
        f"fit_ok={fit_ok} stream_ok={stream_ok} rerun_byte_identical={rerun_ok} "
        f"verify_pass_and_fault_trip={verify_ok}",
    )
