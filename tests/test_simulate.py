import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from rdwo import _moments, core
from rdwo.cli import main
from rdwo.core import EstimatorConfig, _sorted_windows, window_margins
from rdwo.simulate import (
    QUERY_HEADER,
    Atan,
    ExperimentSpec,
    PiecewiseLinear,
    Sine,
    _dataset_arrays,
    _error_check,
    lipschitz_scan,
    load_spec,
    max_relative_deviation,
    run_experiment,
)
from rdwo.streaming import StreamingGrid
from reference import in_phi_order

REPO = Path(__file__).resolve().parents[1]


def small_spec(**overrides):
    base = dict(
        function=Sine(amplitude=1.0, frequency=1.0),
        config=EstimatorConfig(delta=0.5, l1=1.0),
        input_range=(-3.0, 3.0),
        noise_sigma=0.1,
        n_samples=400,
        seed=5,
        query_grid=tuple(np.linspace(-2.5, 2.5, 11)),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# small_spec() as a JSON spec.
SMALL_SPEC = {
    "function": {"kind": "sine", "amplitude": 1.0, "frequency": 1.0},
    "delta": 0.5,
    "l1": 1.0,
    "input_range": [-3.0, 3.0],
    "noise_sigma": 0.1,
    "n_samples": 400,
    "seed": 5,
    "query_grid": [-2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
}


class TestTargetFunctions:
    def test_sine_slope_bound(self):
        assert Sine(amplitude=2.0, frequency=3.0).l1 == 6.0

    def test_sine_values(self):
        fn = Sine(amplitude=2.0, frequency=0.5)
        grid = np.array([0.0, 1.0, -2.0])
        np.testing.assert_allclose(fn(grid), 2.0 * np.sin(0.5 * grid))

    def test_atan(self):
        fn = Atan(scale=3.0)
        assert fn.l1 == 3.0
        assert math.isclose(float(fn(2.0)), math.atan(6.0), rel_tol=1e-15)

    def test_piecewise_linear(self):
        fn = PiecewiseLinear(knots=((-1.0, 0.0), (0.0, 2.0), (2.0, 1.0)))
        assert fn.l1 == 2.0
        assert float(fn(-0.5)) == 1.0
        assert float(fn(1.0)) == 1.5
        # clamped outside the knots
        assert float(fn(-5.0)) == 0.0
        assert float(fn(9.0)) == 1.0

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(knots=((0.0, 1.0),))
        with pytest.raises(ValueError):
            PiecewiseLinear(knots=((1.0, 0.0), (0.0, 1.0)))

    def test_lipschitz_scan_brackets_sine(self):
        scan = lipschitz_scan(Sine(1.0, 1.0), -3.0, 3.0)
        assert 0.99 <= scan <= 1.0 + 1e-9

    def test_lipschitz_scan_bad_range(self):
        with pytest.raises(ValueError):
            lipschitz_scan(Sine(), 1.0, 1.0)


class TestExperimentSpec:
    def test_json_spec_reads_as_constructed(self):
        assert ExperimentSpec.from_dict(SMALL_SPEC) == small_spec()

    def test_grid_shorthand(self):
        data = {**SMALL_SPEC, "query_grid": {"min": -1.0, "max": 1.0, "count": 5}}
        spec = ExperimentSpec.from_dict(data)
        assert spec.query_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)

    # Python arguments are checked where JSON values are, by the constructors.
    @pytest.mark.parametrize("build, change, message", [
        (lambda: EstimatorConfig(delta=True), {"delta": True}, "delta must be a number, got True"),
        (lambda: Sine(amplitude="2"), {"function": {"kind": "sine", "amplitude": "2"}},
         "amplitude must be a number, got '2'"),
        (lambda: PiecewiseLinear(knots=5), {"function": {"kind": "piecewise_linear", "knots": 5}},
         "knots must be a list of [x, y] pairs, got 5"),
        (lambda: small_spec(noise_sigma="0.1"), {"noise_sigma": "0.1"},
         "noise_sigma must be a number, got '0.1'"),
    ], ids=["config-bool", "sine-text", "knots-scalar", "spec-text"])
    def test_python_and_json_refused_alike(self, build, change, message):
        with pytest.raises(ValueError) as python:
            build()
        with pytest.raises(ValueError) as from_json:
            ExperimentSpec.from_dict({**SMALL_SPEC, **change})
        assert str(python.value) == str(from_json.value) == message

    def test_numpy_scalars_accepted(self):
        config = EstimatorConfig(delta=np.float32(0.5), l1=np.int64(2))
        assert (config.delta, config.l1) == (0.5, 2.0)
        assert type(config.delta) is float and type(config.l1) is float

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            small_spec(noise_sigma=-0.1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            small_spec(query_grid=())

    def test_rejects_undersized_l1(self):
        with pytest.raises(ValueError, match="dominate"):
            small_spec(config=EstimatorConfig(delta=0.5, l1=0.5))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            small_spec(input_range=(2.0, 2.0))

    def test_load_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL_SPEC), encoding="utf-8")
        assert load_spec(path) == small_spec()

    def test_load_spec_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_spec(path)

    def test_load_spec_missing_field(self, tmp_path):
        data = dict(SMALL_SPEC)
        del data["n_samples"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="n_samples"):
            load_spec(path)


class TestGenerateDataset:
    def test_deterministic_and_well_formed(self):
        spec = small_spec(n_samples=100)
        a = _dataset_arrays(spec)
        b = _dataset_arrays(spec)
        for first, again in zip(a, b):
            np.testing.assert_array_equal(first, again)
        phis, noises, ys = a
        lo, hi = spec.input_range
        for column in a:
            assert column.shape == (100,) and np.all(np.isfinite(column))
        assert np.all((lo <= phis) & (phis <= hi))
        assert np.array_equal(ys, spec.function(phis) + noises)

    def test_noiseless_dataset(self):
        spec = small_spec(noise_sigma=0.0, n_samples=50)
        phis, noises, ys = _dataset_arrays(spec)
        assert np.all(noises == 0.0)
        assert np.array_equal(ys, spec.function(phis))


class TestErrorBound:
    def test_matches_plain_arithmetic(self):
        spec = small_spec(
            n_samples=60,
            query_grid=(-2.0, 0.4, 1.7),
            config=EstimatorConfig(delta=0.5, l1=2.5),
        )
        rng = np.random.default_rng(spec.seed)
        phis = rng.uniform(*spec.input_range, spec.n_samples).tolist()
        noises = rng.normal(0.0, spec.noise_sigma, spec.n_samples).tolist()
        report = run_experiment(spec)
        for x, count, bound_z in zip(
            spec.query_grid, report.active_count.tolist(), report.bound_z.tolist()
        ):
            margins = [spec.config.delta - abs(x - phi) for phi in phis]
            active = [k for k, m in enumerate(margins) if m > 0.0]
            assert count == len(active) > 0
            total = math.fsum(margins[k] for k in active)
            smooth = math.fsum(margins[k] / total * abs(x - phis[k]) for k in active)
            noise = math.fsum(margins[k] / total * noises[k] for k in active)
            expected = spec.config.l1 * smooth + abs(noise)
            assert math.isclose(bound_z, expected, rel_tol=1e-12)


# A noiseless line of slope l1 queried at the edge of the input range: every
# sample lies on one side of x, so the error equals the bound in exact
# arithmetic and rounding alone decides the comparison.
EDGE_SPEC = {
    "function": {"kind": "piecewise_linear", "knots": [[-10.0, -7.3], [10.0, 12.7]]},
    "delta": 0.05,
    "l1": 1.0,
    "input_range": [0.37, 1.0],
    "noise_sigma": 0.0,
    "n_samples": 2000,
    "seed": 0,
    "query_grid": [0.37, 1.0],
}


def edge_spec():
    return ExperimentSpec.from_dict(EDGE_SPEC)


class TestRoundingAllowance:
    def test_error_equal_to_the_bound_holds(self):
        report = run_experiment(edge_spec())
        assert report.violation_count == 0
        assert report.bound_holds.tolist() == [True, True]
        # the computed error does exceed the computed bound at x = 0.37
        assert report.active_count[0] == 163 and report.abs_error[0] > report.bound_z[0]

    def test_cli_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(EDGE_SPEC), encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 0
        assert '"violation_count": 0' in capsys.readouterr().out

    def test_a_real_bias_still_fails(self):
        spec = edge_spec()
        phis, noises, ys = in_phi_order(*_dataset_arrays(spec))
        x = spec.query_grid[0]
        windows = _sorted_windows(np.array([x]), phis, spec.config.delta)
        a, b, distances, margins = next(iter(windows))
        assert distances.tolist() == np.abs(x - phis[a:b]).tolist()
        # The window sums run_experiment reads, as it reads them.
        sums = core._window_sums(np.array([x]), phis, spec.config.delta, (ys, noises), True, True)
        est, *sums = (sums[[4, 3, 5, 6, 7], 0] / sums[1, 0]).tolist()
        truth = float(spec.function(x))
        args = (truth, *sums, b - a, 1.0)
        err, bound, holds = _error_check(est, *args)
        report = run_experiment(spec)
        assert (err, bound, holds) == (report.abs_error[0], report.bound_z[0], True)
        assert bool(_error_check(est + 1e-9, *args)[2]) is False
        assert bool(_error_check(est - 1e-9, *args)[2]) is True


def window_means(scaled, window_ys, distances, window_noises):
    """The estimate w.y of one window, then the weighted sums _error_check
    takes after the estimate and the truth: w.|x - phi|, w.noise, w.|y| and
    w.|noise|; each a dot with the scaled margins r over their sum S, so
    with the weights w = r / S."""
    s = float(np.sum(scaled))
    columns = (window_ys, distances, window_noises, np.abs(window_ys), np.abs(window_noises))
    return [float(np.dot(scaled, v)) / s for v in columns]


def reference_columns(spec):
    """The query columns, keyed as QUERY_HEADER, from the single-query window
    helper over all samples in stable φ order and a scalar target call per
    query point; nan and False where a query has no support.  Then the
    scales ``w . |y|`` and ``l1 * w . |x - phi| + w . |noise|`` of the
    estimate and of the bound, keyed ``y_scale`` and ``bound_scale``."""
    phis, noises, ys = in_phi_order(*_dataset_arrays(spec))
    rows = []
    for x in spec.query_grid:
        truth = float(spec.function(x))
        positions, margins = window_margins(x, phis, spec.config.delta)
        if positions.size == 0:
            rows.append((x, truth, math.nan, math.nan, math.nan, False, 0, 0.0, 0.0))
            continue
        est, *sums = window_means(
            margins / spec.config.delta, ys[positions], np.abs(x - phis[positions]),
            noises[positions],
        )
        err, bound, holds = _error_check(
            est, truth, *sums, positions.size, spec.config.l1
        )
        rows.append((x, truth, est, float(err), float(bound), bool(holds), positions.size,
                     sums[2], spec.config.l1 * sums[0] + sums[3]))
    return dict(zip((*QUERY_HEADER, "y_scale", "bound_scale"), map(np.array, zip(*rows))))


# Each grid holds points outside the input range (-1.5, 1.5) that still
# have support, and points with none; the piecewise-linear one also holds
# every knot.
KNOTS = ((-2.0, -1.0), (-0.5, 0.5), (0.25, 0.125), (1.0, 1.0), (2.0, 2.5))


@pytest.mark.parametrize(
    "function, grid",
    [
        pytest.param(
            Sine(amplitude=1.5, frequency=2.0),
            (-9.0, -1.9, -1.5, -0.3, 0.0, 0.1, 1.0, 1.5, 1.8, 40.0),
            id="sine",
        ),
        pytest.param(
            Atan(scale=3.0), (-5.0, -1.6, -1.0, 0.0, 1e-3, 0.7, 1.49, 1.7, 2.2), id="atan"
        ),
        pytest.param(
            PiecewiseLinear(knots=KNOTS),
            (-7.0, *(a for a, _ in KNOTS), -1.2, 0.0, 0.6, 1.3, 1.75, 8.0),
            id="piecewise-linear",
        ),
    ],
)
def test_records_match_a_per_query_reference(function, grid):
    spec = small_spec(
        function=function,
        config=EstimatorConfig(delta=0.4, l1=function.l1),
        input_range=(-1.5, 1.5),
        n_samples=700,
        seed=23,
        query_grid=grid,
    )
    report = run_experiment(spec)
    reference = reference_columns(spec)
    for key in ("x", "truth", "bound_holds", "active_count"):
        assert np.array_equal(getattr(report, key), reference[key], equal_nan=True), key
    # The moment kernel sums these windows: each quotient of its sums is
    # within about 2 * _moments._MOMENT_TOL of its scale from the loop's.
    tol = 4 * _moments._MOMENT_TOL
    for key, scale in [("estimate", "y_scale"), ("abs_error", "y_scale"),
                       ("bound_z", "bound_scale")]:
        got, want = getattr(report, key), reference[key]
        assert np.array_equal(np.isnan(got), np.isnan(want)), key
        assert np.all(np.abs(got - want)[~np.isnan(want)]
                      <= tol * reference[scale][~np.isnan(want)]), key
    supported = (reference["active_count"] > 0).tolist()
    outside = [abs(x) > 1.5 for x in grid]
    assert any(supported) and not all(supported)
    assert any(s and o for s, o in zip(supported, outside))


class TestRunExperiment:
    def test_batch_report_shape(self):
        report = run_experiment(small_spec())
        assert all(getattr(report, key).shape == (11,) for key in QUERY_HEADER)
        assert report.supported_count + report.no_support_count == 11
        assert report.violation_count == 0
        for estimate, truth, abs_error, bound_z, holds, count in zip(
            *(getattr(report, key).tolist() for key in QUERY_HEADER[1:])
        ):
            if math.isnan(estimate):
                assert math.isnan(abs_error) and math.isnan(bound_z)
                assert count == 0
            else:
                assert math.isclose(abs_error, abs(estimate - truth))
                assert holds
                assert count > 0

    def test_modes_agree(self):
        spec = small_spec(n_samples=2000)
        report = run_experiment(spec)
        assert max_relative_deviation(report, report.stream_estimate) <= 1e-10

    def test_unsupported_queries_reported(self):
        spec = small_spec(query_grid=(0.0, 50.0))
        report = run_experiment(spec)
        assert math.isnan(report.estimate[1]) and report.active_count[1] == 0
        assert report.no_support_count == 1

    def test_noiseless_errors_capped_by_window(self):
        spec = small_spec(noise_sigma=0.0, n_samples=5000, seed=11)
        report = run_experiment(spec)
        cap = spec.config.l1 * spec.config.delta
        assert report.supported_count > 0
        assert report.max_abs_error <= cap
        for bound_z in report.bound_z.tolist():
            if not math.isnan(bound_z):
                assert bound_z <= cap

    def test_error_shrinks_with_more_data(self):
        # Monte Carlo stand-in for the asymptotic accuracy claim: averaged
        # over 100 seeds, 1e5 samples must beat 1e2 samples.
        small_means = []
        large_means = []
        grid = tuple(np.linspace(-2.0, 2.0, 9))
        for seed in range(100):
            for n, sink in ((100, small_means), (100_000, large_means)):
                spec = small_spec(
                    n_samples=n, seed=seed, query_grid=grid,
                    config=EstimatorConfig(delta=0.25, l1=1.0),
                )
                report = run_experiment(spec)
                if report.mean_abs_error is not None:
                    sink.append(report.mean_abs_error)
        assert np.mean(large_means) < np.mean(small_means)


def demo_spec():
    return load_spec(REPO / "demos" / "data" / "sine_experiment.json")


# Grids of an odd width, out of order with repeated points, of one point,
# and with queries without support.
GRID_SPECS = {
    "demo": demo_spec,
    "odd": lambda: small_spec(query_grid=tuple(np.linspace(-3.2, 3.2, 13))),
    "unsorted-duplicates": lambda: small_spec(
        query_grid=(2.0, -1.0, 0.5, 2.0, -1.0, 0.0, 0.5, -2.2, 2.0)
    ),
    "one": lambda: small_spec(query_grid=(0.25,)),
    "no-support": lambda: small_spec(query_grid=(50.0, 0.0, -1.0, 1.0, -50.0, 9.0)),
}


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoProcesses:
    """A run answers its whole grid in the calling process, however many
    CPUs it may use: the report is the one a serial pass gives, and no
    second process runs."""

    @pytest.mark.parametrize("make_spec", GRID_SPECS.values(), ids=GRID_SPECS)
    def test_stream_estimate_is_one_serial_pass(self, make_spec):
        spec = make_spec()
        report = run_experiment(spec)
        phis, _, ys = _dataset_arrays(spec)
        engine = StreamingGrid(np.asarray(spec.query_grid), spec.config)
        engine.extend(phis, ys)
        serial = engine.estimates()
        supported = report.active_count > 0
        assert np.array_equal(np.isnan(report.stream_estimate), ~supported)
        assert (report.stream_estimate[supported] == serial[supported]).all()
        assert max_relative_deviation(report, report.stream_estimate) <= 1e-10

    def test_a_wide_grid_on_two_cpus_forks_nothing(self, monkeypatch):
        forks = []

        def fork():
            forks.append(os.getpid())
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", fork)
        spec = small_spec(n_samples=300, query_grid=tuple(np.linspace(-3.0, 3.0, 1000)))
        report = run_experiment(spec)
        assert forks == []
        assert report.supported_count == 1000
        assert_no_child()

    def test_windows_of_several_dot_blocks(self):
        # delta 0.5 on a range of width 6: a window expects n / 6 samples,
        # here about 2.5 blocks of core._DOT_BLOCK, each summed on one thread
        spec = small_spec(n_samples=15 * core._DOT_BLOCK, query_grid=(-1.0, 1.0, 0.0))
        report = run_experiment(spec)
        assert report.active_count.min() > 2 * core._DOT_BLOCK
        reference = reference_columns(spec)
        for key in ("active_count", "bound_holds"):
            assert np.array_equal(getattr(report, key), reference[key]), key
        tol = 4 * _moments._MOMENT_TOL
        assert np.all(np.abs(report.estimate - reference["estimate"])
                      <= tol * reference["y_scale"])


class TestMaxRelativeDeviation:
    def test_zero_for_identical_reports(self):
        report = run_experiment(small_spec())
        assert max_relative_deviation(report, report.estimate.tolist()) == 0.0

    def test_mismatched_grids_rejected(self):
        a = run_experiment(small_spec())
        b = run_experiment(small_spec(query_grid=(0.0,)))
        with pytest.raises(ValueError, match="^1 estimates for 11 queries$"):
            max_relative_deviation(a, b.estimate.tolist())

    @pytest.mark.parametrize("unsupported", [None, math.nan])
    def test_unsupported_against_an_estimate_rejected(self, unsupported):
        report = run_experiment(small_spec())
        estimates = report.estimate.tolist()
        estimates[3] = unsupported
        with pytest.raises(ValueError):
            max_relative_deviation(report, estimates)

    @pytest.mark.parametrize("unsupported", [None, math.nan])
    def test_unsupported_queries_skipped(self, unsupported):
        report = run_experiment(small_spec(query_grid=(0.0, 50.0)))
        estimate = report.estimate[0].item()
        assert max_relative_deviation(report, [estimate, unsupported]) == 0.0
        with pytest.raises(ValueError):
            max_relative_deviation(report, [estimate, estimate])
        # the gap is relative to the query's w . |y|
        shifted = estimate + 1e-9 * report.y_magnitude[0].item()
        assert max_relative_deviation(report, [shifted, unsupported]) == pytest.approx(
            1e-9, rel=1e-6
        )

    def test_support_message_prints_a_plain_float(self):
        # the x of the report's column prints as a Python float, not np.float64(...)
        report = run_experiment(small_spec(query_grid=(0.0, 50.0)))
        estimate = report.estimate[0].item()
        with pytest.raises(ValueError) as info:
            max_relative_deviation(report, [estimate, estimate])
        assert str(info.value) == "support differs from the report's at x=50.0"
        assert "np.float64" not in str(info.value)
