import dataclasses
import json
import math

import numpy as np
import pytest

from rdwo.cli import main
from rdwo.core import EstimatorConfig, sorted_windows, window_margins
from rdwo.simulate import (
    Atan,
    ExperimentSpec,
    PiecewiseLinear,
    QueryRecord,
    Sine,
    _dataset_arrays,
    _error_check,
    lipschitz_scan,
    load_spec,
    max_relative_deviation,
    run_experiment,
    stream_estimates,
)


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
    def test_valid_spec_roundtrips(self):
        spec = small_spec()
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_grid_shorthand(self):
        data = small_spec().to_dict()
        data["query_grid"] = {"min": -1.0, "max": 1.0, "count": 5}
        spec = ExperimentSpec.from_dict(data)
        assert spec.query_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)

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
        path.write_text(json.dumps(small_spec().to_dict()), encoding="utf-8")
        assert load_spec(path) == small_spec()

    def test_load_spec_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_spec(path)

    def test_load_spec_missing_field(self, tmp_path):
        data = small_spec().to_dict()
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
        phis, truths, noises, ys = a
        lo, hi = spec.input_range
        for column in a:
            assert column.shape == (100,) and np.all(np.isfinite(column))
        assert np.all((lo <= phis) & (phis <= hi))
        assert np.array_equal(ys, truths + noises)

    def test_noiseless_dataset(self):
        spec = small_spec(noise_sigma=0.0, n_samples=50)
        _, truths, noises, ys = _dataset_arrays(spec)
        assert np.all(noises == 0.0)
        assert np.array_equal(ys, truths)


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
        for x, record in zip(spec.query_grid, report.records):
            margins = [spec.config.delta - abs(x - phi) for phi in phis]
            active = [k for k, m in enumerate(margins) if m > 0.0]
            assert record.active_count == len(active) > 0
            total = math.fsum(margins[k] for k in active)
            smooth = math.fsum(margins[k] / total * abs(x - phis[k]) for k in active)
            noise = math.fsum(margins[k] / total * noises[k] for k in active)
            expected = spec.config.l1 * smooth + abs(noise)
            assert math.isclose(record.bound_z, expected, rel_tol=1e-12)


def edge_spec():
    """A noiseless line of slope l1 queried at the edge of the input range:
    every sample lies on one side of x, so the error equals the bound in
    exact arithmetic and rounding alone decides the comparison."""
    return ExperimentSpec(
        function=PiecewiseLinear(knots=((-10.0, -7.3), (10.0, 12.7))),
        config=EstimatorConfig(delta=0.05, l1=1.0),
        input_range=(0.37, 1.0),
        noise_sigma=0.0,
        n_samples=2000,
        seed=0,
        query_grid=(0.37, 1.0),
    )


class TestRoundingAllowance:
    def test_error_equal_to_the_bound_holds(self):
        report = run_experiment(edge_spec())
        assert report.violation_count == 0
        assert [r.bound_holds for r in report.records] == [True, True]
        # the computed error does exceed the computed bound at x = 0.37
        first = report.records[0]
        assert first.active_count == 163 and first.abs_error > first.bound_z

    def test_cli_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(edge_spec().to_dict()), encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 0
        assert '"violation_count": 0' in capsys.readouterr().out

    def test_a_real_bias_still_fails(self):
        spec = edge_spec()
        phis, truths, noises, ys = _dataset_arrays(spec)
        x = spec.query_grid[0]
        windows = sorted_windows(np.array([x]), phis, spec.config.delta)
        positions, distances, support = next(iter(windows))
        assert distances.tolist() == np.abs(x - phis[positions]).tolist()
        weights = support / float(np.sum(support))
        est = float(np.dot(weights, ys[positions]))
        truth = float(spec.function(x))
        args = (truth, weights, ys[positions], distances, noises[positions], 1.0)
        err, bound, holds = _error_check(est, *args)
        record = run_experiment(spec).records[0]
        assert (err, bound, holds) == (record.abs_error, record.bound_z, True)
        assert _error_check(est + 1e-9, *args)[2] is False
        assert _error_check(est - 1e-9, *args)[2] is True


def reference_records(spec):
    """Per-query records from the single-query window helper over all
    samples and a scalar target call per query point."""
    phis, _, noises, ys = _dataset_arrays(spec)
    records = []
    for x in spec.query_grid:
        truth = float(spec.function(x))
        positions, support = window_margins(x, phis, spec.config.delta)
        if positions.size == 0:
            records.append(QueryRecord(x, truth, None, None, None, None, 0))
            continue
        weights = support / float(np.sum(support))
        est = float(np.dot(weights, ys[positions]))
        err, bound, holds = _error_check(
            est,
            truth,
            weights,
            ys[positions],
            np.abs(x - phis[positions]),
            noises[positions],
            spec.config.l1,
        )
        records.append(QueryRecord(x, truth, est, err, bound, holds, positions.size))
    return records


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
    reference = reference_records(spec)
    assert report.records == tuple(reference)
    supported = [r.estimate is not None for r in reference]
    outside = [abs(x) > 1.5 for x in grid]
    assert any(supported) and not all(supported)
    assert any(s and o for s, o in zip(supported, outside))


class TestRunExperiment:
    def test_batch_report_shape(self):
        report = run_experiment(small_spec())
        assert len(report.records) == 11
        assert report.supported_count + report.no_support_count == 11
        assert report.violation_count == 0
        for r in report.records:
            if r.estimate is None:
                assert r.abs_error is None and r.bound_z is None
                assert r.active_count == 0
            else:
                assert math.isclose(r.abs_error, abs(r.estimate - r.truth))
                assert r.bound_holds
                assert r.active_count > 0

    def test_modes_agree(self):
        spec = small_spec(n_samples=2000)
        assert max_relative_deviation(run_experiment(spec), stream_estimates(spec)) <= 1e-10

    def test_unsupported_queries_reported(self):
        spec = small_spec(query_grid=(0.0, 50.0))
        report = run_experiment(spec)
        assert report.records[1].estimate is None
        assert report.no_support_count == 1

    def test_noiseless_errors_capped_by_window(self):
        spec = small_spec(noise_sigma=0.0, n_samples=5000, seed=11)
        report = run_experiment(spec)
        cap = spec.config.l1 * spec.config.delta
        assert report.supported_count > 0
        assert report.max_abs_error <= cap
        for r in report.records:
            if r.bound_z is not None:
                assert r.bound_z <= cap

    def test_report_to_dict(self):
        report = run_experiment(small_spec())
        data = report.to_dict()
        assert len(data["records"]) == len(report.records)
        assert data["violation_count"] == 0

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


class TestMaxRelativeDeviation:
    def test_zero_for_identical_reports(self):
        report = run_experiment(small_spec())
        assert max_relative_deviation(report, [r.estimate for r in report.records]) == 0.0

    def test_mismatched_grids_rejected(self):
        a = run_experiment(small_spec())
        b = run_experiment(small_spec(query_grid=(0.0,)))
        with pytest.raises(ValueError):
            max_relative_deviation(a, [r.estimate for r in b.records])

    @pytest.mark.parametrize("unsupported", [None, math.nan])
    def test_unsupported_against_an_estimate_rejected(self, unsupported):
        report = run_experiment(small_spec())
        estimates = [r.estimate for r in report.records]
        estimates[3] = unsupported
        with pytest.raises(ValueError):
            max_relative_deviation(report, estimates)

    @pytest.mark.parametrize("unsupported", [None, math.nan])
    def test_unsupported_queries_skipped(self, unsupported):
        report = run_experiment(small_spec(query_grid=(0.0, 50.0)))
        estimate = report.records[0].estimate
        assert max_relative_deviation(report, [estimate, unsupported]) == 0.0
        with pytest.raises(ValueError):
            max_relative_deviation(report, [estimate, estimate])
        shifted = estimate * (1.0 + 1e-9)
        assert max_relative_deviation(report, [shifted, unsupported]) == pytest.approx(
            1e-9, rel=1e-6
        )
