import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdwo import core
from rdwo.core import (
    EstimatorConfig,
    NoSupportError,
    grid_solve,
    query_weights,
    simplex_objective,
    window_margins,
)
from rdwo.dataio import InputFormatError, iter_samples
from rdwo.oracle import signed_objective
from rdwo.simulate import load_spec
from reference import optimum

CFG = EstimatorConfig(delta=1.0, l1=1.0)
HAND_PHIS = np.array([-0.5, 0.2, 2.0])
HAND_YS = np.array([1.0, 2.0, 100.0])

# Hand-derived reference values for the three-sample instance at x = 0:
# margins [0.5, 0.8, -1.0], active {1, 2}, weights [0.5/1.3, 0.8/1.3, 0],
# estimate 21/13, optimum sqrt(0.5^2 + 0.8^2).
HAND_ESTIMATE = 21.0 / 13.0
HAND_OPTIMUM = 0.9433981132056605  # sqrt(0.89)
UNIFORM_OBJECTIVE = 0.17320508075688773  # 0.1 * sqrt(3)


@st.composite
def instances(draw, min_n=1, max_n=20, require_active=True):
    n = draw(st.integers(min_n, max_n))
    phis = draw(
        st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    )
    ys = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    x = draw(st.floats(-2.0, 2.0))
    delta = draw(st.floats(0.05, 2.0))
    config = EstimatorConfig(delta=delta, l1=1.0)
    if require_active:
        assume(any(abs(x - p) < delta for p in phis))
    return x, np.array(phis), np.array(ys), config


def one_row(tmp_path, row):
    path = tmp_path / "data.csv"
    path.write_text(f"k,phi,y\n{row}\n", encoding="utf-8")
    return list(iter_samples(path))


class TestSample:
    """A sample is a row ``(k, phi, y)`` of the CSV grammar."""

    def test_valid(self, tmp_path):
        assert one_row(tmp_path, "3,0.5,-1.0") == [(3, 0.5, -1.0)]

    def test_index_must_be_positive(self, tmp_path):
        with pytest.raises(InputFormatError):
            one_row(tmp_path, "0,0.0,0.0")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, tmp_path, bad):
        with pytest.raises(InputFormatError):
            one_row(tmp_path, f"1,{bad},0.0")
        with pytest.raises(InputFormatError):
            one_row(tmp_path, f"1,0.0,{bad}")


class TestEstimatorConfig:
    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            EstimatorConfig(delta=delta)

    @pytest.mark.parametrize("l1", [0.0, -0.5])
    def test_rejects_bad_l1(self, l1):
        with pytest.raises(ValueError):
            EstimatorConfig(delta=1.0, l1=l1)


def outcome(call, *args):
    """What ``call(*args)`` returns, each float as its repr so that -0.0
    counts, or the message of the ValueError it raises."""
    try:
        return [(type(item), repr(item)) for item in call(*args)]
    except ValueError as error:
        return str(error)


LIST_ITEMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "1.0", 2**1024, -(2**1100)]),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=True).map(np.float64),
)


class TestNumbers:
    """A spec's lists: the one pass over finite built-in floats gives what
    the item-by-item path gives, value or message."""

    @given(st.lists(LIST_ITEMS, max_size=8))
    def test_same_as_item_by_item(self, value):
        def item_by_item(name, value):
            return tuple(core._number(f"{name} item", item) for item in value)

        assert outcome(core._numbers, "query_grid", value) == outcome(item_by_item, "query_grid", value)
        assert outcome(core._numbers, "grid", tuple(value)) == outcome(item_by_item, "grid", value)

    def test_an_even_grid_and_a_seed_check_no_point(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        spec = {"function": {"kind": "sine"}, "delta": 0.5, "l1": 1.0,
                "input_range": [-3.0, 3.0], "noise_sigma": 0.1, "n_samples": 10, "seed": 7,
                "query_grid": {"min": -2.9, "max": 2.9, "count": 1000}}
        path.write_text(json.dumps(spec), encoding="utf-8")
        names, number = [], core._number

        def spy(name, value):
            names.append(name)
            return number(name, value)

        monkeypatch.setattr(core, "_number", spy)
        loaded = load_spec(path)
        seeded = dataclasses.replace(loaded, seed=8)
        assert len(seeded.query_grid) == 1000 and seeded.query_grid == loaded.query_grid
        assert "query_grid item" not in names
        # A grid of ints still goes item by item, through the spy.
        spec["query_grid"] = [-2, 0, 2]
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert load_spec(path).query_grid == (-2.0, 0.0, 2.0)
        assert names.count("query_grid item") == 3


class TestCenteredDistance:
    """Margins ``delta - |x - phi|`` of single regressors."""

    def test_at_query_point(self):
        positions, margins = window_margins(0.0, np.array([0.0]), 1.0)
        assert positions.tolist() == [0] and margins.tolist() == [1.0]

    def test_outside_window(self):
        positions, margins = window_margins(2.0, np.array([3.5]), 1.0)
        assert positions.size == 0 and margins.size == 0
        assert simplex_objective([1.0], 2.0, [3.5], CFG) == -0.5

    def test_boundary_is_outside(self):
        positions, _ = window_margins(0.0, np.array([1.0]), 1.0)
        assert positions.size == 0
        assert simplex_objective([1.0], 0.0, [1.0], CFG) == 0.0

    def test_margin_is_distance_to_nearer_endpoint(self):
        _, margins = window_margins(0.0, np.array([0.2]), 1.0)
        assert margins[0] == min(abs(0.2 - (0.0 - 1.0)), abs(0.2 - (0.0 + 1.0)))

    @given(
        x=st.floats(-2.0, 2.0),
        phi=st.floats(-3.0, 3.0),
        delta=st.floats(0.05, 2.0),
    )
    def test_endpoint_identity(self, x, phi, delta):
        positions, margins = window_margins(x, np.array([phi]), delta)
        if positions.size == 0:
            return
        nearer = min(abs(phi - (x - delta)), abs(phi - (x + delta)))
        assert math.isclose(margins[0], nearer, rel_tol=1e-12, abs_tol=1e-12)

    def test_rejects_nonfinite_query(self):
        with pytest.raises(ValueError):
            query_weights(math.nan, np.array([0.0]), CFG)
        with pytest.raises(ValueError):
            query_weights(0.0, np.array([0.0, math.inf]), CFG)


class TestActiveSet:
    """The active set is the positions ``window_margins`` gives."""

    def test_hand_instance(self):
        assert window_margins(0.0, HAND_PHIS, 1.0)[0].tolist() == [0, 1]

    def test_matches_brute_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            phis = rng.uniform(-2, 2, n)
            x = float(rng.uniform(-1, 1))
            delta = float(rng.uniform(0.1, 1.5))
            brute = [k for k, p in enumerate(phis.tolist()) if delta - abs(x - p) > 0.0]
            assert window_margins(x, phis, delta)[0].tolist() == brute

    def test_boundary_sample_excluded(self):
        assert window_margins(0.0, np.array([1.0]), 1.0)[0].tolist() == []

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            query_weights(0.0, np.array([]), CFG)

    def test_members_must_increase(self):
        rng = np.random.default_rng(4)
        phis = rng.uniform(-2, 2, 200)
        positions, _ = window_margins(0.3, phis, 0.8)
        assert positions.size > 1 and np.all(np.diff(positions) > 0)


class TestBatchWeights:
    def test_hand_instance(self):
        weights = query_weights(0.0, HAND_PHIS, CFG)
        np.testing.assert_allclose(
            weights, [0.5 / 1.3, 0.8 / 1.3, 0.0], rtol=0, atol=1e-15
        )
        assert weights[2] == 0.0
        assert np.flatnonzero(weights).tolist() == [0, 1]
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
        achieved = simplex_objective(weights, 0.0, HAND_PHIS, CFG)
        assert math.isclose(achieved, HAND_OPTIMUM, rel_tol=1e-12)

    def test_symmetric_pair_gets_exact_halves(self):
        weights = query_weights(0.0, np.array([-0.4, 0.4]), CFG)
        assert weights[0] == 0.5 and weights[1] == 0.5

    def test_single_active_sample_takes_all(self):
        weights = query_weights(0.0, np.array([0.3, 5.0]), CFG)
        assert weights[0] == 1.0 and weights[1] == 0.0

    def test_no_support_raises(self):
        with pytest.raises(NoSupportError):
            query_weights(0.0, np.array([5.0]), CFG)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            query_weights(0.0, [], CFG)

    def test_arrays_twin_agrees(self):
        # The one-query weights and the grid solve give the same support,
        # estimate and objective.
        weights = query_weights(0.0, HAND_PHIS, CFG)
        estimates, counts, objectives, sums = grid_solve([0.0], HAND_PHIS, HAND_YS, CFG)
        assert np.count_nonzero(weights) == counts[0]
        assert float(np.dot(weights, HAND_YS)) == estimates[0]
        _, margins = window_margins(0.0, HAND_PHIS, 1.0)
        assert np.array_equal(weights[weights > 0.0], margins / sums[0])
        assert math.isclose(
            simplex_objective(weights, 0.0, HAND_PHIS, CFG), objectives[0], rel_tol=1e-15
        )

    @given(instances())
    @settings(max_examples=150)
    def test_simplex_invariants(self, inst):
        x, phis, _, config = inst
        weights = query_weights(x, phis, config)
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
        assert np.all(weights >= 0.0)
        margins = config.delta - np.abs(x - phis)
        assert np.all(weights[margins <= 0.0] == 0.0)
        assert np.all(weights[margins > 0.0] > 0.0)
        assert np.flatnonzero(weights).tolist() == window_margins(x, phis, config.delta)[0].tolist()

    @given(instances())
    @settings(max_examples=100)
    def test_achieves_the_optimum(self, inst):
        x, phis, _, config = inst
        achieved = simplex_objective(query_weights(x, phis, config), x, phis, config)
        assert math.isclose(achieved, optimum(x, phis, config), rel_tol=1e-12)

    @given(instances(min_n=2))
    @settings(max_examples=100)
    def test_uniform_weights_never_beat_it(self, inst):
        x, phis, _, config = inst
        n = phis.size
        uniform = simplex_objective([1.0 / n] * n, x, phis, config)
        assert uniform <= optimum(x, phis, config) * (1.0 + 1e-12) + 1e-15

    @given(instances(min_n=2))
    @settings(max_examples=100)
    def test_deleting_inactive_samples_changes_nothing(self, inst):
        x, phis, ys, config = inst
        keep, _ = window_margins(x, phis, config.delta)
        assume(keep.size < phis.size)
        full = query_weights(x, phis, config)
        kept = query_weights(x, phis[keep], config)
        assert np.array_equal(kept, full[keep])
        est_full = float(np.dot(full, ys))
        est_kept = float(np.dot(kept, ys[keep]))
        assert math.isclose(est_full, est_kept, rel_tol=1e-12, abs_tol=1e-12)


class TestEstimate:
    def test_hand_instance(self):
        weights = query_weights(0.0, HAND_PHIS, CFG)
        assert abs(float(np.dot(weights, HAND_YS)) - HAND_ESTIMATE) <= 1e-12

    def test_equal_weights_average(self):
        weights = query_weights(0.0, np.array([-0.4, 0.4]), CFG)
        assert float(np.dot(weights, [1.0, 3.0])) == 2.0

    def test_length_mismatch_rejected(self):
        weights = query_weights(0.0, HAND_PHIS, CFG)
        with pytest.raises(ValueError):
            np.dot(weights, HAND_YS[:2])


class TestObjectives:
    def test_single_coordinate_value(self):
        assert simplex_objective([1.0, 0.0, 0.0], 0.0, HAND_PHIS, CFG) == 0.5

    def test_uniform_value(self):
        val = simplex_objective([1 / 3, 1 / 3, 1 / 3], 0.0, HAND_PHIS, CFG)
        assert math.isclose(val, UNIFORM_OBJECTIVE, rel_tol=1e-12)
        assert val < HAND_OPTIMUM

    def test_optimal_objective_hand_value(self):
        assert math.isclose(optimum(0.0, HAND_PHIS, CFG), HAND_OPTIMUM, rel_tol=1e-13)

    def test_optimal_objective_no_support(self):
        assert math.isnan(optimum(0.0, np.array([9.0]), CFG))
        with pytest.raises(NoSupportError):
            query_weights(0.0, np.array([9.0]), CFG)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ZeroDivisionError):
            simplex_objective([0.0, 0.0, 0.0], 0.0, HAND_PHIS, CFG)
        with pytest.raises(ZeroDivisionError):
            signed_objective([0.0, 0.0, 0.0], 0.0, HAND_PHIS, CFG)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simplex_objective([0.5, 0.5], 0.0, HAND_PHIS, CFG)

    def test_forms_agree_on_hand_solution(self):
        weights = query_weights(0.0, HAND_PHIS, CFG)
        a = simplex_objective(weights, 0.0, HAND_PHIS, CFG)
        b = signed_objective(weights, 0.0, HAND_PHIS, CFG)
        assert math.isclose(a, b, rel_tol=1e-12)

    @given(instances(min_n=1, max_n=10), st.data())
    @settings(max_examples=100)
    def test_forms_agree_on_simplex_inputs(self, inst, data):
        x, phis, _, config = inst
        n = phis.size
        raw = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        )
        total = sum(raw)
        assume(total > 1e-3)
        w = [v / total for v in raw]
        a = simplex_objective(w, x, phis, config)
        b = signed_objective(w, x, phis, config)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    @given(instances(min_n=1, max_n=10), st.data())
    @settings(max_examples=100)
    def test_signed_form_never_beats_the_optimum(self, inst, data):
        x, phis, _, config = inst
        n = phis.size
        raw = data.draw(
            st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
        )
        total = sum(raw)
        assume(abs(total) > 0.1)
        w = [v / total for v in raw]
        assert signed_objective(w, x, phis, config) <= optimum(x, phis, config) + 1e-9


class TestInvariance:
    @given(instances(), st.sampled_from([-10.0, 3.7, 0.25]))
    @settings(max_examples=100)
    def test_translation_leaves_weights(self, inst, shift):
        x, phis, _, config = inst
        assume(optimum(x, phis, config) > 1e-6)
        base = query_weights(x, phis, config)
        shifted = query_weights(x + shift, phis + shift, config)
        assert float(np.max(np.abs(shifted - base))) <= 1e-9

    @given(instances(), st.sampled_from([0.5, 100.0, 7.0]))
    @settings(max_examples=100)
    def test_scaling_leaves_weights(self, inst, scale):
        x, phis, _, config = inst
        assume(optimum(x, phis, config) > 1e-6)
        base = query_weights(x, phis, config)
        scaled_config = EstimatorConfig(delta=config.delta * scale, l1=config.l1)
        scaled = query_weights(x * scale, phis * scale, scaled_config)
        assert float(np.max(np.abs(scaled - base))) <= 1e-9


class TestGridEstimates:
    def test_matches_per_point_solutions(self):
        rng = np.random.default_rng(9)
        phis = rng.uniform(-2, 2, 200)
        ys = rng.normal(0, 1, 200)
        xs = np.linspace(-1.5, 1.5, 7)
        config = EstimatorConfig(delta=0.4, l1=1.0)
        ests, counts, _, _ = grid_solve(xs, phis, ys, config)
        for i, x in enumerate(xs):
            weights = query_weights(float(x), phis, config)
            assert counts[i] == np.count_nonzero(weights)
            assert math.isclose(
                ests[i], float(np.dot(weights, ys)), rel_tol=1e-12, abs_tol=1e-12
            )

    def test_no_support_is_nan(self):
        ests, counts, _, _ = grid_solve(
            np.array([0.0, 50.0]), np.array([0.1]), np.array([2.0]), CFG
        )
        assert math.isclose(ests[0], 2.0)
        assert counts[0] == 1
        assert math.isnan(ests[1]) and counts[1] == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            grid_solve(np.array([0.0]), np.array([1.0, 2.0]), np.array([1.0]), CFG)
