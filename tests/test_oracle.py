import math

import numpy as np
import pytest

from rdwo.core import EstimatorConfig, NoSupportError, query_weights
from rdwo.oracle import (
    MAX_ORACLE_SAMPLES,
    OracleForm,
    maximize_signed,
    maximize_simplex,
    random_instance,
)
from reference import optimum

CFG = EstimatorConfig(delta=1.0, l1=1.0)
HAND = np.array([-0.5, 0.2, 2.0])
HAND_OPTIMUM = 0.9433981132056605  # sqrt(0.89), also checked in test_core


class TestSimplexSearch:
    def test_hand_instance_reaches_the_closed_form(self):
        result = maximize_simplex(0.0, HAND, CFG)
        assert result.form is OracleForm.SIMPLEX
        assert abs(result.objective - HAND_OPTIMUM) <= 1e-6
        closed = query_weights(0.0, HAND, CFG)
        assert float(np.max(np.abs(np.array(result.weights) - closed))) <= 1e-3

    def test_single_sample(self):
        result = maximize_simplex(0.0, [0.3], CFG)
        assert result.weights == (1.0,)
        assert math.isclose(result.objective, 0.7, rel_tol=1e-12)

    def test_equal_margins_split_evenly(self):
        result = maximize_simplex(0.0, [-0.4, 0.4], CFG)
        assert abs(result.weights[0] - 0.5) <= 1e-3
        assert abs(result.weights[1] - 0.5) <= 1e-3

    def test_deterministic(self):
        a = maximize_simplex(0.0, HAND, CFG)
        b = maximize_simplex(0.0, HAND, CFG)
        assert a == b

    def test_budget_is_respected(self):
        result = maximize_simplex(0.0, HAND, CFG, budget=50)
        assert result.evaluations <= 50
        assert math.isfinite(result.objective)

    def test_no_support_raises(self):
        with pytest.raises(NoSupportError):
            maximize_simplex(0.0, [9.0], CFG)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            maximize_simplex(0.0, [], CFG)
        too_many = 0.01 * np.arange(MAX_ORACLE_SAMPLES + 1)
        with pytest.raises(ValueError):
            maximize_simplex(0.0, too_many, CFG)
        with pytest.raises(ValueError):
            maximize_simplex(0.0, HAND, CFG, budget=0)
        with pytest.raises(ValueError):
            maximize_simplex(math.nan, HAND, CFG)
        with pytest.raises(ValueError):
            maximize_simplex(0.0, [0.1, math.inf], CFG)


class TestSignedSearch:
    def test_hand_instance_matches_simplex_optimum(self):
        result = maximize_signed(0.0, HAND, CFG)
        assert result.form is OracleForm.SIGNED
        assert abs(result.objective - HAND_OPTIMUM) <= 1e-6
        # the out-of-window coordinate should carry no mass in either form
        assert abs(result.weights[2]) <= 1e-3

    def test_deterministic(self):
        a = maximize_signed(0.0, HAND, CFG)
        b = maximize_signed(0.0, HAND, CFG)
        assert a == b

    def test_no_support_raises(self):
        with pytest.raises(NoSupportError):
            maximize_signed(0.0, [9.0], CFG)


class TestSweep:
    def test_both_forms_agree_with_closed_form(self):
        worst_dev = 0.0
        worst_excess = -math.inf
        for i in range(30):
            rng = np.random.default_rng([500, i])
            x, phis, config = random_instance(rng, n_samples=2 + (i % 11))
            closed = optimum(x, phis, config)
            simplex = maximize_simplex(x, phis, config)
            signed = maximize_signed(x, phis, config)
            worst_dev = max(worst_dev, abs(simplex.objective - closed))
            worst_excess = max(worst_excess, signed.objective - closed)
        assert worst_dev <= 1e-6
        assert worst_excess <= 1e-6


BOTH_FORMS = pytest.mark.parametrize(
    "maximize, form",
    [(maximize_simplex, OracleForm.SIMPLEX), (maximize_signed, OracleForm.SIGNED)],
)


def verify_instance(seed, i):
    """Instance ``i`` of ``rdwo verify --seed <seed>``."""
    return random_instance(np.random.default_rng([seed, i]), n_samples=2 + (i % 11))


class TestKnownStalls:
    """Instances on which a step-halving search stalled 1.2e-6 to 7.9e-6 below
    the optimum, each with one active margin below 3e-3."""

    @BOTH_FORMS
    @pytest.mark.parametrize("seed, i", [(7, 18), (7, 141), (10, 153), (74857987, 139)])
    def test_reaches_the_closed_form(self, maximize, form, seed, i):
        x, phis, config = verify_instance(seed, i)
        result = maximize(x, phis, config)
        assert abs(result.objective - optimum(x, phis, config)) <= 1e-12


class TestBudgetAndEdges:
    @BOTH_FORMS
    @pytest.mark.parametrize("budget", [1, 2, 3, 7])
    def test_tiny_budgets(self, maximize, form, budget):
        x, phis, config = verify_instance(74857987, 139)
        result = maximize(x, phis, config, budget=budget)
        assert result.form is form
        assert result.evaluations <= budget
        assert math.isfinite(result.objective)
        assert abs(math.fsum(result.weights) - 1.0) <= 1e-12
        if form is OracleForm.SIMPLEX:
            assert min(result.weights) >= 0.0

    @BOTH_FORMS
    def test_single_sample(self, maximize, form):
        result = maximize(0.0, [-0.3], CFG)
        assert result.weights == (1.0,)
        assert math.isclose(result.objective, 0.7, rel_tol=1e-12)

    @BOTH_FORMS
    def test_equal_distances_keep_uniform_weights(self, maximize, form):
        phis = [0.25 * (-1) ** k for k in range(5)]
        result = maximize(0.0, phis, CFG)
        assert result.weights == (0.2,) * 5
        closed = optimum(0.0, phis, CFG)
        assert abs(result.objective - closed) <= 1e-12

    @BOTH_FORMS
    def test_sample_on_the_window_edge_gets_no_weight(self, maximize, form):
        phis = [1.0, 0.1, -0.6]
        result = maximize(0.0, phis, CFG)
        assert result.weights[0] == 0.0
        closed = query_weights(0.0, phis, CFG)
        assert float(np.max(np.abs(np.array(result.weights) - closed))) <= 1e-12
        assert abs(result.objective - optimum(0.0, phis, CFG)) <= 1e-12

    @BOTH_FORMS
    def test_out_of_window_samples_end_with_zero_weight(self, maximize, form):
        result = maximize(0.0, [*HAND, -3.5, 1.5], CFG)
        assert result.weights[2:] == (0.0, 0.0, 0.0)
        assert abs(result.objective - HAND_OPTIMUM) <= 1e-12


class TestRandomInstance:
    def test_deterministic(self):
        xa, phis_a, config_a = random_instance(np.random.default_rng(13))
        xb, phis_b, config_b = random_instance(np.random.default_rng(13))
        assert (xa, phis_a.tolist(), config_a) == (xb, phis_b.tolist(), config_b)

    def test_always_has_support(self):
        for i in range(40):
            x, phis, config = random_instance(np.random.default_rng(i))
            assert optimum(x, phis, config) > 0.0

    def test_default_sizes_in_range(self):
        sizes = {
            random_instance(np.random.default_rng(i))[1].size for i in range(60)
        }
        assert sizes <= set(range(2, MAX_ORACLE_SAMPLES + 1))
        assert len(sizes) > 3

    def test_explicit_size_and_indices(self):
        x, phis, config = random_instance(np.random.default_rng(0), n_samples=5)
        assert phis.shape == (5,)
        assert config.l1 == 1.0

    def test_size_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            random_instance(np.random.default_rng(0), n_samples=0)
        with pytest.raises(ValueError):
            random_instance(np.random.default_rng(0), n_samples=MAX_ORACLE_SAMPLES + 1)
