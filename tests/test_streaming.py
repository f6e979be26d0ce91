import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdwo.core import (
    EstimatorConfig,
    NoSupportError,
    Sample,
    batch_weights,
    batch_weights_arrays,
    estimate,
    optimal_objective,
)
from rdwo import streaming
from rdwo.streaming import (
    Absorbed,
    LedgerDisabledError,
    RecursiveState,
    Skipped,
    StreamingGrid,
)

CFG = EstimatorConfig(delta=1.0, l1=1.0)
HAND = [Sample(1, -0.5, 1.0), Sample(2, 0.2, 2.0), Sample(3, 2.0, 100.0)]


@st.composite
def streams(draw, min_n=1, max_n=25):
    n = draw(st.integers(min_n, max_n))
    phis = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    x = draw(st.floats(-2.0, 2.0))
    delta = draw(st.floats(0.05, 2.0))
    samples = [Sample(k + 1, p, y) for k, (p, y) in enumerate(zip(phis, ys))]
    return x, samples, EstimatorConfig(delta=delta, l1=1.0)


class TestRecursiveState:
    def test_hand_sequence(self):
        state = RecursiveState(0.0, CFG)
        first = state.update(HAND[0])
        assert isinstance(first, Absorbed)
        assert first.reweight == 0.0 and first.new_weight == 1.0
        assert state.estimate == 1.0

        second = state.update(HAND[1])
        assert isinstance(second, Absorbed)
        assert math.isclose(second.reweight, 0.5 / 1.3, rel_tol=1e-12)
        assert second.new_weight == 1.0 - second.reweight

        third = state.update(HAND[2])
        assert isinstance(third, Skipped)

        assert state.n_seen == 3 and state.n_active == 2
        assert abs(state.estimate - 21.0 / 13.0) <= 1e-12
        batch = estimate(batch_weights(0.0, HAND, CFG), HAND)
        assert math.isclose(state.estimate, batch, rel_tol=1e-12)

    def test_fourth_sample_rescale(self):
        state = RecursiveState(0.0, CFG)
        for s in HAND:
            state.update(s)
        outcome = state.update(Sample(4, 0.1, 5.0))
        assert isinstance(outcome, Absorbed)
        # margin 0.9 joins support 1.3, so the old weights shrink by 1.3/2.2
        assert math.isclose(outcome.reweight, 1.3 / 2.2, rel_tol=1e-12)
        assert math.isclose(outcome.new_weight, 0.9 / 2.2, rel_tol=1e-12)
        assert math.isclose(state.support_sum, 2.2, rel_tol=1e-12)

    def test_estimate_is_none_before_any_absorption(self):
        state = RecursiveState(0.0, CFG)
        assert state.estimate is None
        state.update(Sample(1, 9.0, 3.0))
        assert state.estimate is None
        assert state.n_seen == 1 and state.n_active == 0

    def test_boundary_sample_is_skipped(self):
        state = RecursiveState(0.0, CFG)
        assert isinstance(state.update(Sample(1, 1.0, 3.0)), Skipped)

    def test_tiny_margins_match_fraction_reference(self):
        # 2e5 samples of margin 1, then 1e6 of margin 2**-53: each tiny margin
        # vanishes when added to the running sum, so its weight must come out
        # as its own share of about 5.6e-22, not as a share of one ulp.
        config = EstimatorConfig(delta=1.0, l1=1.0)
        state = RecursiveState(0.0, config)
        big = Sample(1, 0.0, 1.0)
        tiny = Sample(2, 1.0 - 2.0**-53, 11.0)
        for _ in range(200_000):
            state.update(big)
        for _ in range(1_000_000):
            outcome = state.update(tiny)
        assert state.support_sum == 200_000.0
        assert outcome.reweight == 1.0 and 0.0 < outcome.new_weight < 1e-21
        d = Fraction(2) ** -53
        exact = (200_000 * 1 + 1_000_000 * d * 11) / (200_000 + 1_000_000 * d)
        assert abs(Fraction(state.estimate) - exact) / exact <= Fraction(1, 10**14)

    @given(streams())
    @settings(max_examples=100)
    def test_prefixes_match_batch(self, stream):
        x, samples, config = stream
        state = RecursiveState(x, config)
        for k in range(len(samples)):
            state.update(samples[k])
            prefix = samples[: k + 1]
            try:
                batch = estimate(batch_weights(x, prefix, config), prefix)
            except NoSupportError:
                assert state.estimate is None
                continue
            rel = abs(state.estimate - batch) / max(abs(batch), 1e-300)
            assert rel <= 1e-10 or abs(state.estimate - batch) <= 1e-12

    @given(streams(min_n=2), st.randoms(use_true_random=False))
    @settings(max_examples=75)
    def test_order_invariance(self, stream, rnd):
        x, samples, config = stream
        assume(any(abs(x - s.phi) < config.delta for s in samples))
        state = RecursiveState(x, config)
        for s in samples:
            state.update(s)
        shuffled = list(samples)
        rnd.shuffle(shuffled)
        other = RecursiveState(x, config)
        for s in shuffled:
            other.update(s)
        rel = abs(state.estimate - other.estimate) / max(abs(state.estimate), 1e-300)
        assert rel <= 1e-10 or abs(state.estimate - other.estimate) <= 1e-12

    @given(streams())
    @settings(max_examples=100)
    def test_rescale_invariants(self, stream):
        x, samples, config = stream
        state = RecursiveState(x, config)
        absorbed = 0
        for s in samples:
            outcome = state.update(s)
            if isinstance(outcome, Skipped):
                continue
            absorbed += 1
            assert (outcome.reweight == 0.0) == (absorbed == 1)
            assert 0.0 < outcome.new_weight <= 1.0
            assert abs(outcome.reweight + outcome.new_weight - 1.0) <= 2.0**-51


class TestWeightsSnapshot:
    def test_hand_snapshot(self):
        state = RecursiveState(0.0, CFG, diagnostics=True)
        for s in HAND + [Sample(4, 0.1, 5.0)]:
            state.update(s)
        snap = state.weights_snapshot()
        np.testing.assert_allclose(
            snap.weights,
            [0.5 / 2.2, 0.8 / 2.2, 0.0, 0.9 / 2.2],
            rtol=0,
            atol=1e-15,
        )
        assert snap.weights[2] == 0.0
        assert snap.active.members == (1, 2, 4)

    def test_matches_batch_weights(self):
        rng = np.random.default_rng(21)
        phis = rng.uniform(-2, 2, 500)
        ys = rng.normal(0, 1, 500)
        config = EstimatorConfig(delta=0.5, l1=1.0)
        state = RecursiveState(0.25, config, diagnostics=True)
        for k, (p, y) in enumerate(zip(phis, ys), start=1):
            state.update(Sample(k, float(p), float(y)))
        snap = state.weights_snapshot()
        sol = batch_weights_arrays(0.25, phis, config)
        scale = np.maximum(np.abs(sol.weights), 1e-300)
        assert float(np.max(np.abs(snap.weights - sol.weights) / scale)) <= 1e-12
        assert math.isclose(
            snap.objective, optimal_objective_of_arrays(0.25, phis, config), rel_tol=1e-12
        )

    def test_requires_diagnostics(self):
        state = RecursiveState(0.0, CFG)
        state.update(HAND[0])
        with pytest.raises(LedgerDisabledError):
            state.weights_snapshot()

    def test_requires_support(self):
        state = RecursiveState(0.0, CFG, diagnostics=True)
        with pytest.raises(NoSupportError):
            state.weights_snapshot()


def optimal_objective_of_arrays(x, phis, config):
    samples = [Sample(k + 1, float(p), 0.0) for k, p in enumerate(phis)]
    return optimal_objective(x, samples, config)


class TestStreamingGrid:
    def test_bit_identical_to_scalar_states(self):
        rng = np.random.default_rng(4)
        phis = rng.uniform(-3, 3, 400)
        ys = rng.normal(0, 2, 400)
        xs = np.linspace(-2, 2, 9)
        config = EstimatorConfig(delta=0.35, l1=1.0)
        grid = StreamingGrid(xs, config)
        scalars = [RecursiveState(float(x), config) for x in xs]
        for k, (p, y) in enumerate(zip(phis, ys), start=1):
            grid.update(float(p), float(y))
            for st_ in scalars:
                st_.update(Sample(k, float(p), float(y)))
        ests = grid.estimates()
        for i, st_ in enumerate(scalars):
            if st_.estimate is None:
                assert math.isnan(ests[i])
            else:
                assert ests[i] == st_.estimate
            assert grid.support_sum[i] == st_.support_sum
            assert grid.support_sq_sum[i] == st_.support_sq_sum
            assert grid.n_active[i] == st_.n_active

    @given(streams(min_n=1, max_n=30))
    @settings(max_examples=50)
    def test_bit_identical_small_streams(self, stream):
        x, samples, config = stream
        grid = StreamingGrid(np.array([x]), config)
        scalar = RecursiveState(x, config)
        for s in samples:
            grid.update(s.phi, s.y)
            scalar.update(s)
        est = grid.estimates()[0]
        if scalar.estimate is None:
            assert math.isnan(est)
        else:
            assert est == scalar.estimate

    def test_objectives_and_counts(self):
        grid = StreamingGrid(np.array([0.0, 10.0]), CFG)
        grid.update(-0.5, 1.0)
        grid.update(0.2, 2.0)
        objs = grid.objectives()
        assert math.isclose(objs[0], math.sqrt(0.89), rel_tol=1e-12)
        assert math.isnan(objs[1])
        assert list(grid.active_counts()) == [2, 0]
        assert grid.n_seen == 2

    def test_extend_matches_update_loop(self):
        rng = np.random.default_rng(8)
        phis = rng.uniform(-1, 1, 50)
        ys = rng.normal(0, 1, 50)
        xs = np.array([-0.5, 0.0, 0.5])
        a = StreamingGrid(xs, CFG)
        a.extend(phis, ys)
        b = StreamingGrid(xs, CFG)
        for p, y in zip(phis, ys):
            b.update(float(p), float(y))
        assert np.array_equal(a.estimates(), b.estimates(), equal_nan=True)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            StreamingGrid(np.array([]), CFG)
        with pytest.raises(ValueError):
            StreamingGrid(np.array([0.0, math.nan]), CFG)
        grid = StreamingGrid(np.array([0.0]), CFG)
        with pytest.raises(ValueError):
            grid.update(math.nan, 1.0)
        assert grid.n_seen == 0

    def test_grid_is_readonly(self):
        grid = StreamingGrid(np.array([0.0, 1.0]), CFG)
        with pytest.raises(ValueError):
            grid.xs[0] = 5.0


def run_three_ways(xs, delta, phis, ys):
    """Feed one stream to ``extend``, to a loop of ``update`` and to one
    ``RecursiveState`` per grid point; every state must agree with ``==``."""
    config = EstimatorConfig(delta=delta, l1=1.0)
    phis = np.asarray(phis, dtype=float)
    ys = np.asarray(ys, dtype=float)
    extended = StreamingGrid(xs, config)
    extended.extend(phis, ys)
    looped = StreamingGrid(xs, config)
    for p, y in zip(phis.tolist(), ys.tolist()):
        looped.update(p, y)
    states = [RecursiveState(float(x), config) for x in xs]
    for k, (p, y) in enumerate(zip(phis.tolist(), ys.tolist()), start=1):
        sample = Sample(k, p, y)
        for state in states:
            state.update(sample)
    for grid in (extended, looped):
        assert grid.n_seen == phis.size
        assert grid.n_active.tolist() == [s.n_active for s in states]
        assert grid.support_sum.tolist() == [s.support_sum for s in states]
        assert grid.support_sq_sum.tolist() == [s.support_sq_sum for s in states]
        want = [math.nan if s.estimate is None else s.estimate for s in states]
        assert np.array_equal(grid.estimates(), want, equal_nan=True)
    return extended


def spy_chunks(monkeypatch):
    """Record the sample and pair counts of every chunk the grid kernel folds."""
    sizes = []
    original = StreamingGrid._chunk

    def chunk(self, lo, hi, phis, ys, total):
        sizes.append((phis.size, total))
        return original(self, lo, hi, phis, ys, total)

    monkeypatch.setattr(StreamingGrid, "_chunk", chunk)
    return sizes


def spy_diagonals(monkeypatch):
    """Record the column span of every chunk laid out as jagged diagonals."""
    spans = []
    original = streaming._diagonals

    def diagonals(col, per_col):
        spans.append(per_col.size)
        return original(col, per_col)

    monkeypatch.setattr(streaming, "_diagonals", diagonals)
    return spans


class TestGridKernel:
    def test_unsorted_and_duplicated_grid(self):
        rng = np.random.default_rng(30)
        xs = np.array([0.5, -1.0, 0.5, 2.0, -1.0, 0.0, 0.5, -2.5])
        grid = run_three_ways(xs, 0.6, rng.uniform(-3, 3, 700), rng.normal(0, 1, 700))
        assert grid.n_active[0] == grid.n_active[2] == grid.n_active[6] > 0
        assert grid.estimates()[1] == grid.estimates()[4]

    def test_samples_exactly_on_window_edges(self):
        xs = np.array([-1.0, 0.0, 0.25, 1.0])
        delta = 0.25
        edges = np.concatenate([xs - delta, xs + delta, xs, xs - delta / 2])
        grid = run_three_ways(xs, delta, np.tile(edges, 3), np.arange(3.0 * edges.size))
        # every value here is exact in binary, so a sample on an edge has
        # margin exactly 0 and is skipped
        assert grid.n_active.tolist() == [6, 12, 9, 6]

    def test_delta_of_one_ulp(self):
        xs = np.array([1.0, 1.0 + 2.0**-52, 3.0])
        near = [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 3.0, 3.0 + 2.0**-51]
        grid = run_three_ways(xs, 2.0**-52, near * 4, np.arange(20.0))
        # 1 takes itself and its lower neighbour, half an ulp of 1 away
        assert grid.n_active.tolist() == [8, 4, 4]

    def test_large_offset(self):
        rng = np.random.default_rng(31)
        xs = 1e8 + np.linspace(-1.0, 1.0, 41)
        phis = 1e8 + rng.uniform(-1.5, 1.5, 900)
        run_three_ways(xs, 0.1, phis, rng.normal(0, 1, 900))

    def test_point_hit_more_often_than_the_pair_budget(self):
        # Every sample lands in the windows of the first nine points: a
        # chunk holds whole samples, each sub-block is cut into more than one
        # chunk, and every one of the nine points is hit more often than one
        # chunk holds, so its recursion carries across chunks.
        n = streaming._PAIR_BUDGET + 700
        rng = np.random.default_rng(32)
        xs = np.append(np.linspace(0.0, 0.05, 9), 5.0)
        grid = run_three_ways(xs, 0.1, rng.uniform(-0.04, 0.04, n), rng.normal(0, 1, n))
        assert grid.n_active.tolist() == [n] * 9 + [0]
        assert 9 * streaming._SUB_BLOCK > streaming._PAIR_BUDGET

    def test_window_wider_than_the_pair_budget(self, monkeypatch):
        # Samples near 0 see a dense cluster of more grid points than the
        # budget, so each is a chunk by itself; the samples between them see
        # a few sparse points and share chunks.
        budget = streaming._PAIR_BUDGET
        xs = np.concatenate([np.linspace(0.0, 0.01, budget + 500), np.linspace(1.0, 2.0, 41)])
        rng = np.random.default_rng(34)
        phis = rng.uniform(1.0, 2.0, 24)
        phis[::5] = rng.uniform(0.0, 0.01, 5)
        sizes = spy_chunks(monkeypatch)
        grid = run_three_ways(xs, 0.05, phis, rng.normal(0, 1, 24))
        assert grid.n_active[: budget + 500].tolist() == [5] * (budget + 500)
        assert max(pairs for _, pairs in sizes) > budget
        assert all(pairs <= budget or samples == 1 for samples, pairs in sizes)

    def test_grid_wider_than_sixteen_bits(self, monkeypatch):
        # Two clusters of samples 2**16 columns apart on a 70,001-point grid:
        # one chunk spans more columns than a 16-bit key can number, and
        # 16-bit keys would merge each column of one cluster with its twin
        # in the other.
        xs = np.linspace(0.0, 1.0, 70_001)
        rng = np.random.default_rng(35)
        jitter = rng.uniform(0.0, 2e-5, 3)
        phis = np.concatenate([xs[70] + jitter, xs[70 + (1 << 16)] + jitter])
        spans = spy_diagonals(monkeypatch)
        grid = run_three_ways(xs, 4e-5, phis[[0, 3, 1, 4, 2, 5]], rng.normal(0, 1, 6))
        assert max(grid.n_active) == 3
        assert spans and max(spans) > 1 << 16

    def test_chunk_with_one_pair_per_column(self, monkeypatch):
        # Windows that never overlap, in shuffled order: every grid column of
        # a many-sample chunk has one pair, so the sample-major order is
        # already the layout and no sort runs.
        xs = np.linspace(0.0, 10.0, 101)
        rng = np.random.default_rng(36)
        phis = rng.permutation(np.arange(0.1, 10.0, 0.5))
        spans = spy_diagonals(monkeypatch)
        grid = run_three_ways(xs, 0.22, phis, rng.normal(0, 1, phis.size))
        assert grid.n_active.max() == 1 and grid.n_active.sum() > 4 * phis.size
        assert spans == []

    def test_skewed_samples_on_a_wide_grid(self):
        # Nine samples in ten fall in a narrow band of a wide grid, so within
        # a chunk some columns have hundreds of pairs and others one.
        xs = np.linspace(-10.0, 10.0, 201)
        rng = np.random.default_rng(37)
        band = rng.random(1000) < 0.9
        phis = np.where(band, rng.uniform(0.0, 0.05, 1000), rng.uniform(-10.0, 10.0, 1000))
        grid = run_three_ways(xs, 0.35, phis, rng.normal(0, 1, 1000))
        hit = grid.n_active[grid.n_active > 0]
        assert hit.max() > 800 and hit.min() < 10

    def test_all_windows_empty(self):
        xs = np.linspace(-1.0, 1.0, 5)
        grid = run_three_ways(xs, 0.1, np.full(50, 7.0), np.ones(50))
        assert grid.n_seen == 50 and not grid.n_active.any()
        assert np.isnan(grid.estimates()).all()

    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-10.0, 10.0)), max_size=60),
        st.floats(0.01, 1.5),
    )
    @settings(max_examples=75)
    def test_hypothesis_streams(self, xs, pairs, delta):
        phis = [p for p, _ in pairs]
        ys = [y for _, y in pairs]
        run_three_ways(np.array(xs), delta, phis, ys)

    @pytest.mark.parametrize("where", [0, 5, streaming._SUB_BLOCK + 3])
    @pytest.mark.parametrize("field", ["phi", "y"])
    def test_non_finite_sample_stops_where_the_loop_stops(self, where, field):
        rng = np.random.default_rng(33)
        n = streaming._SUB_BLOCK + 50
        phis = rng.uniform(-1, 1, n)
        ys = rng.normal(0, 1, n)
        (phis if field == "phi" else ys)[where] = math.nan
        xs = np.linspace(-1.0, 1.0, 7)
        extended = StreamingGrid(xs, CFG)
        with pytest.raises(ValueError) as by_extend:
            extended.extend(phis, ys)
        looped = StreamingGrid(xs, CFG)
        with pytest.raises(ValueError) as by_loop:
            for p, y in zip(phis.tolist(), ys.tolist()):
                looped.update(p, y)
        assert str(by_extend.value) == str(by_loop.value) == f"{field} must be finite, got nan"
        assert extended.n_seen == looped.n_seen == where
        assert np.array_equal(extended.n_active, looped.n_active)
        assert np.array_equal(extended.support_sum, looped.support_sum)
        assert np.array_equal(extended.support_sq_sum, looped.support_sq_sum)
        assert np.array_equal(extended.estimates(), looped.estimates(), equal_nan=True)
