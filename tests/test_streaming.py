import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdwo.core import EstimatorConfig, NoSupportError, grid_solve, query_weights
from rdwo import streaming
from rdwo.streaming import StreamingGrid
from reference import assert_stream_exact, running_sums

CFG = EstimatorConfig(delta=1.0, l1=1.0)
HAND_PHIS = [-0.5, 0.2, 2.0]
HAND_YS = [1.0, 2.0, 100.0]


@st.composite
def streams(draw, min_n=1, max_n=25):
    n = draw(st.integers(min_n, max_n))
    phis = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    x = draw(st.floats(-2.0, 2.0))
    delta = draw(st.floats(0.05, 2.0))
    return x, phis, ys, EstimatorConfig(delta=delta, l1=1.0)


def batch_estimate(x, phis, ys, config):
    return float(np.dot(query_weights(x, phis, config), ys))


class TestRunningSums:
    """The running sums of one query point: the scalar reference
    ``running_sums`` and a one-point ``StreamingGrid``."""

    def test_hand_sequence(self):
        assert running_sums(0.0, HAND_PHIS[:1], HAND_YS[:1], 1.0)[0] == 1.0
        _, s, sy, sq, _, scaled = running_sums(0.0, HAND_PHIS[:2], HAND_YS[:2], 1.0)
        # the second sample takes 0.8/1.3 of the weight, the first keeps 0.5/1.3
        assert math.isclose(scaled[0] / s, 0.5 / 1.3, rel_tol=1e-12)
        assert scaled[1] / s == 0.8 / 1.3
        assert (s, sy, sq) == (0.5 + 0.8, 0.5 * 1.0 + 0.8 * 2.0, 0.5 * 0.5 + 0.8 * 0.8)

        estimate, _, _, _, positions, _ = running_sums(0.0, HAND_PHIS, HAND_YS, 1.0)
        assert positions == [0, 1]  # the third sample is skipped
        grid = StreamingGrid([0.0], CFG)
        grid.extend(HAND_PHIS, HAND_YS)
        assert grid.n_seen == 3 and grid.n_active[0] == 2
        assert grid.estimates()[0] == estimate
        assert abs(estimate - 21.0 / 13.0) <= 1e-12
        batch = batch_estimate(0.0, HAND_PHIS, HAND_YS, CFG)
        assert math.isclose(estimate, batch, rel_tol=1e-12)

    def test_fourth_sample_rescale(self):
        s_old = running_sums(0.0, HAND_PHIS, HAND_YS, 1.0)[1]
        _, s_new, _, _, _, scaled = running_sums(0.0, HAND_PHIS + [0.1], HAND_YS + [5.0], 1.0)
        # margin 0.9 joins support 1.3, so the old weights shrink by 1.3/2.2
        assert math.isclose(s_old / s_new, 1.3 / 2.2, rel_tol=1e-12)
        assert math.isclose(scaled[-1] / s_new, 0.9 / 2.2, rel_tol=1e-12)
        assert math.isclose(s_new, 2.2, rel_tol=1e-12)

    def test_estimate_is_none_before_any_absorption(self):
        grid = StreamingGrid([0.0], CFG)
        assert math.isnan(grid.estimates()[0])
        grid.extend([9.0], [3.0])
        assert math.isnan(grid.estimates()[0])
        assert grid.n_seen == 1 and grid.n_active[0] == 0
        assert math.isnan(running_sums(0.0, [9.0], [3.0], 1.0)[0])

    def test_boundary_sample_is_skipped(self):
        assert running_sums(0.0, [1.0], [3.0], 1.0)[4] == []
        grid = StreamingGrid([0.0], CFG)
        grid.extend([1.0], [3.0])
        assert grid.n_active[0] == 0

    def test_tiny_margins_match_fraction_reference(self):
        # 2e5 samples of margin 1, then 1e6 of margin 2**-53: each tiny term
        # vanishes when added to a running sum, so the tiny samples' weight,
        # 5.6e-22 each, is lost in full, and the estimate is off by 5.5e-15
        # relative, within the 1e-14 allowed.
        tiny = 1.0 - 2.0**-53
        phis = [0.0] * 200_000 + [tiny] * 1_000_000
        ys = [1.0] * 200_000 + [11.0] * 1_000_000
        estimate, s, sy, _, positions, scaled = running_sums(0.0, phis, ys, 1.0)
        assert len(positions) == 1_200_000
        assert s == sy == 200_000.0 and 0.0 < scaled[-1] / s < 1e-21
        grid = StreamingGrid([0.0], CFG)
        grid.extend(phis, ys)
        assert grid.estimates()[0] == estimate
        d = Fraction(2) ** -53
        exact = (200_000 * 1 + 1_000_000 * d * 11) / (200_000 + 1_000_000 * d)
        assert abs(Fraction(estimate) - exact) / exact <= Fraction(1, 10**14)

    @given(streams())
    @settings(max_examples=100)
    def test_prefixes_match_batch(self, stream):
        x, phis, ys, config = stream
        grid = StreamingGrid([x], config)
        for k in range(len(phis)):
            grid.extend([phis[k]], [ys[k]])
            estimate = grid.estimates()[0]
            try:
                batch = batch_estimate(x, phis[: k + 1], ys[: k + 1], config)
            except NoSupportError:
                assert math.isnan(estimate)
                continue
            rel = abs(estimate - batch) / max(abs(batch), 1e-300)
            assert rel <= 1e-10 or abs(estimate - batch) <= 1e-12

    @given(streams(min_n=2), st.randoms(use_true_random=False))
    @settings(max_examples=75)
    def test_order_invariance(self, stream, rnd):
        x, phis, ys, config = stream
        assume(any(abs(x - p) < config.delta for p in phis))
        state = StreamingGrid([x], config)
        state.extend(phis, ys)
        order = list(range(len(phis)))
        rnd.shuffle(order)
        other = StreamingGrid([x], config)
        other.extend([phis[i] for i in order], [ys[i] for i in order])
        a, b = state.estimates()[0], other.estimates()[0]
        rel = abs(a - b) / max(abs(a), 1e-300)
        assert rel <= 1e-10 or abs(a - b) <= 1e-12

    @given(streams())
    @settings(max_examples=100)
    def test_rescale_invariants(self, stream):
        # Absorbing a sample rescales the earlier weights by S_old / S_new and
        # gives the new one m / S_new.
        x, phis, ys, config = stream
        s_old, absorbed = 0.0, 0
        for k in range(len(phis)):
            state = running_sums(x, phis[: k + 1], ys[: k + 1], config.delta)
            s_new, positions, scaled = state[1], state[4], state[5]
            if len(positions) == absorbed:
                continue
            absorbed += 1
            reweight, new_weight = s_old / s_new, scaled[-1] / s_new
            assert (reweight == 0.0) == (absorbed == 1)
            assert 0.0 < new_weight <= 1.0
            assert abs(reweight + new_weight - 1.0) <= 2.0**-51
            s_old = s_new


class TestWeightsSnapshot:
    """The weights a stream implies, from the absorbed positions and margins."""

    def test_hand_snapshot(self):
        _, s, _, _, positions, scaled = running_sums(0.0, HAND_PHIS + [0.1], HAND_YS + [5.0], 1.0)
        weights = np.zeros(4)
        weights[positions] = np.array(scaled) / s
        np.testing.assert_allclose(
            weights,
            [0.5 / 2.2, 0.8 / 2.2, 0.0, 0.9 / 2.2],
            rtol=0,
            atol=1e-15,
        )
        assert weights[2] == 0.0
        assert [p + 1 for p in positions] == [1, 2, 4]

    def test_matches_batch_weights(self):
        rng = np.random.default_rng(21)
        phis = rng.uniform(-2, 2, 500)
        ys = rng.normal(0, 1, 500)
        config = EstimatorConfig(delta=0.5, l1=1.0)
        _, s, _, sq, positions, scaled = running_sums(0.25, phis, ys, config.delta)
        weights = np.zeros(phis.size)
        weights[positions] = np.array(scaled) / s
        closed = query_weights(0.25, phis, config)
        scale = np.maximum(np.abs(closed), 1e-300)
        assert float(np.max(np.abs(weights - closed) / scale)) <= 1e-12
        optimum = grid_solve([0.25], phis, ys, config)[2][0]
        assert math.isclose(config.delta * math.sqrt(sq), optimum, rel_tol=1e-12)

    def test_requires_support(self):
        assert running_sums(0.0, [9.0, -1.0], [1.0, 2.0], 1.0)[4] == []
        with pytest.raises(NoSupportError):
            query_weights(0.0, [9.0, -1.0], CFG)


class TestStreamingGrid:
    def test_bit_identical_to_scalar_states(self):
        rng = np.random.default_rng(4)
        phis = rng.uniform(-3, 3, 400)
        ys = rng.normal(0, 2, 400)
        xs = np.linspace(-2, 2, 9)
        config = EstimatorConfig(delta=0.35, l1=1.0)
        grid = StreamingGrid(xs, config)
        for p, y in zip(phis, ys):
            grid.extend([float(p)], [float(y)])
        ests = grid.estimates()
        for i, x in enumerate(xs.tolist()):
            estimate, s, sy, sq, positions, _ = running_sums(x, phis, ys, config.delta)
            assert np.array_equal(ests[i], estimate, equal_nan=True)
            assert grid.sums[1:, i].tolist() == [s, sq, sy]
            assert grid.support_sums()[i] == config.delta * s
            assert grid.n_active[i] == len(positions)

    @given(streams(min_n=1, max_n=30))
    @settings(max_examples=50)
    def test_bit_identical_small_streams(self, stream):
        x, phis, ys, config = stream
        grid = StreamingGrid(np.array([x]), config)
        for p, y in zip(phis, ys):
            grid.extend([p], [y])
        estimate = running_sums(x, phis, ys, config.delta)[0]
        assert np.array_equal(grid.estimates()[0], estimate, equal_nan=True)

    def test_objectives_and_counts(self):
        grid = StreamingGrid(np.array([0.0, 10.0]), CFG)
        grid.extend([-0.5], [1.0])
        grid.extend([0.2], [2.0])
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
            b.extend([float(p)], [float(y)])
        assert np.array_equal(a.estimates(), b.estimates(), equal_nan=True)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            StreamingGrid(np.array([]), CFG)
        with pytest.raises(ValueError):
            StreamingGrid(np.array([0.0, math.nan]), CFG)
        grid = StreamingGrid(np.array([0.0]), CFG)
        with pytest.raises(ValueError):
            grid.extend([math.nan], [1.0])
        with pytest.raises(ValueError, match="^phis and ys must be aligned 1-D arrays$"):
            grid.extend([0.0, 0.5], [1.0])
        assert grid.n_seen == 0

    def test_grid_is_readonly(self):
        grid = StreamingGrid(np.array([0.0, 1.0]), CFG)
        with pytest.raises(ValueError):
            grid.xs[0] = 5.0

    @pytest.mark.parametrize("xs", [[-0.5, 0.0, 0.5], [0.5, -0.5, 0.0]])
    def test_reads_are_snapshots(self, xs):
        grid = StreamingGrid(np.array(xs), CFG)
        grid.extend([-0.4, 0.1, 0.3], [1.0, 2.0, 3.0])
        first = grid.sums
        assert first.shape == (4, 3)
        state = first.tobytes()
        first[:] = 7.0
        grid.n_active[:] = 9.0
        second, third = grid.sums, grid.sums
        assert second is not third
        assert second.tobytes() == third.tobytes() == state
        assert grid.n_active.tolist() == second[0].tolist() == [3.0, 3.0, 3.0]


def run_three_ways(xs, delta, phis, ys):
    """Feed one stream to ``extend`` at once, in calls of 777 samples and in
    one-sample calls: the three states must be equal, bit for bit.  On a
    grid without cores every point's state equals its scalar
    ``running_sums`` with ``==``; on one with cores each point's sums are
    within the a-priori bound of its exact sums."""
    config = EstimatorConfig(delta=delta, l1=1.0)
    phis = np.asarray(phis, dtype=float)
    ys = np.asarray(ys, dtype=float)
    extended = StreamingGrid(xs, config)
    extended.extend(phis, ys)
    split, looped = StreamingGrid(xs, config), StreamingGrid(xs, config)
    for start in range(0, phis.size, 777):
        split.extend(phis[start : start + 777], ys[start : start + 777])
    for p, y in zip(phis.tolist(), ys.tolist()):
        looped.extend([p], [y])
    assert extended.n_seen == phis.size
    assert_same_state(split, extended)
    assert_same_state(looped, extended)
    if not extended._segments:
        states = [running_sums(x, phis, ys, delta) for x in extended.xs.tolist()]
        assert_states(extended, states)
        return extended
    sums = extended.sums
    for i, x in enumerate(extended.xs.tolist()):
        assert_stream_exact(sums[:, i], x, phis, ys, delta, extended)
    return extended


def assert_states(grid, states, points=slice(None)):
    """The count, sums and estimate of each grid point in ``points`` equal
    its ``running_sums`` state, with ``==``."""
    estimate, s, sy, sq, positions, _ = zip(*states)
    assert grid.n_active[points].tolist() == list(map(len, positions))
    assert grid.sums[1:, points].tolist() == [list(s), list(sq), list(sy)]
    assert np.array_equal(grid.estimates()[points], estimate, equal_nan=True)


def assert_same_state(a, b):
    """Two grids hold the same counts and sums, bit for bit."""
    assert a.n_seen == b.n_seen
    assert a.sums.tobytes() == b.sums.tobytes()


def spy_chunks(monkeypatch):
    """Record the sample and pair counts of every chunk of band pairs the
    grid kernel folds."""
    sizes = []
    original = StreamingGrid._chunk

    def chunk(self, lo, far, near, counts, phis, ys, total):
        sizes.append((phis.size, total))
        return original(self, lo, far, near, counts, phis, ys, total)

    monkeypatch.setattr(StreamingGrid, "_chunk", chunk)
    return sizes


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

    def test_unsorted_grid_with_samples_on_window_edges(self, monkeypatch):
        # Repeated points in no order, and samples exactly on window edges:
        # the searches take each edge sample into the window, the margin of
        # 0 trims it, and the count takes the pair back.  Every state keeps
        # its bits in stream order, split inside a chunk or not, and reads
        # as the ascending grid's table, permuted.
        xs = np.array([0.25, -1.0, 1.0, 0.25, 0.0, -1.0, 0.25])
        delta = 0.25
        edges = np.concatenate([xs - delta, xs + delta, xs, xs - delta / 2])
        phis = np.tile(edges, 3)
        ys = np.arange(float(phis.size))
        assert (np.abs(xs[:, None] - phis) == delta).any()
        sizes = spy_chunks(monkeypatch)
        grid = run_three_ways(xs, delta, phis, ys)
        assert sizes[0][0] == phis.size > 40  # one chunk, split below at 40
        split = StreamingGrid(xs, grid.config)
        split.extend(phis[:40], ys[:40])
        split.extend(phis[40:], ys[40:])
        assert_same_state(split, grid)
        order = np.argsort(xs, kind="stable")
        ascending = StreamingGrid(xs[order], grid.config)
        ascending.extend(phis, ys)
        assert ascending.sums.tobytes() == grid.sums[:, order].tobytes()
        assert grid.n_active.tolist() == [21, 12, 6, 21, 24, 12, 21]

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
        # chunk holds, so its sums carry across chunks.
        n = streaming._PAIR_BUDGET + 700
        rng = np.random.default_rng(32)
        xs = np.append(np.linspace(0.0, 0.05, 9), 5.0)
        grid = run_three_ways(xs, 0.1, rng.uniform(-0.04, 0.04, n), rng.normal(0, 1, n))
        assert grid.n_active.tolist() == [n] * 9 + [0]
        assert 9 * streaming._SUB_BLOCK > streaming._PAIR_BUDGET

    def test_window_wider_than_the_pair_budget(self, monkeypatch):
        # Samples near -0.0495 lie in the edge bands of a dense cluster of
        # more grid points than the budget, which keeps cores, so each is a
        # chunk by itself; the samples between them see a few sparse points
        # and share chunks.
        budget = streaming._PAIR_BUDGET
        xs = np.concatenate([np.linspace(0.0, 0.0002, budget + 500), np.linspace(1.0, 2.0, 41)])
        rng = np.random.default_rng(34)
        phis = rng.uniform(1.0, 2.0, 24)
        phis[::5] = rng.uniform(-0.0497, -0.0493, 5)
        sizes = spy_chunks(monkeypatch)
        grid = run_three_ways(xs, 0.05, phis, rng.normal(0, 1, 24))
        assert grid._segments
        assert grid.n_active[: budget + 500].tolist() == [5] * (budget + 500)
        assert max(pairs for _, pairs in sizes) > budget
        assert all(pairs <= budget or samples == 1 for samples, pairs in sizes)

    def test_sparse_windows_on_a_200001_point_grid(self, monkeypatch):
        # 60k samples on a 200,001-point grid with windows of about one grid
        # step: each chunk's pairs span most of the grid but touch few of its
        # points.  The scalar reference of a point runs over the samples near
        # it, in stream order; the others leave its sums untouched.
        xs = np.linspace(0.0, 1.0, 200_001)
        rng = np.random.default_rng(35)
        phis = rng.uniform(0.0, 1.0, 60_000)
        ys = rng.normal(0, 1, phis.size)
        delta = 3e-6
        grid = StreamingGrid(xs, EstimatorConfig(delta=delta, l1=1.0))
        sizes = spy_chunks(monkeypatch)
        grid.extend(phis, ys)
        assert len(sizes) == -(-phis.size // streaming._SUB_BLOCK)
        order = np.argsort(phis, kind="stable")
        lo = np.searchsorted(phis[order], xs - 2 * delta)
        hi = np.searchsorted(phis[order], xs + 2 * delta)
        hit = np.flatnonzero(hi > lo)
        states = []
        for i in hit.tolist():
            near = np.sort(order[lo[i] : hi[i]])
            states.append(running_sums(float(xs[i]), phis[near], ys[near], delta))
        assert_states(grid, states, hit)
        missed = np.ones(xs.size, dtype=bool)
        missed[hit] = False
        assert not grid.sums[:, missed].any()
        assert grid.n_active.sum() > phis.size

    def test_chunk_with_one_pair_per_column(self):
        # Windows that never overlap, in shuffled order: every grid point of
        # a many-sample chunk takes one pair.
        xs = np.linspace(0.0, 10.0, 101)
        rng = np.random.default_rng(36)
        phis = rng.permutation(np.arange(0.1, 10.0, 0.5))
        grid = run_three_ways(xs, 0.22, phis, rng.normal(0, 1, phis.size))
        assert grid.n_active.max() == 1 and grid.n_active.sum() > 4 * phis.size

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

    # inside the first sub-block, and just past its end
    @pytest.mark.parametrize("where", [0, 5, 1027, streaming._SUB_BLOCK + 3])
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
                looped.extend([p], [y])
        assert str(by_extend.value) == str(by_loop.value) == f"{field} must be finite, got nan"
        assert extended.n_seen == where
        assert_same_state(extended, looped)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(streaming._SUB_BLOCK - 50, 2 * streaming._SUB_BLOCK + 50),
        st.integers(20, 48),
        st.floats(0.4, 1.0),
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(1, 2 * streaming._SUB_BLOCK),
                st.sampled_from(["phi", "y"]),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_extend_is_a_loop_of_update_across_chunks(self, seed, n, points, delta, bad):
        # Dense windows put more than _PAIR_BUDGET pairs in a sub-block, so
        # the stream crosses sub-block and chunk boundaries, and a non-finite
        # sample may stop it anywhere inside a sub-block.
        rng = np.random.default_rng(seed)
        phis = rng.uniform(-0.5, 0.5, n)
        ys = rng.normal(0, 10, n)
        if bad is not None:
            where, field, value = bad
            assume(where < n)
            (phis if field == "phi" else ys)[where] = value
        xs = rng.uniform(-0.5, 0.5, points)
        first = np.abs(xs[:, None] - phis[None, : streaming._SUB_BLOCK]) < delta
        assert np.count_nonzero(first) > streaming._PAIR_BUDGET
        config = EstimatorConfig(delta=delta, l1=1.0)
        extended, looped = StreamingGrid(xs, config), StreamingGrid(xs, config)
        errors = []
        for fold in (lambda: extended.extend(phis, ys),
                     lambda: [looped.extend([p], [y]) for p, y in zip(phis.tolist(), ys.tolist())]):
            try:
                fold()
            except ValueError as exc:
                errors.append(str(exc))
        assert len(errors) == (0 if bad is None else 2) and len(set(errors)) <= 1
        assert extended.n_seen == (n if bad is None else where)
        assert_same_state(extended, looped)
