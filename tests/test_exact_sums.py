"""Every summation path's window sums against exact arithmetic.

``reference.exact_sums`` adds, as fractions, the terms both modes compute:
the scaled margins ``r`` and the distances ``|x - phi|`` of the samples whose
float margin is positive.  Each path must land within its a-priori bound of
those exact sums, relative to the cell's sum of absolute terms ``R`` (the
cell itself for ``S``, ``SQ`` and ``r . |x - phi|``, and ``r . |y|`` for ``r
. y``):

- the loop ``core._window_dots``: ``gamma_n R``, for an n-term sum or dot
  in any order (Higham, *Accuracy and Stability of Numerical Algorithms*,
  lemma 3.1);
- ``StreamingGrid``, streamed over a grid dense enough to keep cores, which
  adds segment moments and edge-band pairs: ``reference.stream_bound``, the
  bound its module docstring derives;
- the moment kernel ``_moments._moment_table``: ``_MOMENT_TOL R`` on every cell
  it keeps.  The others go to the loop.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdwo import _moments, core
from rdwo.core import EstimatorConfig
from rdwo.streaming import StreamingGrid
from reference import assert_stream_exact, exact_sums, running_sums

U = Fraction(1, 2**53)
TOL = Fraction(_moments._MOMENT_TOL)


def gamma(n):
    return n * U / (1 - n * U)


def within(got, exact, bound):
    """Whether the float ``got`` is within ``bound`` of ``exact``, exactly."""
    return abs(Fraction(got) - exact) <= bound


def exact_cells(x, phis, ys, delta):
    """The count, then ``(exact, R)`` of each cell in the kernel's row order
    with distances and magnitudes: ``S``, ``SQ``, ``r . |x - phi|``, ``r .
    y``, ``r . |y|``."""
    n, s, sq, sy, dist = exact_sums(x, phis, ys, delta)
    scale = exact_sums(x, phis, np.abs(ys), delta)[3]
    return n, [(s, s), (sq, sq), (dist, dist), (sy, scale), (scale, scale)]


def kernel_kept(xs, phis, ys, delta):
    """Check every cell the kernel keeps on ascending ``phis``, and return
    the kernel's loop mask."""
    table, loop = _moments._moment_table(xs, phis, delta, (ys,), True, True)
    for q, x in enumerate(xs.tolist()):
        if loop[:, q].all():
            continue
        n, cells = exact_cells(x, phis, ys, delta)
        assert not loop[0, q] and table[0, q] == n
        for got, (exact, scale), redo in zip(table[1:, q], cells, loop[1:, q]):
            assert redo or within(got, exact, TOL * scale), (x, got, exact)
    return loop


def check_loop(xs, phis, ys, delta):
    table = core._window_dots(xs, phis, delta, (ys, np.abs(ys)), True)
    for q, x in enumerate(xs.tolist()):
        n, cells = exact_cells(x, phis, ys, delta)
        assert table[0, q] == n
        for got, (exact, scale) in zip(table[1:, q], cells):
            assert within(got, exact, gamma(n) * scale), (x, got, exact)


def cored_grid(xs, delta):
    """``xs`` among 3,000 evenly spaced points from ``delta`` below the least
    to ``delta`` above the greatest: a window holds more of them than a grid
    needs to keep cores."""
    lo, hi = float(xs.min()) - delta, float(xs.max()) + delta
    return np.union1d(xs, np.linspace(lo, hi, 3000))


def check_stream(xs, phis, ys, delta, grid=None):
    """Stream the samples over ``grid``, an ascending one that holds ``xs``,
    by default ``cored_grid``, and check the sums of the points ``xs``
    against the exact ones; return the engine and their columns."""
    grid = cored_grid(xs, delta) if grid is None else grid
    # The samples in stream order, not sorted: any order meets the bound.
    order = np.random.default_rng(phis.size).permutation(phis.size)
    engine = StreamingGrid(grid, EstimatorConfig(delta=delta))
    engine.extend(phis[order], ys[order])
    table = engine.sums[:, np.searchsorted(grid, xs)]
    for q, x in enumerate(xs.tolist()):
        assert_stream_exact(table[:, q], x, phis, ys, delta, engine)
    return engine, table


@st.composite
def windows(draw):
    """Ascending regressors and aligned outputs, a delta and three queries:
    uniform, rounded to one decimal (ties), or half of them on one point;
    at an offset, on a small scale, with outputs huge, tiny or off zero.
    Windows hold up to about 1,200 samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(200, 1200))
    phis = rng.uniform(-1.0, 1.0, n)
    layout = draw(st.sampled_from(["uniform", "ties", "cluster"]))
    if layout == "ties":
        phis = np.round(phis, 1)
    elif layout == "cluster":
        phis[: n // 2] = phis[0]
    offset = draw(st.sampled_from([0.0, 1e8, -2.5e4]))
    scale = draw(st.sampled_from([1.0, 1e-3]))
    phis = np.sort(offset + scale * phis)
    ys = draw(st.sampled_from([1.0, 1e-200, 1e200])) * (
        rng.normal(size=n) + draw(st.sampled_from([0.0, 3.0])))
    delta = scale * draw(st.floats(0.1, 1.5))
    xs = offset + scale * rng.uniform(-1.2, 1.2, 3)
    return xs, phis, ys, delta


@given(windows())
@settings(max_examples=15, deadline=None)
def test_loop_sums_are_within_their_bound(case):
    check_loop(*case)


@given(windows())
@settings(max_examples=15, deadline=None)
def test_streaming_sums_are_within_their_bound(case):
    check_stream(*case)


@given(windows())
@settings(max_examples=15, deadline=None)
def test_kernel_sums_are_within_their_bound(case):
    kernel_kept(*case)


def uniform_case():
    rng = np.random.default_rng(28)
    phis = np.sort(rng.uniform(-1.0, 1.0, 4000))
    return np.linspace(-0.9, 0.9, 7), phis, np.sin(phis) + rng.normal(0, 0.1, 4000), 0.05


def test_kernel_keeps_every_cell_of_uniform_data():
    assert not kernel_kept(*uniform_case()).any()


def test_a_cell_a_few_ulps_past_its_bound_fails():
    xs, phis, ys, delta = uniform_case()
    table, _ = _moments._moment_table(xs, phis, delta, (ys,), True, True)
    n, cells = exact_cells(float(xs[0]), phis, ys, delta)
    for got, (exact, scale) in zip(table[1:, 0], cells):
        bound = TOL * scale
        assert within(got, exact, bound)
        for side in (1, -1):
            past = float(exact + side * bound)
            while within(past, exact, bound):
                past = np.nextafter(past, side * np.inf)
            for _ in range(3):
                past = np.nextafter(past, side * np.inf)
            assert not within(past, exact, bound)


def edge_only():
    # Every sample one ulp inside an end of the window of 0.5: margins of
    # about 1e-16, which the kernel's running sums cannot resolve.
    phis = np.repeat([np.nextafter(0.25, 1.0), np.nextafter(0.75, 0.0)], 100)
    return np.array([0.5]), phis, np.resize([1.0, -2.0, 3.0], phis.size), 0.25


def tie_cluster():
    rng = np.random.default_rng(29)
    phis = np.sort(np.concatenate([np.full(10_000, 0.5), rng.uniform(0.0, 1.0, 1000)]))
    return np.array([0.5, 0.495, 0.505, 0.3]), phis, rng.normal(size=phis.size), 0.01


def offset_data():
    rng = np.random.default_rng(30)
    phis = np.sort(1e8 + rng.uniform(-1.0, 1.0, 2000))
    return 1e8 + np.linspace(-0.8, 0.8, 5), phis, rng.normal(size=2000), 0.1


def subnormal_delta():
    return np.array([0.5]), np.array([0.5]), np.array([1.0]), 1e-320


@pytest.mark.parametrize("case", [edge_only, tie_cluster, offset_data, subnormal_delta],
                         ids=["edge-only", "tie-cluster", "offset-1e8", "delta-1e-320"])
def test_hostile_windows_meet_the_bound_or_take_the_loop(case):
    xs, phis, ys, delta = case()
    loop = kernel_kept(xs, phis, ys, delta)
    table = core._window_sums(xs, phis, delta, (ys,), True, True)
    fallback = core._window_dots(xs, phis, delta, (ys, np.abs(ys)), True)
    assert (table[loop] == fallback[loop]).all()
    check_loop(xs, phis, ys, delta)
    if case in (edge_only, subnormal_delta):
        assert loop[1:].all()


def test_small_windows_keep_the_loops_bits():
    # A window below the kernel's least count keeps the loop's bits.
    rng = np.random.default_rng(31)
    phis = np.sort(rng.uniform(-1.0, 1.0, 300))
    ys = rng.normal(size=300)
    xs = np.linspace(-1.0, 1.0, 9)
    table, loop = _moments._moment_table(xs, phis, 0.1, (ys,), False, False)
    assert loop.all()
    assert np.array_equal(core._window_sums(xs, phis, 0.1, (ys,)),
                          core._window_dots(xs, phis, 0.1, (ys,)))


def test_windows_past_four_blocks_skip_the_kernel(monkeypatch):
    # A side spans at most two blocks of _MOMENT_BLOCK samples, so a window
    # of about 20,000 samples goes to the loop without the kernel's work, and
    # one of about 4,000 still reaches the kernel.
    rng = np.random.default_rng(35)
    phis = np.sort(rng.uniform(-1.5, 1.5, 50_000))
    ys = np.sin(phis) + rng.normal(0, 0.1, phis.size)
    xs = np.linspace(-0.9, 0.9, 9)
    calls = []
    real = _moments._moment_cells

    def spy(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(_moments, "_moment_cells", spy)
    for delta, answered in ((0.6, []), (0.12, [xs.size])):
        calls.clear()
        table = core._window_sums(xs, phis, delta, (ys,))
        assert calls == answered
        if not answered:
            assert np.array_equal(table, core._window_dots(xs, phis, delta, (ys,)))


def huge_delta():
    return np.array([0.5]), np.array([0.5]), np.array([1.0]), 1e300


def wide_windows():
    # Windows of about 6,000 samples per delta, more than the moment
    # kernel's 4,096 a block.
    rng = np.random.default_rng(32)
    phis = np.sort(rng.uniform(0.0, 1.0, 30_000))
    return np.linspace(0.1, 0.9, 5), phis, np.cos(phis) + rng.normal(0, 0.1, phis.size), 0.2


@pytest.mark.parametrize(
    "case, cored",
    [(edge_only, True), (tie_cluster, True), (offset_data, True), (wide_windows, True),
     (subnormal_delta, False), (huge_delta, False)],
    ids=["edge-only", "tie-cluster", "offset-1e8", "wide-windows", "delta-1e-320",
         "delta-1e300"])
def test_hostile_windows_stream_within_the_bound(case, cored):
    # A delta far from 1 leaves every window to band pairs.
    xs, phis, ys, delta = case()
    engine, _ = check_stream(xs, phis, ys, delta)
    assert bool(engine._segments) == cored


def test_tie_cluster_sq_within_the_kernel_tolerance():
    # The 10^4 ties at 0.5, each in the cores of the points within about
    # delta of it: their SQ stays within _MOMENT_TOL of exact.
    xs, phis, ys, delta = tie_cluster()
    grid = np.linspace(0.0, 1.0, 10_001)
    near = grid[np.abs(grid - 0.5) < delta][::4]
    engine, table = check_stream(near, phis, ys, delta, grid)
    assert engine._segments.offset.shape[1] == grid.size
    for q, x in enumerate(near.tolist()):
        n, _, sq, _, _ = exact_sums(x, phis, ys, delta)
        assert n > 10_000
        assert within(table[2, q], sq, TOL * sq)


def test_split_calls_and_reruns_keep_the_bits():
    # On a grid with cores: one call, calls of 777 and calls of one sample
    # leave the same state, and so does a second run.
    xs, phis, ys, delta = tie_cluster()
    order = np.random.default_rng(34).permutation(phis.size)[:3000]
    phis, ys = phis[order], ys[order]
    states = []
    for step in (phis.size, 777, 1, phis.size):
        engine = StreamingGrid(cored_grid(xs, delta), EstimatorConfig(delta=delta))
        for start in range(0, phis.size, step):
            engine.extend(phis[start : start + step], ys[start : start + step])
        assert bool(engine._segments)
        states.append(engine.sums.tobytes())
    assert len(set(states)) == 1


def test_edge_band_windows_keep_the_running_sums_bits():
    # A window that holds only edge-band samples is summed pair by pair, in
    # stream order, as the scalar running sums add it, though the grid
    # around it keeps cores.
    xs, phis, ys, delta = edge_only()
    order = np.random.default_rng(33).permutation(phis.size)
    grid = cored_grid(xs, delta)
    engine = StreamingGrid(grid, EstimatorConfig(delta=delta))
    engine.extend(phis[order], ys[order])
    assert bool(engine._segments)
    _, s, sy, sq, positions, _ = running_sums(0.5, phis[order], ys[order], delta)
    column = engine.sums[:, np.searchsorted(grid, 0.5)]
    assert column.tolist() == [len(positions), s, sq, sy]


def test_only_a_grid_dense_in_its_windows_keeps_cores():
    # Cores pay only where a window holds many points: a grid of 40 points
    # over [0, 1] at delta 0.1 keeps none, and one of 3,000 keeps them all.
    phis = np.linspace(0.0, 1.0, 50)
    for points, cored in ((40, 0), (3000, 3000)):
        engine = StreamingGrid(np.linspace(0.0, 1.0, points), EstimatorConfig(delta=0.1))
        engine.extend(phis, phis)
        assert (engine._segments.offset.shape[1] if engine._segments else 0) == cored
