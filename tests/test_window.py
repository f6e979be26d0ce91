"""Differential tests of the sorted-window kernel against a full scan.

The batch path sums every window in stable φ order: over the regressors
sorted ascending, ties in sample order.  ``_sorted_windows`` must hand every
query the same operands, in the same order, as a scan of all samples in
that order, so every sum and dot product over a window is bit-identical:
counts equal, and distances, estimates, objectives and support sums of the
loop ``_window_dots`` compared with ``==``, not a tolerance.  ``grid_solve``
may answer a window from the moment kernel instead, so its counts are
compared with ``==`` and the rest against exact sums, within the bounds
``simulate._error_check`` derives.  Each case is also streamed through a
``StreamingGrid``, which must agree with the batch path within
``MODE_AGREEMENT_RTOL``.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdwo.cli import MODE_AGREEMENT_RTOL, main
from rdwo._moments import _MOMENT_TOL
from rdwo.core import (
    EstimatorConfig,
    _readout,
    _sort_order,
    _sorted_windows,
    _window_dots,
    grid_solve,
    window_margins,
)
from rdwo.simulate import ExperimentSpec, Sine, _dataset_arrays, run_experiment
from rdwo.streaming import StreamingGrid
from reference import exact_sums, in_phi_order

ULP = 2.0**-52


def window_rows(positions_and_margins, ys, delta):
    """(count, estimate, objective, support_sum) per query, as ``cmd_fit``
    forms them: the sums ``S``, ``SY`` and ``SQ`` of the scaled margins
    ``r = margins / delta``, then ``SY / S``, ``delta * sqrt(SQ)`` and
    ``delta * S``."""
    rows = []
    for positions, _, margins in positions_and_margins:
        if positions.size == 0:
            rows.append((0, None, None, None))
            continue
        r = margins / delta
        s = float(np.sum(r))
        rows.append((positions.size, float(np.dot(r, ys[positions])) / s,
                     delta * math.sqrt(float(np.dot(r, r))), delta * s))
    return rows


def full_scan(xs, phis, delta):
    for x in xs:
        distances = np.abs(x - phis)
        margins = delta - distances
        mask = margins > 0.0
        yield np.flatnonzero(mask), distances[mask], margins[mask]


def slices(xs, phis, delta):
    """``_sorted_windows`` over the ascending ``phis``, each window's slice
    ``a:b`` spelled as its positions."""
    for a, b, distances, margins in _sorted_windows(np.asarray(xs, dtype=float), phis, delta):
        yield np.arange(a, b), distances, margins


def slice_sizes(xs, phis, delta):
    """Candidates per query between the binary-search bounds, before the
    samples with a margin <= 0 are dropped."""
    ordered = np.sort(phis)
    lo = np.searchsorted(ordered, np.asarray(xs) - delta, side="left")
    hi = np.searchsorted(ordered, np.asarray(xs) + delta, side="right")
    return (hi - lo).tolist()


def assert_matches_full_scan(xs, phis, ys, delta):
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ordered, ordered_ys = in_phi_order(phis, ys)
    fast = list(slices(xs, ordered, delta))
    slow = list(full_scan(xs, ordered, delta))
    for (fp, fd, fm), (sp, sd, sm) in zip(fast, slow, strict=True):
        assert fp.tolist() == sp.tolist()
        assert fd.tolist() == sd.tolist()
        assert fm.tolist() == sm.tolist()
    rows = window_rows(slow, ordered_ys, delta)
    assert window_rows(fast, ordered_ys, delta) == rows
    estimates, counts, objectives, sums = _readout(
        delta, *_window_dots(xs, ordered, delta, (ordered_ys,)))
    assert counts.tolist() == [r[0] for r in rows]
    assert [None if math.isnan(e) else e for e in estimates.tolist()] == [r[1] for r in rows]
    assert [None if math.isnan(o) else o for o in objectives.tolist()] == [r[2] for r in rows]
    assert [s if c else None for s, c in zip(sums.tolist(), counts.tolist())] == [
        r[3] for r in rows
    ]
    solution = grid_solve(xs, phis, ys, EstimatorConfig(delta=delta))
    assert solution[1].tolist() == counts.tolist()
    assert_within_exact_bounds(xs, ordered, ordered_ys, delta, solution)
    assert_stream_agrees(xs, phis, ys, delta, solution)


def assert_within_exact_bounds(xs, ordered, ordered_ys, delta, solution):
    """Each supported readout of ``grid_solve`` within its bound of the
    exact window sums: every sum within ``rho`` of its sum of absolute
    terms, with ``rho`` the larger of ``gamma_n`` and the kernel's
    ``_MOMENT_TOL``; the estimate ``SY / S`` within ``(2 rho + 2u) / (1 -
    rho)`` of ``w . |y|``, and the objective and support sum within ``rho``
    and a few roundings of ``delta sqrt(SQ)`` and ``delta S``."""
    u = Fraction(1, 2**53)
    width = Fraction(delta)
    for x, estimate, count, objective, support in zip(xs.tolist(), *map(list, solution)):
        if not count:
            continue
        n, s, sq, sy, _ = exact_sums(x, ordered, ordered_ys, delta)
        scale = exact_sums(x, ordered, np.abs(ordered_ys), delta)[3]
        rho = max(n * u / (1 - n * u), Fraction(_MOMENT_TOL))
        assert abs(Fraction(estimate) - sy / s) <= (2 * rho + 2 * u) / (1 - rho) * scale / s
        norm = width**2 * sq
        assert abs(Fraction(objective) ** 2 - norm) <= ((1 + rho) * (1 + u) ** 4 - 1) * norm
        assert abs(Fraction(support) - width * s) <= ((1 + rho) * (1 + u) - 1) * width * s


def assert_stream_agrees(xs, phis, ys, delta, solution):
    """A ``StreamingGrid`` fed the samples in order gives the batch counts,
    and its estimates, objectives and support sums within
    ``MODE_AGREEMENT_RTOL`` of the batch ones.  An estimate's error is taken
    relative to ``sum(w * |y|)``, which bounds its terms however they cancel."""
    config = EstimatorConfig(delta=delta)
    engine = StreamingGrid(xs, config)
    engine.extend(phis, ys)
    estimates, counts, objectives, sums = solution
    assert engine.active_counts().tolist() == counts.tolist()
    on = counts > 0
    scale = grid_solve(xs, phis, np.abs(ys), config)[0]
    for got, want, size in [
        (engine.estimates(), estimates, scale),
        (engine.objectives(), objectives, objectives),
        (engine.support_sums(), sums, sums),
    ]:
        assert np.all(np.abs(got[on] - want[on]) <= MODE_AGREEMENT_RTOL * size[on])


RNG = np.random.default_rng(20141115)
UNIFORM = RNG.uniform(-1.0, 1.0, 300)
NOISE = RNG.normal(0.0, 1.0, 300)
STEPS = np.arange(-20, 21) * 0.1  # 0.1 is not a binary fraction
TINY = 1.0 + np.arange(-8, 9) * ULP
EDGE = 1e8 + np.arange(-20, 21) * 0.05
AROUND_ONE = [1.0 - ULP / 2, 1.0, 1.0 + ULP]


@pytest.mark.parametrize(
    "xs, phis, delta",
    [
        pytest.param(STEPS, STEPS, 0.1, id="samples-at-x-plus-minus-delta"),
        pytest.param(STEPS + 0.05, STEPS, 0.05, id="samples-at-window-ends-midway"),
        pytest.param([0.0, 0.5, 1.0], [-0.5, 0.0, 0.5, 1.0, 1.5], 0.5, id="exact-edges"),
        pytest.param(STEPS, np.repeat(STEPS[::4], 7), 0.3, id="duplicated-regressors"),
        pytest.param([0.69, 0.7, 0.71, 1.7, -0.3], np.full(25, 0.7), 1.0, id="all-equal"),
        pytest.param(np.linspace(1.0, -1.0, 81), UNIFORM, 0.05, id="descending-grid"),
        pytest.param(RNG.permutation(np.linspace(-1.2, 1.2, 97)), UNIFORM, 0.1, id="unsorted-grid"),
        pytest.param(
            [-1e308, -50.0, -1.0 - 1e-9, 1.0 + 1e-9, 3.0, 1e308], UNIFORM, 0.5, id="outside-range"
        ),
        pytest.param(1e8 + np.linspace(-1.0, 1.0, 121), 1e8 + UNIFORM, 0.05, id="offset-1e8"),
        pytest.param(EDGE, EDGE, 0.05, id="offset-1e8-at-edges"),
        pytest.param(TINY, TINY, 3 * ULP, id="delta-three-ulps"),
        pytest.param(TINY + ULP / 2, TINY, ULP, id="delta-one-ulp"),
        pytest.param([0.0, 1e-310], [0.0, 5e-324, -5e-324, 2e-310], 1e-310, id="subnormal"),
        # x - delta = 1 - 2^-55 rounds up onto the in-window sample 1.0
        pytest.param([1.0 + ULP], AROUND_ONE, ULP + 2.0**-55, id="lower-bound-rounds-onto-sample"),
        # x + delta = 1 + 2^-56 rounds down onto the in-window sample 1.0
        pytest.param([1.0 - ULP / 2], AROUND_ONE, ULP / 2 + 2.0**-56, id="upper-bound-rounds-onto-sample"),
    ],
)
def test_adversarial_inputs(xs, phis, delta):
    phis = np.asarray(phis, dtype=float)
    assert_matches_full_scan(xs, phis, np.resize(NOISE, phis.size), delta)


def test_unsorted_regressors_sum_in_stable_phi_order():
    # Each regressor three times, shuffled: the tied samples of a window
    # are summed in sample order.
    phis = RNG.permutation(np.repeat(STEPS, 3))
    assert_matches_full_scan(STEPS, phis, RNG.normal(size=phis.size), 0.25)


def sort_keys(seed):
    """Seeded keys of 1 to 20,000 values: distinct draws, or clusters of
    equal keys among them, with signed zeros in some."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 15, 17, 200, 20_000]))
    keys = rng.uniform(-1, 1, n)
    if seed % 3:
        keys = np.round(keys, int(rng.integers(0, 4)))
    if seed % 4 == 1:
        keys[rng.integers(0, n, max(1, n // 10))] = rng.choice([-0.0, 0.0], max(1, n // 10))
    return keys


@pytest.mark.parametrize("seed", range(24))
def test_sort_order_is_the_stable_argsort(seed):
    keys = sort_keys(seed)
    order = _sort_order(keys)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(keys, kind="stable"))


def test_sort_order_falls_back_on_ties_the_default_sort_reorders():
    keys = np.round(np.random.default_rng(5).uniform(-1, 1, 2_000), 1)
    keys[::7] = -0.0
    assert not np.array_equal(np.argsort(keys), np.argsort(keys, kind="stable"))
    assert np.array_equal(_sort_order(keys), np.argsort(keys, kind="stable"))


def test_signed_zeros_are_ties():
    # -0.0 == 0.0, so the zeros of either sign keep their sample order.
    phis = np.random.default_rng(5).permutation(np.repeat([0.0, -0.0, 0.5, -0.5], 30))
    assert_matches_full_scan([0.0, 0.25, -0.7], phis, NOISE[: phis.size], 0.75)


def test_empty_data_has_no_support():
    windows = list(_sorted_windows(np.array([0.0, 1.0]), np.array([]), 1.0))
    assert [b - a for a, b, _, _ in windows] == [0, 0]
    assert grid_solve([0.0, 1.0], [], [], EstimatorConfig(delta=1.0))[1].tolist() == [0, 0]


def test_single_query_helper_matches_driver():
    ordered = np.sort(UNIFORM)
    positions, margins = window_margins(0.1, ordered, 0.2)
    (a, b, distances, slice_margins), = _sorted_windows(np.array([0.1]), ordered, 0.2)
    assert positions.tolist() == list(range(a, b))
    assert margins.tolist() == slice_margins.tolist()
    assert distances.tolist() == np.abs(0.1 - ordered[a:b]).tolist()


def test_all_inside_windows_match_full_scan():
    # No sample sits at a rounded window end, so every candidate is inside
    # and each window is handed on without being trimmed.
    xs = np.linspace(-0.9, 0.9, 19)
    sizes = slice_sizes(xs, UNIFORM, 0.15)
    windows = list(_sorted_windows(xs, np.sort(UNIFORM), 0.15))
    assert [b - a for a, b, _, _ in windows] == sizes and min(sizes) > 0
    assert_matches_full_scan(xs, UNIFORM, NOISE, 0.15)


@pytest.mark.parametrize(
    "xs, phis, delta",
    [
        pytest.param(STEPS, STEPS, 0.1, id="samples-at-x-plus-minus-delta"),
        pytest.param([0.0, 0.5, 1.0], [-0.5, 0.0, 0.5, 1.0, 1.5], 0.5, id="exact-edges"),
        pytest.param(TINY, TINY, 3 * ULP, id="delta-three-ulps"),
        pytest.param(STEPS + 0.05, STEPS, 0.05, id="samples-at-window-ends-midway"),
    ],
)
def test_windows_with_samples_on_their_ends_are_compressed(xs, phis, delta):
    # test_adversarial_inputs checks these windows against the full scan;
    # here a sample with a margin <= 0 is at an end of some slice and is
    # trimmed off.
    phis = np.sort(np.asarray(phis, dtype=float))
    windows = list(_sorted_windows(np.asarray(xs, dtype=float), phis, delta))
    sizes = slice_sizes(xs, phis, delta)
    assert any(b - a < size for (a, b, _, _), size in zip(windows, sizes))


finite = st.floats(-4.0, 4.0, allow_nan=False)


@given(
    phis=st.lists(st.one_of(finite, st.sampled_from([-1.0, 0.0, 0.1, 0.3, 1.0])), max_size=40),
    xs=st.lists(st.one_of(finite, st.sampled_from([-0.9, 0.0, 0.2, 0.4])), min_size=1, max_size=15),
    delta=st.one_of(st.floats(1e-12, 3.0), st.sampled_from([0.1, 0.2, 1.0])),
    offset=st.sampled_from([0.0, 1e8, -3.5e12]),
)
def test_random_inputs(phis, xs, delta, offset):
    phis = np.asarray(phis, dtype=float) + offset
    xs = np.asarray(xs, dtype=float) + offset
    ys = np.resize(NOISE, phis.size)
    assert_matches_full_scan(xs, phis, ys, delta)


def write_csv(path, phis, ys):
    rows = (f"{k},{p!r},{y!r}" for k, (p, y) in enumerate(zip(phis.tolist(), ys.tolist()), 1))
    path.write_text("k,phi,y\n" + "\n".join(rows) + "\n", encoding="utf-8")


def fit_output(capsys, path, xs, delta):
    grid = ",".join(repr(x) for x in np.asarray(xs).tolist())
    argv = ["fit", "--input", str(path), f"--delta={delta!r}", f"--grid-list={grid}"]
    assert main([*argv, "--diagnostics"]) == 0
    return capsys.readouterr().out


def fit_rows(text):
    rows = [json.loads(line) for line in text.splitlines()]
    return [(r["active_count"], r["estimate"], r["objective"], r["support_sum"]) for r in rows]


def test_fit_command_matches_full_scan(capsys, tmp_path):
    phis = np.concatenate([EDGE, 1e8 + UNIFORM[:100], np.full(5, 1e8 + 0.25)])
    ys = np.resize(NOISE, phis.size)
    path = tmp_path / "edge.csv"
    write_csv(path, phis, ys)
    xs = EDGE[::2]
    ordered, ordered_ys = in_phi_order(phis, ys)
    want = window_rows(full_scan(xs, ordered, 0.05), ordered_ys, 0.05)
    assert fit_rows(fit_output(capsys, path, xs, 0.05)) == want


def test_fit_output_ignores_row_order(capsys, tmp_path):
    # Distinct regressors: every shuffle of the rows sums each window in
    # the same φ order, so the output is byte-identical.
    assert np.unique(UNIFORM).size == UNIFORM.size
    rng = np.random.default_rng(3)
    xs = np.linspace(-1.1, 1.1, 45)
    outputs = []
    for k in range(4):
        order = rng.permutation(UNIFORM.size) if k else np.arange(UNIFORM.size)
        path = tmp_path / f"rows{k}.csv"
        write_csv(path, UNIFORM[order], NOISE[order])
        outputs.append(fit_output(capsys, path, xs, 0.1))
    assert outputs[0].count("\n") == xs.size
    assert all(text == outputs[0] for text in outputs)


def test_tied_regressors_keep_file_order(capsys, tmp_path):
    # Each regressor four times, shuffled, with distinct outputs: the tied
    # samples of a window are summed in file order, and reruns agree.
    rng = np.random.default_rng(4)
    phis = rng.permutation(np.repeat(STEPS, 4))
    ys = rng.normal(size=phis.size) * 1e3
    path = tmp_path / "ties.csv"
    write_csv(path, phis, ys)
    xs = STEPS[::3] + 0.01
    first = fit_output(capsys, path, xs, 0.35)
    assert fit_output(capsys, path, xs, 0.35) == first
    ordered, ordered_ys = in_phi_order(phis, ys)
    assert fit_rows(first) == window_rows(full_scan(xs, ordered, 0.35), ordered_ys, 0.35)


def test_grid_solve_leaves_its_inputs_untouched():
    # Fresh arrays: a module-level one sorted in place by an earlier test
    # would hide the fault.
    rng = np.random.default_rng(8)
    phis, ys = rng.uniform(-1.0, 1.0, 300), rng.normal(size=300)
    kept = phis.copy(), ys.copy()
    grid_solve(np.linspace(-1.0, 1.0, 21), phis, ys, EstimatorConfig(delta=0.2))
    assert phis.tolist() == kept[0].tolist() and ys.tolist() == kept[1].tolist()


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(tuple(np.linspace(-3.5, 3.5, 29)), id="ascending"),
        pytest.param(tuple(np.linspace(3.5, -3.5, 29)), id="descending"),
        pytest.param(tuple(RNG.permutation(np.linspace(-3.5, 3.5, 29))), id="unsorted"),
    ],
)
def test_grid_solve_agrees_with_run_experiment(grid):
    spec = ExperimentSpec(
        function=Sine(), config=EstimatorConfig(delta=0.3), input_range=(-3.0, 3.0),
        noise_sigma=0.2, n_samples=500, seed=11, query_grid=grid,
    )
    phis, _, ys = _dataset_arrays(spec)
    kept = phis.copy(), ys.copy()
    estimates, counts, _, _ = grid_solve(np.asarray(grid), phis, ys, spec.config)
    assert phis.tolist() == kept[0].tolist() and ys.tolist() == kept[1].tolist()
    report = run_experiment(spec)
    assert counts.tolist() == report.active_count.tolist()
    assert np.array_equal(estimates, report.estimate, equal_nan=True)
    assert 0 < np.count_nonzero(counts) < counts.size


def one_sample_windows(rng):
    """Distinct regressors, outputs over many scales with signed zeros and
    subnormals among them, a ``delta`` below half the least regressor gap, so
    no window holds two samples, and queries at, beside and between samples."""
    n = int(rng.integers(1, 40))
    phis = rng.permutation(rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.integers(-3, 4))
    ordered = np.sort(phis)
    gap = float(np.min(np.diff(ordered), initial=1.0))
    delta = gap * rng.uniform(0.01, 0.49)
    ys = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    special = rng.random(n) < 0.2
    ys[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324, -1e-310], int(special.sum()))
    picks = rng.choice(phis, 30)
    xs = np.concatenate([picks, picks + delta * rng.uniform(-1.0, 1.0, 30),
                         rng.uniform(ordered[0] - delta, ordered[-1] + delta, 10)])
    return xs, phis, ys, delta


def test_one_sample_windows_are_bit_identical_in_both_modes():
    # A window of one sample adds nothing, so the two modes' sums agree bit
    # for bit, and so does their one readout, down to the sign of a zero.
    rng = np.random.default_rng(19)
    for _ in range(300):
        xs, phis, ys, delta = one_sample_windows(rng)
        config = EstimatorConfig(delta=delta)
        batch = grid_solve(xs, phis, ys, config)
        assert batch[1].max() <= 1
        engine = StreamingGrid(xs, config)
        engine.extend(phis, ys)
        stream = (engine.estimates(), engine.active_counts(), engine.objectives(),
                  engine.support_sums())
        for got, want in zip(stream, batch):
            assert got.tobytes() == want.tobytes()


def test_one_sample_windows_print_the_same_bytes_in_both_modes(capsys, tmp_path):
    rng = np.random.default_rng(23)
    for k in range(12):
        xs, phis, ys, delta = one_sample_windows(rng)
        path = tmp_path / f"sparse{k}.csv"
        write_csv(path, phis, ys)
        grid = ",".join(map(repr, xs.tolist()))
        argv = ["--input", str(path), f"--delta={delta!r}", f"--grid-list={grid}",
                "--diagnostics"]
        assert main(["fit", *argv]) == 0
        fit = capsys.readouterr().out
        assert main(["stream", *argv]) == 0
        assert capsys.readouterr().out == fit
