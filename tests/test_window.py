"""Differential tests of the sorted-window kernel against a full scan.

``sorted_windows`` must hand every query the same operands, in the same
order, as a scan of all samples, so every sum and dot product over a window
is bit-identical: counts equal, and distances, estimates, objectives and
support sums compared with ``==``, not a tolerance.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdwo.cli import main
from rdwo.core import EstimatorConfig, grid_estimates, sorted_windows, window_margins

ULP = 2.0**-52


def window_rows(positions_and_margins, ys):
    """(count, estimate, objective, support_sum) per query, as ``cmd_fit`` forms them."""
    rows = []
    for positions, _, support in positions_and_margins:
        if positions.size == 0:
            rows.append((0, None, None, None))
            continue
        total = float(np.sum(support))
        est = float(np.dot(support / total, ys[positions]))
        rows.append((positions.size, est, math.sqrt(float(np.dot(support, support))), total))
    return rows


def full_scan(xs, phis, delta):
    for x in xs:
        distances = np.abs(x - phis)
        margins = delta - distances
        mask = margins > 0.0
        yield np.flatnonzero(mask), distances[mask], margins[mask]


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
    fast = list(sorted_windows(xs, phis, delta))
    slow = list(full_scan(xs, phis, delta))
    for (fp, fd, fm), (sp, sd, sm) in zip(fast, slow, strict=True):
        assert fp.tolist() == sp.tolist()
        assert fd.tolist() == sd.tolist()
        assert fm.tolist() == sm.tolist()
    assert window_rows(fast, ys) == window_rows(slow, ys)
    estimates, counts = grid_estimates(xs, phis, ys, EstimatorConfig(delta=delta))
    rows = window_rows(slow, ys)
    assert counts.tolist() == [r[0] for r in rows]
    assert [None if math.isnan(e) else e for e in estimates.tolist()] == [r[1] for r in rows]


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


def test_unsorted_regressors_keep_sample_order():
    phis = RNG.permutation(np.repeat(STEPS, 3))
    positions, _, _ = next(sorted_windows(np.array([0.0]), phis, 0.25))
    assert positions.tolist() == sorted(positions.tolist())
    assert_matches_full_scan(STEPS, phis, RNG.normal(size=phis.size), 0.25)


def test_empty_data_has_no_support():
    windows = list(sorted_windows(np.array([0.0, 1.0]), np.array([]), 1.0))
    assert [p.size for p, _, _ in windows] == [0, 0]


def test_single_query_helper_matches_driver():
    positions, margins = window_margins(0.1, UNIFORM, 0.2)
    (dp, dd, dm), = sorted_windows(np.array([0.1]), UNIFORM, 0.2)
    assert positions.tolist() == dp.tolist() and margins.tolist() == dm.tolist()
    assert dd.tolist() == np.abs(0.1 - UNIFORM[positions]).tolist()


def test_all_inside_windows_match_full_scan():
    # No sample sits at a rounded window end, so every candidate is inside
    # and each window is handed on without being compressed.
    xs = np.linspace(-0.9, 0.9, 19)
    sizes = slice_sizes(xs, UNIFORM, 0.15)
    windows = list(sorted_windows(xs, UNIFORM, 0.15))
    assert [p.size for p, _, _ in windows] == sizes and min(sizes) > 0
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
    # here a sample with a margin <= 0 is in some slice and is dropped.
    phis = np.asarray(phis, dtype=float)
    windows = list(sorted_windows(np.asarray(xs, dtype=float), phis, delta))
    assert any(p.size < size for (p, _, _), size in zip(windows, slice_sizes(xs, phis, delta)))


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


def test_fit_command_matches_full_scan(capsys, tmp_path):
    phis = np.concatenate([EDGE, 1e8 + UNIFORM[:100], np.full(5, 1e8 + 0.25)])
    ys = np.resize(NOISE, phis.size)
    path = tmp_path / "edge.csv"
    rows = (f"{k},{p!r},{y!r}" for k, (p, y) in enumerate(zip(phis.tolist(), ys.tolist()), 1))
    path.write_text("k,phi,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    xs = EDGE[::2]
    grid = ",".join(repr(x) for x in xs.tolist())
    code = main(["fit", "--input", str(path), "--delta=0.05", f"--grid-list={grid}", "--diagnostics"])
    assert code == 0
    got = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    want = window_rows(full_scan(xs, phis, 0.05), ys)
    assert [(r["active_count"], r["estimate"], r["objective"], r["support_sum"]) for r in got] == want
