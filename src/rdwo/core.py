"""Windowed direct-weight estimation for 1-D regression.

An estimate at a query point ``x`` is a convex combination of the observed
outputs of all samples whose regressor lies strictly inside the window
``(x - delta, x + delta)``.  The weight of an in-window sample is
proportional to its margin from the nearer window endpoint, which maximizes
a worst-case accuracy objective over the probability simplex.  This module
holds the parameters and the closed form: the weights and objective of one
query, and :func:`grid_solve` for many.  Over data in stable φ order
(:func:`_sort_order`) each window is a slice, :func:`_window_sums` reduces
the windows to sums, and :func:`_readout` is the one readout of sums, which
:mod:`rdwo.streaming`, the one-pass variant, keeps as running sums.

Two reductions give the same table, and :func:`_window_sums` takes each
cell, one quantity of one query, from one of them:

- the moment kernel of :mod:`rdwo._moments` answers a cell of a window of
  at least ``_MOMENT_MIN`` samples from block-centred running moments, with
  no Python loop per query, where its a-priori bound proves the cell within
  ``_MOMENT_TOL`` of its sum of absolute terms;
- the loop :func:`_window_dots` answers every other cell: small windows,
  windows with a margin <= 0 at an end, sides over more than two blocks,
  and cells that fail the kernel's condition test or are not finite.

The loop sums a window longer than ``_DOT_BLOCK`` samples as dots of whole
blocks, added in order.  OpenBLAS runs a ``ddot`` of more than about 10,000
elements on several threads, which changes its summation order; the
blocks keep every sum on one thread, and the printed bits independent of
the BLAS thread count.  The kernel calls no BLAS.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EstimatorConfig",
    "NoSupportError",
    "query_weights",
    "simplex_objective",
    "grid_solve",
    "window_margins",
]


class NoSupportError(ValueError):
    """No sample lies strictly inside the query window."""


def _number(name: str, value) -> float:
    """``value`` as a finite float: any real number but a boolean, so numpy
    scalars pass and a string, boolean or null is refused rather than read
    by ``float()``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the largest float prints as given
        pass
    else:
        if math.isfinite(value):
            return value
    raise ValueError(f"{name} must be finite, got {value!r}")


# A spec's lists are checked here, not in simulate.py, their only caller:
# that is the largest module, compiled by the simulate command, and with
# this in it that command's peak memory read higher (ROADMAP.md, dead ends).
def _numbers(name: str, value, count: int | None = None) -> tuple[float, ...]:
    """A spec's list or tuple of numbers as floats, of ``count`` items if given.
    A list of finite built-in floats, as JSON and ``_even_grid`` give, is
    taken in one pass; any other goes item by item through ``_number``."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        shape = "a list of numbers" if count is None else f"a list of {count} numbers"
        raise ValueError(f"{name} must be {shape}, got {value!r}")
    if all(type(item) is float and math.isfinite(item) for item in value):
        return tuple(value)
    return tuple(_number(f"{name} item", item) for item in value)


def _even_grid(what: str, lo: float, hi: float, count: int) -> tuple[float, ...]:
    """``count`` evenly spaced points from ``lo`` to ``hi``, both finite, for
    ``--grid``, a spec's ``{min, max, count}`` and the slope scan of its
    input range, named ``what`` in errors.
    A span ``hi - lo`` that overflows is refused first: ``np.linspace`` would
    warn and make inf and nan points of it."""
    if not math.isfinite(hi - lo):
        raise ValueError(f"{what} span from {lo!r} to {hi!r} overflows")
    return tuple(np.linspace(lo, hi, count).tolist())


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator parameters.

    Attributes
    ----------
    delta:
        Window half-width in regressor units.  Samples farther than ``delta``
        from the query point get zero weight.
    l1:
        Lipschitz constant assumed for the unknown target function.  It scales
        the deterministic part of the error bound and never affects the
        weights themselves.
    """

    delta: float
    l1: float = 1.0

    def __post_init__(self) -> None:
        delta = _number("delta", self.delta)
        l1 = _number("l1", self.l1)
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        if l1 <= 0.0:
            raise ValueError(f"l1 must be positive, got {l1}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "l1", l1)


def _margins(dist, delta: float):
    """Elementwise endpoint margins ``delta - dist`` of the distances
    ``dist = |x - phi|``; the one form every array path uses, so their
    margins agree bit for bit."""
    return delta - dist


def window_margins(x: float, phis: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and margins of the regressors strictly inside ``(x - delta, x + delta)``.

    The margin is ``delta - |x - phi|``; a sample is in the window exactly
    when it is positive.  Positions ascend: over ascending regressors they
    are the slice :func:`_sorted_windows` gives.
    """
    margins = _margins(np.abs(x - phis), delta)
    positions = np.flatnonzero(margins > 0.0)
    return positions, margins[positions]


def query_weights(x: float, phis: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    """Closed-form weights of the query ``x``, positional over ``phis``.

    An in-window regressor's weight is its scaled margin ``r`` over their
    sum ``S``; every other weight is exactly zero.  The vector maximizes
    :func:`simplex_objective` over the simplex, at the Euclidean norm of the
    margins, the objective :func:`grid_solve` reports.

    Raises
    ------
    NoSupportError
        If no regressor lies strictly inside the window.
    ValueError
        If ``x`` or a regressor is not finite.
    """
    phis = np.asarray(phis, dtype=float)
    if not (math.isfinite(x) and np.all(np.isfinite(phis))):
        raise ValueError("x and phis must be finite")
    positions, margins = window_margins(x, phis, config.delta)
    if positions.size == 0:
        raise NoSupportError(f"no sample strictly inside the window around x={x!r}")
    weights = np.zeros(phis.size)
    r = margins / config.delta
    weights[positions] = r / float(np.sum(r))
    return weights


def simplex_objective(
    weights: np.ndarray, x: float, phis: np.ndarray, config: EstimatorConfig
) -> float:
    """Simplex-form accuracy objective ``sum(w * m) / sqrt(sum(w^2))`` of a
    weight vector positional over ``phis``, with ``m = delta - |x - phi|``
    over every regressor, negative outside the window.

    For nonnegative weights summing to one it equals the signed form that
    the oracles of :mod:`rdwo.oracle` climb, up to rounding.
    """
    w = np.asarray(weights, dtype=float)
    margins = _margins(np.abs(x - np.asarray(phis, dtype=float)), config.delta)
    return float(np.dot(w, margins)) / math.sqrt(float(np.dot(w, w)))


def _sorted_windows(xs: np.ndarray, phis: np.ndarray, delta: float):
    """Yield ``(a, b, distances, margins)`` of every query in ``xs`` over the
    ascending regressors ``phis``: its window is the slice ``phis[a:b]``, with
    distances ``|x - phi|`` and margins ``delta - |x - phi|``, all positive.

    The slice between ``fl(x - delta)`` and ``fl(x + delta)`` holds the whole
    window: rounding is monotone, so a positive margin implies ``x - delta <
    phi < x + delta``, and no double lies strictly between a real number and
    its nearest double.  The rounded margins over the slice rise and then
    fall, so only its two ends can hold a margin <= 0; they are trimmed.
    """
    lo = np.searchsorted(phis, xs - delta, side="left")
    hi = np.searchsorted(phis, xs + delta, side="right")
    for x, a, b in zip(xs.tolist(), lo.tolist(), hi.tolist()):
        distances = np.abs(x - phis[a:b])
        margins = _margins(distances, delta)
        if a < b and not (margins[0] > 0.0 and margins[-1] > 0.0):
            inside = np.flatnonzero(margins > 0.0)
            first, stop = (int(inside[0]), int(inside[-1]) + 1) if inside.size else (0, 0)
            distances, margins = distances[first:stop], margins[first:stop]
            a, b = a + first, a + stop
        yield a, b, distances, margins


# The most samples one np.dot sums, below the length from which OpenBLAS
# splits a ddot across threads; _sort_order checks keys in blocks as long.
_DOT_BLOCK = 8192


def _sort_order(keys: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of ``keys``, the one
    ``np.argsort(keys, kind="stable")`` gives.

    numpy's default sort is several times faster, and where the sorted keys
    strictly increase there is only one sorting permutation, so it is taken
    then.  Keys with two equal, ``-0.0`` and ``0.0`` among them, are sorted
    again stably.  The check gathers the sorted keys a block at a time, so
    that it holds no second array of their size beside the order.
    """
    order = np.argsort(keys)
    for start in range(0, keys.size, _DOT_BLOCK):
        ordered = keys[order[start : start + _DOT_BLOCK + 1]]
        if not (ordered[1:] > ordered[:-1]).all():
            del order
            return np.argsort(keys, kind="stable")
    return order


def _blocked_dot(r: np.ndarray, v: np.ndarray):
    """``r . v`` as the dots of ``_DOT_BLOCK``-sample blocks, added in order."""
    total = np.dot(r[:_DOT_BLOCK], v[:_DOT_BLOCK])
    for start in range(_DOT_BLOCK, r.size, _DOT_BLOCK):
        total += np.dot(r[start : start + _DOT_BLOCK], v[start : start + _DOT_BLOCK])
    return total


def _window_dots(xs: np.ndarray, phis: np.ndarray, delta: float, columns,
                 distances: bool = False) -> np.ndarray:
    """The window sums of every query in ``xs`` over the ascending regressors
    ``phis`` in the scaled margins ``r = margins / delta`` that
    :class:`~rdwo.streaming.StreamingGrid` folds, one row per quantity and one
    column per query: the active count, ``S = sum r``, ``SQ = r . r``,
    ``r . |x - phi|`` if ``distances`` is true, and ``r . v`` for each array
    ``v`` of ``columns``, aligned with ``phis``; all zero for an empty window.
    Nothing is divided.  A dot over more than ``_DOT_BLOCK`` samples is
    :func:`_blocked_dot`.
    """
    own = 2 if distances else 1
    table = np.zeros((2 + own + len(columns), xs.size))
    for i, (a, b, dist, margins) in enumerate(_sorted_windows(xs, phis, delta)):
        if b > a:
            r = margins / delta
            dot = np.dot if b - a <= _DOT_BLOCK else _blocked_dot
            table[:, i] = [b - a, np.add.reduce(r), *(dot(r, v) for v in (r, dist)[:own]),
                           *(dot(r, v[a:b]) for v in columns)]
    # A one-term dot keeps a -0 product, which a running sum from +0 never
    # holds; adding +0 turns -0 into +0 and leaves every other bit.
    table += 0.0
    return table


def _window_sums(xs: np.ndarray, phis: np.ndarray, delta: float, columns,
                 distances: bool = False, magnitudes: bool = False) -> np.ndarray:
    """The :func:`_window_dots` table of the queries ``xs`` over the
    ascending regressors ``phis``, with ``magnitudes`` also a row ``r .
    |v|`` for each column after the rest: each cell from
    :func:`rdwo._moments._moment_table` where its condition test passes,
    and from the loop :func:`_window_dots` elsewhere.  A cell's bits depend
    only on the data, ``delta``, its query and its own column."""
    from ._moments import _moment_table

    table, loop = _moment_table(xs, phis, delta, columns, distances, magnitudes)
    redo = np.flatnonzero(loop.any(axis=0))
    if redo.size:
        if magnitudes:
            columns = (*columns, *map(np.abs, columns))
        fallback = _window_dots(xs[redo], phis, delta, columns, distances)
        table[:, redo] = np.where(loop[:, redo], fallback, table[:, redo])
    return table


def _readout(delta: float, counts, s, sq, sy):
    """The ``(estimates, active_counts, objectives, support_sums)`` of window
    sums in scaled margins, for batch and streaming alike, given as the rows
    of a :func:`_window_dots` table: the count, ``S``, ``SQ`` and ``SY`` (a
    row, or a table of rows, of ``r . y``).  They read out as ``SY / S``,
    the count as a new int array, ``delta * sqrt(SQ)``, the norm of the
    margins, and ``delta * S``; nan estimates and objectives without
    support."""
    supported = counts > 0
    estimates = np.divide(sy, s, out=np.full(np.shape(sy), np.nan), where=supported)
    return (estimates, counts.astype(int), np.where(supported, delta * np.sqrt(sq), np.nan),
            delta * s)


def grid_solve(
    xs: np.ndarray,
    phis: np.ndarray,
    ys: np.ndarray,
    config: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form solution at many query points over one dataset.

    Returns ``(estimates, active_counts, objectives, support_sums)``, the
    per-point arrays a :class:`~rdwo.streaming.StreamingGrid` reports, through
    the same :func:`_readout`.  An objective is the maximum of
    :func:`simplex_objective`, the Euclidean norm of the window's margins.
    Queries with empty support get ``nan`` estimates and objectives and zero
    counts and sums.  ``fit`` and ``verify`` answer their queries with it.
    """
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if phis.shape != ys.shape or phis.ndim != 1:
        raise ValueError("phis and ys must be aligned 1-D arrays")
    # The windows read sorted copies.  The sort order is freed before phis is
    # copied, so that no more than two arrays of the data's size exist at once.
    ys = ys[_sort_order(phis)]
    return _readout(config.delta, *_window_sums(xs, np.sort(phis), config.delta, (ys,)))
