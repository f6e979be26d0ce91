"""Windowed direct-weight estimation for 1-D regression.

An estimate at a query point ``x`` is a convex combination of the observed
outputs of all samples whose regressor lies strictly inside the window
``(x - delta, x + delta)``.  The weight of an in-window sample is
proportional to its margin from the nearer window endpoint, which maximizes
a worst-case accuracy objective over the probability simplex.  This module
holds the domain types and the closed-form batch solver; see
:mod:`rdwo.streaming` for the one-pass variant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Sample",
    "EstimatorConfig",
    "CenteredDistance",
    "ActiveSet",
    "WeightSolution",
    "NoSupportError",
    "centered_distance",
    "phi_hat_values",
    "active_set",
    "batch_weights",
    "batch_weights_arrays",
    "estimate",
    "objective_value",
    "signed_objective_value",
    "optimal_objective",
    "grid_solve",
    "grid_estimates",
    "window_margins",
    "sorted_windows",
]

# Max absolute slack allowed when checking that weights sum to one.
WEIGHT_SUM_TOL = 1e-12


class NoSupportError(ValueError):
    """No sample lies strictly inside the query window."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


# The checks of experiment-spec numbers live here, not in simulate.py: that
# is the largest module, and its compile sets the peak memory of the import.
def _number(name: str, value) -> float:
    """A spec's JSON number as a float; a string, boolean or null is refused
    rather than read by ``float()``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return _require_finite(name, value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value!r}") from None


def _numbers(name: str, value, count: int | None = None) -> tuple[float, ...]:
    """A spec's JSON list of numbers, of ``count`` items if given."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        shape = "a list of numbers" if count is None else f"a list of {count} numbers"
        raise ValueError(f"{name} must be {shape}, got {value!r}")
    return tuple(_number(f"{name} item", item) for item in value)


@dataclass(frozen=True)
class Sample:
    """One observation: a positive integer index, regressor value, and output."""

    index: int
    phi: float
    y: float

    def __post_init__(self) -> None:
        index = operator.index(self.index)
        if index < 1:
            raise ValueError(f"sample index must be >= 1, got {index}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "phi", _require_finite("phi", self.phi))
        object.__setattr__(self, "y", _require_finite("y", self.y))


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
        delta = _require_finite("delta", self.delta)
        l1 = _require_finite("l1", self.l1)
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        if l1 <= 0.0:
            raise ValueError(f"l1 must be positive, got {l1}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "l1", l1)

    @property
    def delta_prime(self) -> float:
        """Window half-width expressed in output units, ``l1 * delta``."""
        return self.l1 * self.delta


@dataclass(frozen=True)
class CenteredDistance:
    """Distance of one regressor from a query point, in two forms.

    ``phi_tilde`` is the plain distance ``|x - phi|``.  ``phi_hat`` is the
    margin from the nearer window endpoint, ``delta - phi_tilde``; it is
    positive exactly when the sample sits strictly inside the window.  Both
    are produced by :func:`centered_distance` with a single subtraction, so
    ``phi_tilde + phi_hat`` reproduces ``delta`` up to one rounding.
    """

    phi_tilde: float
    phi_hat: float

    @property
    def inside(self) -> bool:
        return self.phi_hat > 0.0


@dataclass(frozen=True)
class ActiveSet:
    """Indices of the samples strictly inside a query window, ascending."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.members, self.members[1:]):
            if a >= b:
                raise ValueError("active set members must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, index: object) -> bool:
        return index in self.members

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class WeightSolution:
    """A weight vector over the samples of one query, plus its active set
    and achieved objective value.

    ``weights`` is positional: entry ``i`` belongs to the ``i``-th sample of
    the sequence the solution was built from.  Entries outside the active set
    are exactly zero, active entries are positive, and the vector sums to one
    within ``WEIGHT_SUM_TOL``.
    """

    weights: np.ndarray
    active: ActiveSet
    objective: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-D array")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if int(np.count_nonzero(weights > 0.0)) != self.active.size:
            raise ValueError("positive weight count must match the active set size")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "objective", _require_finite("objective", self.objective))


def centered_distance(x: float, phi: float, config: EstimatorConfig) -> CenteredDistance:
    """Distance forms of one regressor relative to the query point ``x``."""
    x = _require_finite("x", x)
    phi = _require_finite("phi", phi)
    phi_tilde = abs(x - phi)
    return CenteredDistance(phi_tilde=phi_tilde, phi_hat=config.delta - phi_tilde)


def _margins(dist, delta: float):
    """Elementwise endpoint margins ``delta - dist`` of the distances
    ``dist = |x - phi|``; the one form every array path uses, so their
    margins agree bit for bit."""
    return delta - dist


def phi_hat_values(x: float, phis: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    """Vectorized endpoint margins ``delta - |x - phis|``."""
    x = _require_finite("x", x)
    phis = np.asarray(phis, dtype=float)
    return _margins(np.abs(x - phis), config.delta)


def active_set(x: float, samples: Sequence[Sample], config: EstimatorConfig) -> ActiveSet:
    """Indices of the samples strictly inside the window around ``x``.

    Boundary samples (``phi_hat == 0``) are excluded.  The result may be
    empty; emptiness is meaningful, not an error.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    x = _require_finite("x", x)
    phis = np.fromiter((s.phi for s in samples), dtype=float, count=len(samples))
    positions, _ = window_margins(x, phis, config.delta)
    return ActiveSet(members=tuple(sorted(samples[p].index for p in positions)))


def window_margins(x: float, phis: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and margins of the regressors strictly inside ``(x - delta, x + delta)``.

    The margin is ``delta - |x - phi|``; a sample is in the window exactly
    when it is positive.  Positions ascend, so sums over the margins always
    run in sample order.
    """
    margins = _margins(np.abs(x - phis), delta)
    positions = np.flatnonzero(margins > 0.0)
    return positions, margins[positions]


def sorted_windows(xs: np.ndarray, phis: np.ndarray, delta: float):
    """Yield ``(positions, distances, margins)`` of every query in ``xs``:
    the positions and margins :func:`window_margins` over all of ``phis``
    would give, and the distances ``|x - phi|`` the margins came from.

    The regressors are sorted once.  Each query then scans only the slice
    between the binary-search bounds ``fl(x - delta)`` and ``fl(x + delta)``,
    put back in sample order, so it sees the same operands in the same
    order as a scan of all samples.  The slice holds the whole window:
    rounding is monotone, so a positive margin implies ``x - delta < phi <
    x + delta`` exactly, and no double lies strictly between a real number
    and its nearest double, so ``fl(x - delta) <= phi <= fl(x + delta)``.
    Only rounding at the two ends can put a sample with a margin <= 0 in
    the slice, so it is compressed only when one is there.
    """
    order = np.argsort(phis)  # need not be stable: each slice is re-sorted by position
    lo = np.searchsorted(phis, xs - delta, side="left", sorter=order)
    hi = np.searchsorted(phis, xs + delta, side="right", sorter=order)
    # Each slice is sorted as int32, twice as fast as int64; casting the
    # slice, not the whole order, keeps a second copy of it out of memory.
    # The sorted positions go back to intp at once: a gather through int32
    # indices casts them again each time, and callers gather several times.
    position_type = np.int32 if phis.size <= np.iinfo(np.int32).max else np.intp
    for x, a, b in zip(xs.tolist(), lo.tolist(), hi.tolist()):
        positions = order[a:b].astype(position_type)
        positions.sort()
        positions = positions.astype(np.intp, copy=False)
        distances = np.abs(x - phis[positions])
        margins = _margins(distances, delta)
        inside = margins > 0.0
        if not inside.all():
            positions, distances, margins = positions[inside], distances[inside], margins[inside]
        yield positions, distances, margins


def batch_weights_arrays(
    x: float,
    phis: np.ndarray,
    config: EstimatorConfig,
    indices: Sequence[int] | None = None,
) -> WeightSolution:
    """Closed-form weights for the query ``x`` over regressors ``phis``.

    Array-level twin of :func:`batch_weights`.  ``indices`` supplies the
    sample indices aligned with ``phis``; positions ``1..n`` are assumed when
    omitted.

    Raises
    ------
    NoSupportError
        If no regressor lies strictly inside the window.
    """
    x = _require_finite("x", x)
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or phis.size == 0:
        raise ValueError("phis must be a nonempty 1-D array")
    if not np.all(np.isfinite(phis)):
        raise ValueError("phis must be finite")
    positions, support = window_margins(x, phis, config.delta)
    if positions.size == 0:
        raise NoSupportError(f"no sample strictly inside the window around x={x!r}")
    active_weights = support / float(np.sum(support))
    weights = np.zeros(phis.size)
    weights[positions] = active_weights
    if indices is None:
        members = tuple(int(p) + 1 for p in positions)
    else:
        if len(indices) != phis.size:
            raise ValueError("indices must align with phis")
        members = tuple(sorted(int(indices[p]) for p in positions))
    numer = float(np.dot(active_weights, support))
    denom = math.sqrt(float(np.dot(active_weights, active_weights)))
    return WeightSolution(weights=weights, active=ActiveSet(members), objective=numer / denom)


def batch_weights(x: float, samples: Sequence[Sample], config: EstimatorConfig) -> WeightSolution:
    """Closed-form weights for the query ``x`` over ``samples``.

    The weight of sample ``k`` is its endpoint margin divided by the sum of
    the margins over the active set; out-of-window samples get exactly zero.
    This vector maximizes :func:`objective_value` over the simplex, with
    optimum :func:`optimal_objective`.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    phis = np.fromiter((s.phi for s in samples), dtype=float, count=len(samples))
    indices = [s.index for s in samples]
    return batch_weights_arrays(x, phis, config, indices=indices)


def estimate(solution: WeightSolution, samples: Sequence[Sample]) -> float:
    """Weighted-output estimate for the query the solution was built for."""
    if len(solution.weights) != len(samples):
        raise ValueError(
            f"solution covers {len(solution.weights)} samples, got {len(samples)}"
        )
    ys = np.fromiter((s.y for s in samples), dtype=float, count=len(samples))
    return float(np.dot(solution.weights, ys))


def _as_weight_array(weights: Sequence[float], n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != n:
        raise ValueError(f"weights must be a 1-D array of length {n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if not np.any(w != 0.0):
        raise ValueError("weights must not be all zero")
    return w


def objective_value(
    weights: Sequence[float],
    x: float,
    samples: Sequence[Sample],
    config: EstimatorConfig,
) -> float:
    """Simplex-form accuracy objective of a weight vector.

    Computes ``sum(w * phi_hat) / sqrt(sum(w^2))``.  For nonnegative weights
    summing to one this equals :func:`signed_objective_value`; the identity is
    an algebraic rearrangement, so the two forms agree to rounding on simplex
    inputs.
    """
    w = _as_weight_array(weights, len(samples))
    phis = np.fromiter((s.phi for s in samples), dtype=float, count=len(samples))
    ph = phi_hat_values(x, phis, config)
    return float(np.dot(w, ph)) / math.sqrt(float(np.dot(w, w)))


def signed_objective_value(
    weights: Sequence[float],
    x: float,
    samples: Sequence[Sample],
    config: EstimatorConfig,
) -> float:
    """Signed-form accuracy objective, defined for arbitrary weight signs.

    Computes ``(delta - sum(|w| * phi_tilde)) / sqrt(sum(w^2))``.
    """
    w = _as_weight_array(weights, len(samples))
    x = _require_finite("x", x)
    phis = np.fromiter((s.phi for s in samples), dtype=float, count=len(samples))
    dist = np.abs(x - phis)
    numer = config.delta - float(np.dot(np.abs(w), dist))
    return numer / math.sqrt(float(np.dot(w, w)))


def optimal_objective(x: float, samples: Sequence[Sample], config: EstimatorConfig) -> float:
    """Maximum of :func:`objective_value` over the simplex.

    Equals the Euclidean norm of the active endpoint margins,
    ``sqrt(sum over active of phi_hat^2)``, achieved by :func:`batch_weights`.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    x = _require_finite("x", x)
    phis = np.fromiter((s.phi for s in samples), dtype=float, count=len(samples))
    _, support = window_margins(x, phis, config.delta)
    if support.size == 0:
        raise NoSupportError(f"no sample strictly inside the window around x={x!r}")
    return math.sqrt(float(np.dot(support, support)))


def grid_solve(
    xs: np.ndarray,
    phis: np.ndarray,
    ys: np.ndarray,
    config: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form solution at many query points over one dataset.

    Returns ``(estimates, active_counts, objectives, support_sums)``, the
    per-point arrays a :class:`~rdwo.streaming.StreamingGrid` reports.
    Queries with empty support get ``nan`` estimates and objectives and zero
    counts and sums.
    """
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if phis.shape != ys.shape or phis.ndim != 1:
        raise ValueError("phis and ys must be aligned 1-D arrays")
    estimates = np.full(xs.size, np.nan)
    counts = np.zeros(xs.size, dtype=int)
    objectives = np.full(xs.size, np.nan)
    sums = np.zeros(xs.size)
    for i, (positions, _, support) in enumerate(sorted_windows(xs, phis, config.delta)):
        if positions.size:
            total = float(np.sum(support))
            estimates[i] = float(np.dot(support / total, ys[positions]))
            counts[i] = positions.size
            objectives[i] = math.sqrt(float(np.dot(support, support)))
            sums[i] = total
    return estimates, counts, objectives, sums


def grid_estimates(
    xs: np.ndarray,
    phis: np.ndarray,
    ys: np.ndarray,
    config: EstimatorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form estimates at many query points over one dataset.

    Returns ``(estimates, active_counts)`` of :func:`grid_solve`.
    """
    estimates, counts, _, _ = grid_solve(xs, phis, ys, config)
    return estimates, counts
