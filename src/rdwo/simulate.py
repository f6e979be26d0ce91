"""Seeded synthetic experiments for the estimator and its error bound.

A run draws regressors uniformly on an input range, evaluates a known
Lipschitz target function, adds Gaussian noise, estimates at a grid of query
points, and checks the realized error of every supported query against its
computed bound.  The same run also answers every query in one streaming pass
over the same seeded data, in stream order; the report keeps those estimates
as its ``stream_estimate`` column, and :func:`max_relative_deviation`
measures how far they are from the batch estimates.

:func:`run_experiment` answers the whole grid in the calling process: the
batch windows reduce φ-sorted copies of the seeded data with
``core._window_sums``, the reduction ``grid_solve`` reads, the error bounds
are checked, and then the data is drawn again, in stream order, and
streamed over the grid, whose breakpoints cut the streaming state.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from ._moments import _MOMENT_TOL, _U
from .core import (
    EstimatorConfig,
    _even_grid,
    _number,
    _numbers,
    _readout,
    _sort_order,
    _window_sums,
)
from .streaming import StreamingGrid

__all__ = [
    "Sine",
    "Atan",
    "PiecewiseLinear",
    "FunctionSpec",
    "ExperimentSpec",
    "QUERY_HEADER",
    "QUERY_KINDS",
    "QUERY_NULLABLE",
    "ExperimentReport",
    "lipschitz_scan",
    "run_experiment",
    "max_relative_deviation",
    "load_spec",
]


@dataclass(frozen=True)
class Sine:
    """Target ``amplitude * sin(frequency * phi)`` with slope bound
    ``|amplitude * frequency|``."""

    amplitude: float = 1.0
    frequency: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", _number("amplitude", self.amplitude))
        object.__setattr__(self, "frequency", _number("frequency", self.frequency))

    @property
    def l1(self) -> float:
        return abs(self.amplitude * self.frequency)

    def __call__(self, phi):
        return self.amplitude * np.sin(self.frequency * np.asarray(phi, dtype=float))


@dataclass(frozen=True)
class Atan:
    """Target ``arctan(scale * phi)`` with slope bound ``|scale|`` (attained
    at the origin)."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _number("scale", self.scale))

    @property
    def l1(self) -> float:
        return abs(self.scale)

    def __call__(self, phi):
        return np.arctan(self.scale * np.asarray(phi, dtype=float))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear interpolant through ``knots``, clamped outside them.

    The slope bound is the steepest segment; clamping cannot exceed it.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.knots, (list, tuple)):
            raise ValueError(f"knots must be a list of [x, y] pairs, got {self.knots!r}")
        knots = tuple(_numbers("knot", knot, 2) for knot in self.knots)
        if len(knots) < 2:
            raise ValueError("piecewise-linear target needs at least two knots")
        if any(a >= b for (a, _), (b, _) in zip(knots, knots[1:])):
            raise ValueError("knot positions must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @property
    def l1(self) -> float:
        slopes = [
            abs((fb - fa) / (b - a))
            for (a, fa), (b, fb) in zip(self.knots, self.knots[1:])
        ]
        return max(slopes)

    def __call__(self, phi):
        xs = np.array([a for a, _ in self.knots])
        fs = np.array([b for _, b in self.knots])
        return np.interp(np.asarray(phi, dtype=float), xs, fs)


FunctionSpec = Sine | Atan | PiecewiseLinear


def lipschitz_scan(fn, lo: float, hi: float, points: int = 4001) -> float:
    """Largest finite-difference slope magnitude of ``fn`` on a dense grid.

    By the mean value theorem this never exceeds the true Lipschitz constant
    on ``[lo, hi]``, so it validates a declared slope bound from below.  A
    range whose span overflows is refused, and a target that overflows on
    it scans inf or nan with no numpy warning.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    grid = np.array(_even_grid("input_range", lo, hi, points))
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(grid), dtype=float)
        return float(np.max(np.abs(np.diff(vals) / np.diff(grid))))


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one seeded experiment.

    Construction validates that the declared slope bound of the target holds
    on the input range and that the estimator's assumed Lipschitz constant
    dominates the target's, so the error bound's premise is really met.
    """

    function: FunctionSpec
    config: EstimatorConfig
    input_range: tuple[float, float]
    noise_sigma: float
    n_samples: int
    seed: int
    query_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        lo, hi = _numbers("input_range", self.input_range, 2)
        if not lo < hi:
            raise ValueError(f"input_range must be a finite interval, got {(lo, hi)!r}")
        object.__setattr__(self, "input_range", (lo, hi))
        sigma = _number("noise_sigma", self.noise_sigma)
        if sigma < 0.0:
            raise ValueError(f"noise_sigma must be nonnegative, got {sigma}")
        object.__setattr__(self, "noise_sigma", sigma)
        object.__setattr__(self, "n_samples", _require_int("n_samples", self.n_samples, 1))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))
        grid = _numbers("query_grid", self.query_grid)
        if not grid:
            raise ValueError("query_grid must be nonempty")
        object.__setattr__(self, "query_grid", grid)
        scanned = lipschitz_scan(self.function, lo, hi)
        if not scanned <= self.function.l1 + 1e-9:
            raise ValueError(
                f"target function exceeds its declared slope bound on the input "
                f"range: scanned {scanned}, declared {self.function.l1}"
            )
        if self.function.l1 > self.config.l1 * (1.0 + 1e-12):
            raise ValueError(
                f"estimator l1 ({self.config.l1}) must dominate the target's "
                f"slope bound ({self.function.l1})"
            )

    @staticmethod
    def from_dict(data: dict) -> "ExperimentSpec":
        """The spec of a JSON object; each value is checked where it is
        constructed."""
        _reject_unknown("experiment spec", data, _SPEC_KEYS)
        try:
            return ExperimentSpec(
                function=_function_from_dict(data["function"]),
                config=EstimatorConfig(delta=data["delta"], l1=data["l1"]),
                query_grid=_grid_from_value(data["query_grid"]),
                input_range=data["input_range"],
                noise_sigma=data.get("noise_sigma", 0.0),
                n_samples=data["n_samples"],
                seed=data.get("seed", 0),
            )
        except KeyError as exc:
            raise ValueError(f"experiment spec is missing field {exc.args[0]!r}") from None


_SPEC_KEYS = (
    "function", "delta", "l1", "input_range", "noise_sigma", "n_samples", "seed", "query_grid"
)
_FUNCTIONS = {"sine": Sine, "atan": Atan, "piecewise_linear": PiecewiseLinear}


def _reject_unknown(where: str, data: dict, known) -> None:
    """A misspelled key would silently fall back to a default, so none passes."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown {where} field(s): {', '.join(map(repr, unknown))}")


def _require_int(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; whole floats pass,
    fractions and booleans do not.  An error names the value as given."""
    whole = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(whole, bool) or not isinstance(whole, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if whole < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(whole)


def _function_from_dict(data: dict) -> FunctionSpec:
    """The target of a spec's ``function`` object: its ``kind``, then the
    fields of that kind's class, each optional where the class has a
    default."""
    if not isinstance(data, dict):
        raise ValueError(f"function must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _FUNCTIONS:
        raise ValueError(f"unknown target function kind: {kind!r}")
    known = fields(_FUNCTIONS[kind])
    _reject_unknown(f"{kind} function", data, ("kind", *(f.name for f in known)))
    # A missing field without a default raises its KeyError here.
    return _FUNCTIONS[kind](**{f.name: data[f.name] for f in known
                               if f.name in data or f.default is MISSING})


def _grid_from_value(value):
    """A spec's ``query_grid``, its ``{min, max, count}`` shorthand expanded."""
    if isinstance(value, dict):
        _reject_unknown("query_grid", value, ("min", "max", "count"))
        count = _require_int("grid count", value["count"], 1)
        lo = _number("query_grid min", value["min"])
        hi = _number("query_grid max", value["max"])
        return _even_grid("query_grid", lo, hi, count)
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"query_grid must be a list or a {{min, max, count}} object, got {value!r}"
        )
    return value


def load_spec(path) -> ExperimentSpec:
    """Read an :class:`ExperimentSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"experiment spec must be a JSON object, got {type(data).__name__}")
    return ExperimentSpec.from_dict(data)


def _target_values(spec: ExperimentSpec, phis: np.ndarray) -> np.ndarray:
    """The target at ``phis`` with numpy warnings off, as in
    :func:`lipschitz_scan`, since ``arctan`` of an overflowed product is
    finite; a value that is not finite is refused, naming its point."""
    with np.errstate(all="ignore"):
        values = np.asarray(spec.function(phis), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"the target function is not finite at {phis[bad[0]].item()!r}")
    return values


def _dataset_arrays(spec: ExperimentSpec):
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.input_range
    phis = rng.uniform(lo, hi, spec.n_samples)
    noises = rng.normal(0.0, spec.noise_sigma, spec.n_samples)
    return phis, noises, _target_values(spec, phis) + noises


def _error_check(est, truth, smooth_sum, noise_sum, y_magnitude, noise_magnitude, count,
                 l1: float):
    """Absolute errors of the estimates ``est``, their computable bounds,
    and whether each holds, from each query's weighted sums ``w . |x - phi|``,
    ``w . noise``, ``w . |y|`` and ``w . |noise|`` over its ``count`` active
    samples, with the weights ``w = r / S`` of the scaled margins ``r``.

    The bound ``l1 * w . |x - phi| + |w . noise|`` holds exactly for
    nonnegative weights summing to one, as ``r / S`` do over the computed
    ``r``.  The check allows for the rounding of ``est`` and the bound, each
    a quotient ``fl(N) / fl(S)`` of window sums.  Every window sum ``N = r .
    v`` of ``core._window_sums``, and ``S``, is within ``rho * r . |v|`` of
    its exact value over the computed ``r``: ``rho = gamma_n = n*u/(1 -
    n*u)`` where the loop adds its ``n`` terms, in any order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1, lemmas
    3.1 and 3.3), and ``rho = _moments._MOMENT_TOL`` where the moment kernel
    answers, which its condition test guarantees; so ``rho`` is the larger
    of the two.  As ``|N| / S <= w . |v|``, ``|fl(N) / fl(S) - N / S| <= 2
    rho / (1 - rho) * w . |v|``, with no term in ``|truth|``, and the
    division rounds once more: within ``2 rho + 2u`` to first order.  One
    rounding more in the data (an output's sum, a gap's subtraction) and
    three in the check (the error, the product by ``l1``, the bound's sum)
    make ``nu = 2 rho + 6u``, and ``nu / (1 - nu)`` covers the higher
    orders.  A query without support has nan sums, so its bound does not
    hold.
    """
    err = np.abs(est - truth)
    smooth = l1 * smooth_sum
    bound = smooth + np.abs(noise_sum)
    magnitude = y_magnitude + smooth + noise_magnitude
    terms = count * _U
    nu = 2.0 * np.maximum(terms / (1.0 - terms), _MOMENT_TOL) + 6.0 * _U
    return err, bound, err <= bound + nu / (1.0 - nu) * magnitude


# The query table of a run, in print order: the column names, one cell kind
# per column (``f`` float, ``b`` bool, ``d`` int), and the columns a query
# without support prints as null.
QUERY_HEADER = ("x", "truth", "estimate", "abs_error", "bound_z", "bound_holds", "active_count")
QUERY_KINDS = "fffffbd"
QUERY_NULLABLE = ("estimate", "abs_error", "bound_z", "bound_holds")


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment run: one array per query column, named and
    ordered as :data:`QUERY_HEADER`, then two no table prints, the streaming
    pass's ``stream_estimate`` and ``y_magnitude``, the scale ``w . |y|`` of
    each estimate, then the aggregates.

    A query is supported when its ``active_count`` is positive; one without
    support has nan in ``estimate``, ``abs_error``, ``bound_z`` and
    ``stream_estimate`` and ``y_magnitude`` and False in ``bound_holds``.
    """

    x: np.ndarray
    truth: np.ndarray
    estimate: np.ndarray
    abs_error: np.ndarray
    bound_z: np.ndarray
    bound_holds: np.ndarray
    active_count: np.ndarray
    stream_estimate: np.ndarray
    y_magnitude: np.ndarray
    supported_count: int
    no_support_count: int
    violation_count: int
    mean_abs_error: float | None
    max_abs_error: float | None


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run one seeded experiment end to end.

    Every query is answered from the closed-form weights over the full
    dataset, and its error bound is evaluated from the same weights and the
    distances they came from (see :func:`_answer`); then one streaming pass
    over the same data answers it again.  The target is evaluated once on the
    whole grid; its elementwise ufuncs give each point what a scalar call
    gives.
    """
    x = np.asarray(spec.query_grid)
    truth = _target_values(spec, x)
    count, estimate, abs_error, bound_z, bound_holds, y_magnitude = _answer(spec, x, truth)
    stream = StreamingGrid(x, spec.config)
    stream.extend(*_dataset_arrays(spec)[::2])
    supported = count > 0
    errors = abs_error[supported]
    return ExperimentReport(
        x, truth, estimate, abs_error, bound_z, bound_holds, count, stream.estimates(),
        y_magnitude,
        supported_count=errors.size,
        no_support_count=x.size - errors.size,
        violation_count=int(np.count_nonzero(supported & ~bound_holds)),
        mean_abs_error=float(np.mean(errors)) if errors.size else None,
        max_abs_error=float(np.max(errors)) if errors.size else None,
    )


def _answer(spec: ExperimentSpec, x: np.ndarray, truth: np.ndarray):
    """The checked batch answers at the query points ``x``, whose targets
    are ``truth``: the columns ``active_count``, ``estimate``,
    ``abs_error``, ``bound_z``, ``bound_holds`` and ``y_magnitude`` of the
    report.

    The batch windows read φ-sorted copies of the seeded data, each array
    replaced by its copy one at a time, and the error check follows.  An
    error raises in that order, before the data is drawn again to stream.
    """
    phis, noises, ys = _dataset_arrays(spec)
    order = _sort_order(phis)
    phis = phis[order]
    noises = noises[order]
    ys = ys[order]
    del order
    # count, S, SQ, r . |x - phi|, r . y, r . noise, r . |y|, r . |noise|
    sums = _window_sums(x, phis, spec.config.delta, (ys, noises), True, True)
    del phis, noises, ys  # before the data is drawn again, in stream order
    # w . y, w . |x - phi|, w . noise, w . |y|, w . |noise| with w = r / S
    means, count = _readout(spec.config.delta, *sums[:3], sums[[4, 3, 5, 6, 7]])[:2]
    checked = _error_check(means[0], truth, *means[1:], sums[0], spec.config.l1)
    return count, means[0], *checked, means[3]


def max_relative_deviation(report: ExperimentReport, estimates: Sequence) -> float:
    """Largest relative disagreement between a report's estimates and
    ``estimates``, one per query, with None or nan where unsupported.

    A gap is relative to the query's ``w . |y|``, which bounds the terms of
    its estimate however they cancel.  The support must be the report's.
    """
    others = np.array(estimates, dtype=float)
    if others.shape != report.estimate.shape:
        raise ValueError(f"{len(estimates)} estimates for {report.estimate.size} queries")
    supported = report.active_count > 0
    differs = np.flatnonzero(supported == np.isnan(others))
    if differs.size:
        raise ValueError(f"support differs from the report's at x={report.x[differs[0]].item()!r}")
    ours, theirs = report.estimate[supported], others[supported]
    scale = np.maximum(report.y_magnitude[supported], 1e-300)
    return float(np.max(np.abs(ours - theirs) / scale, initial=0.0))
