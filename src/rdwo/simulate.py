"""Seeded synthetic experiments for the estimator and its error bound.

A run draws regressors uniformly on an input range, evaluates a known
Lipschitz target function, adds Gaussian noise, estimates at a grid of query
points, and checks the realized error of every supported query against its
computed bound.  One streaming pass over the same seeded data,
:func:`stream_estimates`, must agree with the batch estimates to tight
tolerance, as :func:`max_relative_deviation` measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EstimatorConfig, _number, _numbers, _require_finite, sorted_windows
from .streaming import StreamingGrid

__all__ = [
    "Sine",
    "Atan",
    "PiecewiseLinear",
    "FunctionSpec",
    "ExperimentSpec",
    "QueryRecord",
    "ExperimentReport",
    "lipschitz_scan",
    "run_experiment",
    "stream_estimates",
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
        object.__setattr__(self, "amplitude", _require_finite("amplitude", self.amplitude))
        object.__setattr__(self, "frequency", _require_finite("frequency", self.frequency))

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
        object.__setattr__(self, "scale", _require_finite("scale", self.scale))

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
        knots = tuple((float(a), float(b)) for a, b in self.knots)
        if len(knots) < 2:
            raise ValueError("piecewise-linear target needs at least two knots")
        for (a, fa), (b, fb) in zip(knots, knots[1:]):
            if not (math.isfinite(a) and math.isfinite(fa) and math.isfinite(fb)):
                raise ValueError("knots must be finite")
            if a >= b:
                raise ValueError("knot positions must be strictly increasing")
        if not all(math.isfinite(v) for v in knots[-1]):
            raise ValueError("knots must be finite")
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
    on ``[lo, hi]``, so it validates a declared slope bound from below.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    grid = np.linspace(lo, hi, points)
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
        lo, hi = (float(v) for v in self.input_range)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"input_range must be a finite interval, got {self.input_range!r}")
        object.__setattr__(self, "input_range", (lo, hi))
        sigma = _require_finite("noise_sigma", self.noise_sigma)
        if sigma < 0.0:
            raise ValueError(f"noise_sigma must be nonnegative, got {sigma}")
        object.__setattr__(self, "noise_sigma", sigma)
        n = _require_int("n_samples", self.n_samples)
        if n < 1:
            raise ValueError(f"n_samples must be >= 1, got {n}")
        object.__setattr__(self, "n_samples", n)
        seed = _require_int("seed", self.seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)
        grid = tuple(_require_finite("query point", v) for v in self.query_grid)
        if not grid:
            raise ValueError("query_grid must be nonempty")
        object.__setattr__(self, "query_grid", grid)
        scanned = lipschitz_scan(self.function, lo, hi)
        if scanned > self.function.l1 + 1e-9:
            raise ValueError(
                f"target function exceeds its declared slope bound on the input "
                f"range: scanned {scanned}, declared {self.function.l1}"
            )
        if self.function.l1 > self.config.l1 * (1.0 + 1e-12):
            raise ValueError(
                f"estimator l1 ({self.config.l1}) must dominate the target's "
                f"slope bound ({self.function.l1})"
            )

    def to_dict(self) -> dict:
        return {
            "function": _function_to_dict(self.function),
            "delta": self.config.delta,
            "l1": self.config.l1,
            "input_range": list(self.input_range),
            "noise_sigma": self.noise_sigma,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "query_grid": list(self.query_grid),
        }

    @staticmethod
    def from_dict(data: dict) -> "ExperimentSpec":
        _reject_unknown("experiment spec", data, _SPEC_KEYS)
        try:
            function = _function_from_dict(data["function"])
            config = EstimatorConfig(
                delta=_number("delta", data["delta"]), l1=_number("l1", data["l1"])
            )
            grid = _grid_from_value(data["query_grid"])
            return ExperimentSpec(
                function=function,
                config=config,
                input_range=_numbers("input_range", data["input_range"], 2),
                noise_sigma=_number("noise_sigma", data.get("noise_sigma", 0.0)),
                n_samples=data["n_samples"],
                seed=data.get("seed", 0),
                query_grid=grid,
            )
        except KeyError as exc:
            raise ValueError(f"experiment spec is missing field {exc.args[0]!r}") from None


_SPEC_KEYS = (
    "function", "delta", "l1", "input_range", "noise_sigma", "n_samples", "seed", "query_grid"
)
_FUNCTION_KEYS = {
    "sine": ("kind", "amplitude", "frequency"),
    "atan": ("kind", "scale"),
    "piecewise_linear": ("kind", "knots"),
}


def _reject_unknown(where: str, data: dict, known) -> None:
    """A misspelled key would silently fall back to a default, so none passes."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown {where} field(s): {', '.join(map(repr, unknown))}")


def _require_int(name: str, value) -> int:
    """``value`` as an int; whole floats pass, fractions and booleans do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _function_to_dict(fn: FunctionSpec) -> dict:
    if isinstance(fn, Sine):
        return {"kind": "sine", "amplitude": fn.amplitude, "frequency": fn.frequency}
    if isinstance(fn, Atan):
        return {"kind": "atan", "scale": fn.scale}
    if isinstance(fn, PiecewiseLinear):
        return {"kind": "piecewise_linear", "knots": [list(k) for k in fn.knots]}
    raise TypeError(f"unknown target function type: {type(fn).__name__}")


def _function_from_dict(data: dict) -> FunctionSpec:
    if not isinstance(data, dict):
        raise ValueError(f"function must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _FUNCTION_KEYS:
        raise ValueError(f"unknown target function kind: {kind!r}")
    _reject_unknown(f"{kind} function", data, _FUNCTION_KEYS[kind])
    if kind == "sine":
        return Sine(
            amplitude=_number("amplitude", data.get("amplitude", 1.0)),
            frequency=_number("frequency", data.get("frequency", 1.0)),
        )
    if kind == "atan":
        return Atan(scale=_number("scale", data.get("scale", 1.0)))
    knots = data["knots"]
    if not isinstance(knots, (list, tuple)):
        raise ValueError(f"knots must be a list of [x, y] pairs, got {knots!r}")
    return PiecewiseLinear(knots=tuple(_numbers("knot", knot, 2) for knot in knots))


def _grid_from_value(value) -> tuple[float, ...]:
    if isinstance(value, dict):
        _reject_unknown("query_grid", value, ("min", "max", "count"))
        count = _require_int("grid count", value["count"])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        lo = _number("query_grid min", value["min"])
        hi = _number("query_grid max", value["max"])
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"query_grid must be a list or a {{min, max, count}} object, got {value!r}"
        )
    return _numbers("query_grid", value)


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


def _dataset_arrays(spec: ExperimentSpec):
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.input_range
    phis = rng.uniform(lo, hi, spec.n_samples)
    noises = rng.normal(0.0, spec.noise_sigma, spec.n_samples)
    truths = np.asarray(spec.function(phis), dtype=float)
    ys = truths + noises
    return phis, truths, noises, ys


# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53


def _error_check(est, truth, weights, ys, distances, noises, l1: float):
    """Absolute error of ``est``, its computable bound, and whether the bound
    holds, over the active samples, their nonnegative weights and their
    distances ``|x - phi|`` from the query point ``x``.

    The bound is the sum of a deterministic smoothness term,
    ``l1 * sum(w * |x - phi|)``, and the realized weighted noise magnitude
    ``|sum(w * noise)|``; it holds exactly for weights summing to one.  The
    check allows for the rounding of the arithmetic that produced ``est`` and
    the bound: an n-term dot product computed in floating point is within
    ``gamma_n * sum(|w| * |v|)`` of the exact one, ``gamma_n = n*u/(1 - n*u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.1).
    That covers the estimate ``w . y``, both bound terms and the weights'
    normalisation, whose sum is within ``gamma_n`` of one and so moves the
    estimate by at most ``gamma_n * |truth|``.  Each term carries one more
    rounding (a weight's quotient, a gap's subtraction), hence ``n + 1``.
    """
    err = abs(est - truth)
    smooth = l1 * float(np.dot(weights, distances))
    bound = smooth + abs(float(np.dot(weights, noises)))
    magnitude = (
        float(np.dot(weights, np.abs(ys)))
        + smooth
        + float(np.dot(weights, np.abs(noises)))
        + abs(truth)
    )
    nu = (weights.size + 1) * _UNIT_ROUNDOFF
    return err, bound, err <= bound + nu / (1.0 - nu) * magnitude


@dataclass(frozen=True)
class QueryRecord:
    """Outcome of one query point within an experiment run."""

    x: float
    truth: float
    estimate: float | None
    abs_error: float | None
    bound_z: float | None
    bound_holds: bool | None
    active_count: int

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "truth": self.truth,
            "estimate": self.estimate,
            "abs_error": self.abs_error,
            "bound_z": self.bound_z,
            "bound_holds": self.bound_holds,
            "active_count": self.active_count,
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated outcome of one experiment run."""

    records: tuple[QueryRecord, ...]
    supported_count: int
    no_support_count: int
    violation_count: int
    mean_abs_error: float | None
    max_abs_error: float | None

    def to_dict(self) -> dict:
        return {
            "supported_count": self.supported_count,
            "no_support_count": self.no_support_count,
            "violation_count": self.violation_count,
            "mean_abs_error": self.mean_abs_error,
            "max_abs_error": self.max_abs_error,
            "records": [r.to_dict() for r in self.records],
        }


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run one seeded experiment end to end.

    Every query is answered from the closed-form weights over the full
    dataset, and its error bound is evaluated from the same weights and the
    distances they came from.  The target is evaluated once on the whole
    grid; its elementwise ufuncs give each point what a scalar call gives.
    """
    phis, truths, noises, ys = _dataset_arrays(spec)
    grid = np.asarray(spec.query_grid)
    grid_truths = np.asarray(spec.function(grid), dtype=float)

    records = []
    errors = []
    violations = 0
    windows = sorted_windows(grid, phis, spec.config.delta)
    for x, truth_x, (positions, distances, support) in zip(
        grid.tolist(), grid_truths.tolist(), windows
    ):
        if positions.size == 0:
            records.append(
                QueryRecord(
                    x=x,
                    truth=truth_x,
                    estimate=None,
                    abs_error=None,
                    bound_z=None,
                    bound_holds=None,
                    active_count=0,
                )
            )
            continue
        weights = support / float(np.sum(support))
        window_ys = ys[positions]
        est = float(np.dot(weights, window_ys))
        err, bound, holds = _error_check(
            est, truth_x, weights, window_ys, distances, noises[positions], spec.config.l1
        )
        if not holds:
            violations += 1
        errors.append(err)
        records.append(
            QueryRecord(
                x=x,
                truth=truth_x,
                estimate=est,
                abs_error=err,
                bound_z=bound,
                bound_holds=holds,
                active_count=positions.size,
            )
        )
    supported = len(errors)
    return ExperimentReport(
        records=tuple(records),
        supported_count=supported,
        no_support_count=len(records) - supported,
        violation_count=violations,
        mean_abs_error=float(np.mean(errors)) if errors else None,
        max_abs_error=float(np.max(errors)) if errors else None,
    )


def stream_estimates(spec: ExperimentSpec) -> np.ndarray:
    """Estimates at the query grid from one streaming pass over the seeded
    dataset, nan where no sample was absorbed."""
    phis, _, _, ys = _dataset_arrays(spec)
    engine = StreamingGrid(np.asarray(spec.query_grid), spec.config)
    engine.extend(phis, ys)
    return engine.estimates()


def max_relative_deviation(report: ExperimentReport, estimates: Sequence) -> float:
    """Largest relative disagreement between a report's estimates and
    ``estimates``, one per record, with None or nan where unsupported.

    The support pattern must be the report's.
    """
    if len(report.records) != len(estimates):
        raise ValueError(f"{len(estimates)} estimates for {len(report.records)} queries")
    worst = 0.0
    for record, other in zip(report.records, estimates):
        unsupported = other is None or math.isnan(other)
        if (record.estimate is None) != unsupported:
            raise ValueError(f"support differs from the report's at x={record.x!r}")
        if unsupported:
            continue
        scale = max(abs(record.estimate), abs(other), 1e-300)
        worst = max(worst, abs(record.estimate - other) / scale)
    return worst
