"""Seeded synthetic experiments for the estimator and its error bound.

A run draws regressors uniformly on an input range, evaluates a known
Lipschitz target function, adds Gaussian noise, estimates at a grid of query
points, and checks the realized error of every supported query against its
computed bound.  Batch and streaming execution modes are both available and
must agree to tight tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import (
    EstimatorConfig,
    Sample,
    WeightSolution,
    _require_finite,
    sorted_windows,
)
from .streaming import StreamingGrid

__all__ = [
    "Sine",
    "Atan",
    "PiecewiseLinear",
    "FunctionSpec",
    "NoisySample",
    "ExperimentSpec",
    "QueryRecord",
    "ExperimentReport",
    "lipschitz_scan",
    "generate_dataset",
    "error_bound",
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
class NoisySample:
    """A sample together with the ground truth and noise that produced it.

    The observed output must reproduce ``truth + noise`` exactly, bit for
    bit; the constructor rejects anything else.
    """

    sample: Sample
    truth: float
    noise: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "truth", _require_finite("truth", self.truth))
        object.__setattr__(self, "noise", _require_finite("noise", self.noise))
        if self.sample.y != self.truth + self.noise:
            raise ValueError(
                f"observed output {self.sample.y!r} is not truth + noise "
                f"({self.truth!r} + {self.noise!r})"
            )


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
        n = int(self.n_samples)
        if n < 1:
            raise ValueError(f"n_samples must be >= 1, got {n}")
        object.__setattr__(self, "n_samples", n)
        seed = int(self.seed)
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
        try:
            function = _function_from_dict(data["function"])
            config = EstimatorConfig(delta=data["delta"], l1=data["l1"])
            lo, hi = data["input_range"]
            grid = _grid_from_value(data["query_grid"])
            return ExperimentSpec(
                function=function,
                config=config,
                input_range=(lo, hi),
                noise_sigma=data.get("noise_sigma", 0.0),
                n_samples=data["n_samples"],
                seed=data.get("seed", 0),
                query_grid=grid,
            )
        except KeyError as exc:
            raise ValueError(f"experiment spec is missing field {exc.args[0]!r}") from None


def _function_to_dict(fn: FunctionSpec) -> dict:
    if isinstance(fn, Sine):
        return {"kind": "sine", "amplitude": fn.amplitude, "frequency": fn.frequency}
    if isinstance(fn, Atan):
        return {"kind": "atan", "scale": fn.scale}
    if isinstance(fn, PiecewiseLinear):
        return {"kind": "piecewise_linear", "knots": [list(k) for k in fn.knots]}
    raise TypeError(f"unknown target function type: {type(fn).__name__}")


def _function_from_dict(data: dict) -> FunctionSpec:
    kind = data.get("kind")
    if kind == "sine":
        return Sine(
            amplitude=data.get("amplitude", 1.0), frequency=data.get("frequency", 1.0)
        )
    if kind == "atan":
        return Atan(scale=data.get("scale", 1.0))
    if kind == "piecewise_linear":
        return PiecewiseLinear(knots=tuple(tuple(k) for k in data["knots"]))
    raise ValueError(f"unknown target function kind: {kind!r}")


def _grid_from_value(value) -> tuple[float, ...]:
    if isinstance(value, dict):
        count = int(value["count"])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        return tuple(float(v) for v in np.linspace(value["min"], value["max"], count))
    return tuple(float(v) for v in value)


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


def generate_dataset(spec: ExperimentSpec) -> list[NoisySample]:
    """Materialize the seeded dataset of an experiment."""
    phis, truths, noises, ys = _dataset_arrays(spec)
    return [
        NoisySample(
            sample=Sample(index=k + 1, phi=float(phis[k]), y=float(ys[k])),
            truth=float(truths[k]),
            noise=float(noises[k]),
        )
        for k in range(spec.n_samples)
    ]


def error_bound(
    solution: WeightSolution,
    x: float,
    noisy_samples: Sequence[NoisySample],
    config: EstimatorConfig,
) -> float:
    """Computable bound on the absolute estimation error at ``x``.

    Sum of a deterministic smoothness term, ``l1 * sum(|w| * |x - phi|)``,
    and the realized weighted noise magnitude ``|sum(w * noise)|``.  The
    squared error of the weighted estimate never exceeds this bound squared.
    """
    n = len(noisy_samples)
    if len(solution.weights) != n:
        raise ValueError(f"solution covers {len(solution.weights)} samples, got {n}")
    x = _require_finite("x", x)
    active = np.flatnonzero(solution.weights)
    phis = np.array([noisy_samples[p].sample.phi for p in active], dtype=float)
    noises = np.array([noisy_samples[p].noise for p in active], dtype=float)
    return _active_bound(solution.weights[active], x, phis, noises, config.l1)


def _active_bound(weights, x, phis, noises, l1: float) -> float:
    """:func:`error_bound` over the active samples only, nonnegative weights."""
    return l1 * float(np.dot(weights, np.abs(x - phis))) + abs(float(np.dot(weights, noises)))


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

    mode: str
    records: tuple[QueryRecord, ...]
    supported_count: int
    no_support_count: int
    violation_count: int
    mean_abs_error: float | None
    max_abs_error: float | None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "supported_count": self.supported_count,
            "no_support_count": self.no_support_count,
            "violation_count": self.violation_count,
            "mean_abs_error": self.mean_abs_error,
            "max_abs_error": self.max_abs_error,
            "records": [r.to_dict() for r in self.records],
        }


Mode = Literal["batch", "streaming"]


def run_experiment(spec: ExperimentSpec, mode: Mode = "batch") -> ExperimentReport:
    """Run one seeded experiment end to end.

    In batch mode every query is answered from the closed-form weights over
    the full dataset; in streaming mode the dataset is folded through
    one-pass states instead.  Error bounds are evaluated from the weight
    vectors, which are identical in both modes.
    """
    if mode not in ("batch", "streaming"):
        raise ValueError(f"mode must be 'batch' or 'streaming', got {mode!r}")
    phis, truths, noises, ys = _dataset_arrays(spec)
    grid = np.asarray(spec.query_grid)

    streamed = None
    if mode == "streaming":
        engine = StreamingGrid(grid, spec.config)
        engine.extend(phis, ys)
        streamed = engine.estimates()

    records = []
    errors = []
    violations = 0
    windows = sorted_windows(grid, phis, spec.config.delta)
    for qi, (x, (positions, support)) in enumerate(zip(grid, windows)):
        truth_x = float(spec.function(x))
        if positions.size == 0:
            records.append(
                QueryRecord(
                    x=float(x),
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
        if mode == "batch":
            est = float(np.dot(weights, ys[positions]))
        else:
            est = float(streamed[qi])
        err = abs(est - truth_x)
        bound = _active_bound(weights, x, phis[positions], noises[positions], spec.config.l1)
        holds = err * err <= bound * bound
        if not holds:
            violations += 1
        errors.append(err)
        records.append(
            QueryRecord(
                x=float(x),
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
        mode=mode,
        records=tuple(records),
        supported_count=supported,
        no_support_count=len(records) - supported,
        violation_count=violations,
        mean_abs_error=float(np.mean(errors)) if errors else None,
        max_abs_error=float(np.max(errors)) if errors else None,
    )


def max_relative_deviation(a: ExperimentReport, b: ExperimentReport) -> float:
    """Largest relative disagreement between the estimates of two reports.

    Reports must cover the same query grid with the same support pattern.
    """
    if len(a.records) != len(b.records):
        raise ValueError("reports cover different query grids")
    worst = 0.0
    for ra, rb in zip(a.records, b.records):
        if ra.x != rb.x or (ra.estimate is None) != (rb.estimate is None):
            raise ValueError("reports cover different query grids")
        if ra.estimate is None:
            continue
        scale = max(abs(ra.estimate), abs(rb.estimate), 1e-300)
        worst = max(worst, abs(ra.estimate - rb.estimate) / scale)
    return worst
