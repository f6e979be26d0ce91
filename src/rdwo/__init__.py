"""Recursive direct weight optimization for 1-D nonlinear regression.

Estimates a nonlinear map from noisy samples by weighting the outputs of all
samples whose regressor falls inside a window around the query point.  The
weights maximize a worst-case accuracy objective over the simplex, have a
closed form, and admit an exactly equivalent one-pass streaming update.
Search-based oracles certify the closed form, and a simulation harness
checks the computable error bound on seeded synthetic runs.
"""

from .core import (
    EstimatorConfig,
    Sample,
    active_set,
    batch_weights,
    batch_weights_arrays,
    centered_distance,
    estimate,
    grid_estimates,
    objective_value,
    optimal_objective,
    signed_objective_value,
)
from .oracle import maximize_signed, maximize_simplex
from .simulate import load_spec, max_relative_deviation, run_experiment
from .streaming import RecursiveState, StreamingGrid

__version__ = "0.1.0"

# What the README and the demos use; everything else is imported from its module.
__all__ = [
    "EstimatorConfig",
    "Sample",
    "active_set",
    "batch_weights",
    "batch_weights_arrays",
    "centered_distance",
    "estimate",
    "grid_estimates",
    "objective_value",
    "optimal_objective",
    "signed_objective_value",
    "maximize_signed",
    "maximize_simplex",
    "load_spec",
    "max_relative_deviation",
    "run_experiment",
    "RecursiveState",
    "StreamingGrid",
    "__version__",
]
