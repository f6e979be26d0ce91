"""Recursive direct weight optimization for 1-D nonlinear regression.

Estimates a nonlinear map from noisy samples by weighting the outputs of all
samples whose regressor falls inside a window around the query point.  The
weights maximize a worst-case accuracy objective over the simplex, have a
closed form, and admit an exactly equivalent one-pass streaming update.
Search-based oracles certify the closed form, and a simulation harness
checks the computable error bound on seeded synthetic runs.
"""

from .core import EstimatorConfig, grid_solve, query_weights, simplex_objective, window_margins
# Imported here, ahead of cli.py.  Imported from cli, dataio is compiled
# right after cli.py, and with no bytecode cache that raised the peak memory
# of every command by 0.27 MiB.
from . import dataio  # noqa: F401
from .oracle import maximize_signed, maximize_simplex, signed_objective
from .simulate import load_spec, max_relative_deviation, run_experiment, stream_estimates
from .streaming import StreamingGrid

__version__ = "0.1.0"

# What the README and the demos use; everything else is imported from its module.
__all__ = [
    "EstimatorConfig",
    "grid_solve",
    "query_weights",
    "simplex_objective",
    "window_margins",
    "maximize_signed",
    "maximize_simplex",
    "signed_objective",
    "load_spec",
    "max_relative_deviation",
    "run_experiment",
    "stream_estimates",
    "StreamingGrid",
]
