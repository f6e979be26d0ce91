"""Recursive direct weight optimization for 1-D nonlinear regression.

Estimates a nonlinear map from noisy samples by weighting the outputs of all
samples whose regressor falls inside a window around the query point.  The
weights maximize a worst-case accuracy objective over the simplex, have a
closed form, and admit an exactly equivalent one-pass streaming update.
Search-based oracles certify the closed form, and a simulation harness
checks the computable error bound on seeded synthetic runs.

The names of :mod:`rdwo.oracle` and :mod:`rdwo.simulate` load on first use,
so that ``import rdwo`` compiles only what ``fit`` and ``stream`` run.
"""

import importlib

from .core import EstimatorConfig, grid_solve, query_weights, simplex_objective, window_margins
# Imported here, ahead of cli.py.  Imported from cli, dataio is compiled
# right after cli.py, and with no bytecode cache that raised the benchmark's
# peak memory by 0.36 MiB on stream-snapshots and 0.05 MiB on the others.
from . import dataio  # noqa: F401
from .streaming import StreamingGrid

__version__ = "0.1.0"

# Each name loaded on first use, with its module.
_DEFERRED = {
    "maximize_signed": "oracle",
    "maximize_simplex": "oracle",
    "signed_objective": "oracle",
    "load_spec": "simulate",
    "max_relative_deviation": "simulate",
    "run_experiment": "simulate",
}

# What the README and the demos use; everything else is imported from its module.
__all__ = [
    "EstimatorConfig",
    "grid_solve",
    "query_weights",
    "simplex_objective",
    "window_margins",
    *_DEFERRED,
    "StreamingGrid",
]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})
