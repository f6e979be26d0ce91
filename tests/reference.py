"""Scalar references the tests compare the package against, and the
order the batch references scan in."""

import math

import numpy as np

from rdwo.core import grid_solve


def optimum(x, phis, config):
    """The closed-form optimum of the query ``x``, the Euclidean norm of its
    window's margins: the objective ``grid_solve`` reports, nan without
    support."""
    return grid_solve([x], phis, np.zeros(len(phis)), config)[2][0]


def west(x, phis, ys, delta):
    """The scalar West recursion, the bit-for-bit reference for
    ``StreamingGrid``: fold samples into the state of the one query point
    ``x``, in order, with the IEEE operations the grid runs for each point:
    ``S += m``, ``estimate += m / S * (y - estimate)`` and ``Q += m * m``, for
    each sample with margin ``m = delta - |x - phi| > 0``.

    Returns ``(estimate, S, Q, positions, margins)``: the estimate, nan while
    no sample is absorbed; the sum and the sum of squares of the absorbed
    margins; and the stream positions and margins of the absorbed samples.
    """
    s = q = estimate = 0.0
    positions, margins = [], []
    for k, (phi, y) in enumerate(zip(map(float, phis), map(float, ys))):
        m = delta - abs(x - phi)
        if m <= 0.0:
            continue
        s += m
        estimate += m / s * (y - estimate)
        q += m * m
        positions.append(k)
        margins.append(m)
    return (estimate if positions else math.nan), s, q, positions, margins


def in_phi_order(phis, *columns):
    """``phis`` and each column reordered by a stable sort of ``phis``: the
    order every batch window sums in."""
    order = np.argsort(phis, kind="stable")
    return [phis[order], *(column[order] for column in columns)]
