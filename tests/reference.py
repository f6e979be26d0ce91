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


def running_sums(x, phis, ys, delta):
    """The scalar running sums, the bit-for-bit reference for
    ``StreamingGrid``: fold samples into the state of the one query point
    ``x``, in order, with the IEEE operations the grid runs for each point:
    ``S += r``, ``SY += r * y`` and ``SQ += r * r``, with the scaled margin
    ``r = m / delta``, for each sample with margin ``m = delta - |x - phi| > 0``.

    Returns ``(estimate, S, SY, SQ, positions, scaled)``: the estimate
    ``SY / S``, nan while no sample is absorbed; the three sums; and the
    stream positions and scaled margins of the absorbed samples.
    """
    s = sy = sq = 0.0
    positions, scaled = [], []
    for k, (phi, y) in enumerate(zip(map(float, phis), map(float, ys))):
        m = delta - abs(x - phi)
        if m <= 0.0:
            continue
        r = m / delta
        s += r
        sy += r * y
        sq += r * r
        positions.append(k)
        scaled.append(r)
    return (sy / s if positions else math.nan), s, sy, sq, positions, scaled


def in_phi_order(phis, *columns):
    """``phis`` and each column reordered by a stable sort of ``phis``: the
    order every batch window sums in."""
    order = np.argsort(phis, kind="stable")
    return [phis[order], *(column[order] for column in columns)]
