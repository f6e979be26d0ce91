"""Scalar references the tests compare the package against, the order the
batch references scan in, and the exact window sums."""

import math
from fractions import Fraction

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


def exact_sums(x, phis, ys, delta):
    """The window sums of the query ``x``, exactly: ``(count, S, SQ, SY,
    D)`` with ``SY = r . y`` and ``D = r . |x - phi|``, each sum a
    ``Fraction``.  The terms are the floats both modes compute, the scaled
    margins ``r = fl(fl(delta - fl|x - phi|) / delta)`` and the distances
    ``fl|x - phi|``, over the samples whose float margin is positive; only
    their products and sums are exact."""
    phis = np.asarray(phis, dtype=float)
    distances = np.abs(x - phis)
    margins = delta - distances
    inside = margins > 0.0
    r = margins[inside] / delta
    return (int(np.count_nonzero(inside)), exact_dot(r), exact_dot(r, r),
            exact_dot(r, np.asarray(ys, dtype=float)[inside]), exact_dot(r, distances[inside]))


def exact_dot(*factors):
    """The sum of the elementwise products of float arrays, as a Fraction.
    Each float is an integer mantissa times a power of two, so each product
    is too; the products are added as integers over the least power."""
    parts = [np.frexp(np.asarray(f, dtype=float)) for f in factors]
    mantissas = [(m * 2.0**53).astype(np.int64).tolist() for m, _ in parts]
    powers = sum(e.astype(np.int64) for _, e in parts) - 53 * len(factors)
    if not np.size(powers):
        return Fraction(0)
    low = int(np.min(powers))
    total = sum(math.prod(m) << shift
                for m, shift in zip(zip(*mantissas), (powers - low).tolist()))
    return Fraction(total) * Fraction(2) ** low
