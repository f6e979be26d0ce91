"""Scalar references the tests compare the package against, the order the
batch references scan in, the exact window sums and the streaming bound."""

import functools
import math
from fractions import Fraction

import numpy as np

from rdwo.core import grid_solve
from rdwo.streaming import _TAU

U = Fraction(1, 2**53)


def optimum(x, phis, config):
    """The closed-form optimum of the query ``x``, the Euclidean norm of its
    window's margins: the objective ``grid_solve`` reports, nan without
    support."""
    return grid_solve([x], phis, np.zeros(len(phis)), config)[2][0]


def running_sums(x, phis, ys, delta):
    """The scalar running sums, the bit-for-bit reference for a
    ``StreamingGrid`` point without a core, and for its edge bands: fold
    samples into the state of the one query point ``x``, in order, with the
    IEEE operations the grid runs for each pair: ``S += r``, ``SY += r * y``
    and ``SQ += r * r``, with the scaled margin ``r = m / delta``, for each
    sample with margin ``m = delta - |x - phi| > 0``.

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


def gamma(n):
    """Higham's ``gamma_n = n u / (1 - n u)``, exactly."""
    return n * U / (1 - n * U)


def stream_bound(engine, n):
    """The a-priori bound of the ``rdwo.streaming`` docstring on a window sum
    of ``n`` samples in ``engine`` after its folds: ``(relative, absolute)``,
    the first relative to the sum's absolute terms.  Without cores a sum is
    a running sum, within ``gamma(n)``; both allow ``2^-1060`` a term for
    products that underflow."""
    slack = (n + 16) * Fraction(2) ** -1060
    if not engine._segments:
        return gamma(n), slack
    w, q, remainder = _core_terms(engine, engine.n_seen)
    relative = gamma(16) * q * q + gamma(n + 1) * q * (1 + 3 * w / Fraction(_TAU)) + 24 * U * q
    return relative, remainder + slack


@functools.lru_cache(maxsize=4)
def _core_terms(engine, n_seen):
    """``W``, ``Q`` and ``T`` of the bound for ``engine`` after ``n_seen``
    samples."""
    segments, delta = engine._segments, engine.config.delta
    edges = segments.edges
    cover = np.zeros(edges.size)
    np.add.at(cover, segments.bounds[0], 1.0)
    np.add.at(cover, segments.bounds[4], -1.0)
    inside = np.cumsum(cover)[:-1] > 0
    # Each difference of two edges is within a rounding of exact.
    w = Fraction(float(np.diff(edges)[inside].max())) * (1 + 2 * U) / Fraction(delta)
    q = 1 + (2 + 4 * w) / Fraction(_TAU)
    count, v, v2, y, vy = segments.moments.T
    s = segments.shift
    shifted = v + count * s
    largest = max(float(np.abs(m).max()) for m in (count, shifted, v2 + s * (v + shifted), y,
                                                      vy + s * y))
    k = edges.size - 1
    return w, q, Fraction(2) ** -97 * q * k**4 * U * Fraction(largest) + k * Fraction(2) ** -1060


def assert_stream_exact(sums, x, phis, ys, delta, engine):
    """A ``StreamingGrid.sums`` column of the point ``x`` of ``engine``
    against the exact sums of the samples: the count equal, and ``S``,
    ``SQ`` and ``SY`` each within ``stream_bound`` of exact, relative to its
    sum of absolute terms (the cell itself for ``S`` and ``SQ``, and ``r .
    |y|`` for ``SY``)."""
    n, s, sq, sy, _ = exact_sums(x, phis, ys, delta)
    scale = exact_sums(x, phis, np.abs(np.asarray(ys, dtype=float)), delta)[3]
    count, *got = (float(value) for value in sums)
    assert count == n, (x, count, n)
    relative, slack = stream_bound(engine, n)
    for value, exact, terms in zip(got, (s, sq, sy), (s, sq, scale)):
        assert abs(Fraction(value) - exact) <= relative * terms + slack, (x, value, exact)
