"""One-pass streaming form of the windowed direct-weight estimator.

A query point's streaming state is the window state of :mod:`rdwo.core`:
the count and, in scaled margins ``r = m / delta`` with ``m = delta - |x -
phi|`` in (0, 1], the sums ``S = sum r``, ``SQ = sum r * r`` and ``SY = sum
r * y`` over the samples absorbed so far.  A read gives them as one table in
the row order of ``core._window_sums`` (count, ``S``, ``SQ``, ``SY``), which
``core._readout`` reads out, as for the batch path.

A sample's window is a run of the sorted grid, found by binary search, and
the count a +1 step where it starts and a -1 step where it ends, summed
when read.  On most grids each point adds the sample as a pair: its margin,
its square and its product with ``y``.  Where windows hold many points, the margin's
structure is cheaper (:mod:`rdwo._segments`): it is piecewise linear in
``phi``, and with ``tau = _TAU`` the breakpoints ``B = x - (1 - tau)
delta``, ``x`` and ``C = x + (1 - tau) delta`` of every point cut the line
into segments, and each window into the core sides ``[B, x)`` and ``[x,
C)`` and two edge bands:

- a sample in some core adds its count and its sums of ``d``, ``d^2``, ``tau
  y`` and ``d tau y`` to its one segment, ``d`` its distance from the
  segment's middle in units of ``delta``;
- a read shifts these moments to the centre of each segment's block, a cell
  of width ``delta``, and takes running sums along the segments, exactly
  but for a small remainder; a core side spans at most two blocks, over each of which
  its margins are ``g + d`` on the left and ``g - d`` on the right, ``g`` the
  margin at the centre and ``d`` the distance from it;
- a sample in a point's edge band is added to its band sums as a pair, with
  the float margin of ``core._margins``, and dropped where that is <= 0.

Every add goes through ``np.add.at``, which applies its updates in index
order, so the state has the same bits however the samples are split between
calls; a point's bits depend on the whole grid.  A point has a core only
where ``2^-960 <= delta <= 2^960`` and ``|x| <= 2^40 delta``, so that every
core sample stays in the window with a margin of at least ``tau / 2``, and
only on a grid whose windows hold ``_CORE_POINTS`` points on average;
elsewhere its sums are pairs all through, a running sum's bits.  The moments of
``y`` are in units of ``tau y``, an exact scaling, so that none overflows
before the ``SY`` it feeds.

**Bound.**  With ``R`` a cell's sum of absolute terms (itself for ``S`` and
``SQ``, ``r . |y|`` for ``SY``), ``n`` its count, ``u = 2^-53``, ``gamma(k) =
k u / (1 - k u)`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, lemma 3.1), ``W`` the widest core segment over ``delta`` and
``Q = 1 + (2 + 4 W) / tau``: a core term's ``|g| + |d|`` is at most ``Q``
times its margin, and its margin ``g +- d`` within ``11 u Q`` of the float
one, relative; the segment sums run ``n`` roundings deep on terms in ``d``
and ``tau y`` alone, and every other step at most 16 on terms of at most
``Q^2`` times their part of ``R``.  So each cell is within::

    (gamma(16) Q^2 + gamma(n + 1) Q (1 + 3 W / tau) + 24 u Q) R + T

of the exact sum of the float terms, where ``T = 2^-97 Q K^4 u M`` bounds
the remainders' running sums over the ``K`` segments, ``M`` the largest
shifted moment, and products that underflow.
"""

from __future__ import annotations

import numpy as np

from .core import EstimatorConfig, _margins, _number, _readout

__all__ = ["StreamingGrid"]

# The edge bands' width, and about the least core margin, in units of delta.
# A power of two, so that the moments of tau * y are exact.
_TAU = 2.0**-6

# Samples whose windows the kernel looks up at once, and the band pairs it
# folds at once.  A chunk holds whole samples, so a sample whose bands alone
# hold more pairs is a chunk by itself.  At 8 bytes an entry, every chunk
# array of a full chunk stays under glibc's 128 KiB mmap threshold and is
# recycled from the heap rather than mapped and faulted in afresh.
_SUB_BLOCK = 1024
_PAIR_BUDGET = 8192
# The fewest grid points a window holds, on average, for the grid to keep
# cores.  Cutting and reading the segments costs about as much per point as
# a hundred pairs, which a core saves only where many points share a window.
_CORE_POINTS = 128


class StreamingGrid:
    """Streaming estimator states for many query points at once.

    The state after :meth:`extend` has the same bits however the samples
    are split between calls, and every read is within the bound of the
    module docstring of the exact window sums.
    """

    def __init__(self, xs: np.ndarray, config: EstimatorConfig):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("xs must be a nonempty 1-D array")
        if not np.all(np.isfinite(xs)):
            raise ValueError("xs must be finite")
        self.xs = xs.copy()
        self.xs.setflags(write=False)
        self.config = config
        self.n_seen = 0
        # In sorted-grid order: the count steps, one more than the points for
        # a window that ends past the last one, and the band S, SQ and SY.
        self._steps = np.zeros(xs.size + 1)
        self._bands = np.zeros((3, xs.size))
        order = np.argsort(self.xs, kind="stable")
        self._sorted = self.xs[order]
        # Each point's position in the sorted grid.
        self._rank = np.argsort(order)
        self._segments = self._plan()

    def _plan(self):
        """The segments of the points that keep cores, or None without
        cores."""
        delta, x = self.config.delta, self._sorted
        first = last = 0
        if 2.0**-960 <= delta <= 2.0**960:
            first, last = np.searchsorted(x, [-(2.0**40) * delta, 2.0**40 * delta], side="right")
        probe = x[first:last:(last - first) // 1024 + 1]
        if probe.size and np.mean(np.searchsorted(x, probe + delta, side="right")
                                  - np.searchsorted(x, probe - delta)) >= _CORE_POINTS:
            from ._segments import Segments

            return Segments(x, delta, first, last)
        return None

    @property
    def sums(self) -> np.ndarray:
        """The count, ``S``, ``SQ`` and ``SY`` of each grid point, the rows
        of ``core._window_sums``, as a new ``(4, G)`` table in grid order:
        writing into it leaves the state as it was."""
        sums = self._segments.add(self._bands) if self._segments else self._bands
        table = np.empty((4, self.xs.size))
        # The ranks are in range; mode "clip" lets take write into its out
        # directly, where the default mode gathers into a buffer first.
        np.cumsum(self._steps[:-1]).take(self._rank, out=table[0], mode="clip")
        sums.take(self._rank, axis=1, out=table[1:], mode="clip")
        return table

    @property
    def n_active(self) -> np.ndarray:
        """The samples absorbed by each grid point, as a new float row."""
        return np.cumsum(self._steps[:-1]).take(self._rank)

    def extend(self, phis: np.ndarray, ys: np.ndarray) -> None:
        """Fold samples into every grid point's state, in order.

        The same as one call per sample in turn, bit for bit.  A non-finite
        sample raises :class:`ValueError` after every sample before it has
        been absorbed, as that loop would.
        """
        phis = np.asarray(phis, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if phis.shape != ys.shape or phis.ndim != 1:
            raise ValueError("phis and ys must be aligned 1-D arrays")
        for start in range(0, phis.size, _SUB_BLOCK):
            block_phis = phis[start : start + _SUB_BLOCK]
            block_ys = ys[start : start + _SUB_BLOCK]
            finite = np.isfinite(block_phis) & np.isfinite(block_ys)
            if not finite.all():
                bad = int(np.argmin(finite))
                self._absorb(block_phis[:bad], block_ys[:bad])
                _number("phi", block_phis[bad])
                _number("y", block_ys[bad])
            self._absorb(block_phis, block_ys)

    def _absorb(self, phis: np.ndarray, ys: np.ndarray) -> None:
        """Fold a sub-block of finite samples: the count steps, the moments
        of the samples in a core, then the band pairs in chunks of whole
        samples, about ``_PAIR_BUDGET`` pairs each."""
        # A positive margin means |x - phi| < delta exactly, so x lies between
        # fl(phi - delta) and fl(phi + delta) (see core._sorted_windows): a
        # sample's pairs are its window [lo, hi) in the sorted grid, less the
        # points whose core holds it, [far, near).
        if self._segments:
            lo, hi, far, near = self._segments.fold(phis, ys)
            bands = far - lo + hi - near
        else:
            delta = self.config.delta
            lo = np.searchsorted(self._sorted, phis - delta, side="left")
            hi = far = near = np.searchsorted(self._sorted, phis + delta, side="right")
            bands = hi - lo
        # A float 1.0: numpy 2.4 adds a Python int into a float row by a path
        # about 30 times slower.
        np.add.at(self._steps, lo, 1.0)
        np.add.at(self._steps, hi, -1.0)
        ends = bands.cumsum()
        total = int(ends[-1]) if ends.size else 0
        start = done = 0
        while done < total:
            stop = phis.size
            if total - done > _PAIR_BUDGET:
                cut = int(np.searchsorted(ends, done + _PAIR_BUDGET, side="right"))
                stop = max(cut, start + 1)
            end = int(ends[stop - 1])
            if end > done:
                chunk = slice(start, stop)
                self._chunk(lo[chunk], far[chunk], near[chunk], bands[chunk],
                            phis[chunk], ys[chunk], end - done)
            start, done = stop, end
        self.n_seen += phis.size

    def _chunk(self, lo, far, near, counts, phis, ys, total: int) -> None:
        """Add the ``total`` band pairs of a run of samples, ``counts`` each,
        laid out sample by sample, ``[lo, far)`` then ``[near, hi)``, into
        the band ``S``, ``SQ`` and ``SY``, each in one ``np.add.at``, so each
        point meets its samples in stream order.  A pair whose margin rounds
        to zero or below takes back its count step."""
        delta = self.config.delta
        # Pairs sample by sample: position in the sorted grid, margin, y.
        pos = np.arange(total) - np.repeat(counts.cumsum() - counts - lo, counts)
        if self._segments:
            pos += np.repeat(near - far, counts) * (pos >= np.repeat(far, counts))
        dist = self._sorted[pos]
        dist -= np.repeat(phis, counts)
        m = _margins(np.abs(dist, out=dist), delta)
        y = np.repeat(ys, counts)
        inside = m > 0.0
        if not inside.all():
            # Rounding can leave a margin <= 0 at either end of a window.
            trimmed = pos[~inside]
            np.add.at(self._steps, trimmed, -1.0)
            np.add.at(self._steps, trimmed + 1, 1.0)
            keep = np.flatnonzero(inside)
            pos, m, y = pos[keep], m[keep], y[keep]
        r = np.divide(m, delta, out=m)
        s, sq, sy = self._bands
        np.add.at(s, pos, r)
        np.add.at(sq, pos, np.multiply(r, r, out=dist[: r.size]))
        np.add.at(sy, pos, np.multiply(r, y, out=y))

    def _readout(self):
        return _readout(self.config.delta, *self.sums)

    def estimates(self) -> np.ndarray:
        """Per-point estimates ``SY / S``, nan where none is absorbed."""
        return self._readout()[0]

    def active_counts(self) -> np.ndarray:
        return self.n_active.astype(int)

    def objectives(self) -> np.ndarray:
        """Per-point norms of the absorbed margins, ``delta * sqrt(SQ)``, or nan."""
        return self._readout()[2]

    def support_sums(self) -> np.ndarray:
        """Per-point sums of the absorbed margins, ``delta * S``."""
        return self._readout()[3]
