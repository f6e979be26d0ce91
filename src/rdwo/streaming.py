"""One-pass streaming form of the windowed direct-weight estimator.

A query point's streaming state is the window state of :mod:`rdwo.core`,
kept as running sums over the samples absorbed so far, in scaled margins
``r = m / delta`` with ``m = delta - |x - phi|``, which lie in (0, 1]::

    S = sum r,    SQ = sum r * r,    SY = sum r * y,

and the count.  A read gives them as one table in the row order of
``core._window_dots`` (count, ``S``, ``SQ``, ``SY``), which
``core._readout`` reads out.  The scaling bounds each term of ``SY`` by
``|y|`` and each term of ``S`` and ``SQ`` by one, whatever ``delta`` is.
The batch path of :mod:`rdwo.core` forms the same quotient over the same
window; the two differ only in the order they add.

:class:`StreamingGrid` holds the sums of a grid of query points and pays
only for the grid points inside each sample's window, found by binary
search in the sorted grid.  It keeps its state in sorted-grid order, so a
pair of a sample and a grid point is added at the point's sorted position
with no lookup.  The count, a whole number that any order of adds leaves
exact, is kept as a +1 step where each window starts and a -1 step where
it ends, two adds per sample, not one per pair, and summed when read.
"""

from __future__ import annotations

import numpy as np

from .core import EstimatorConfig, _margins, _readout, _require_finite

__all__ = ["StreamingGrid"]

# Samples whose windows the grid kernel looks up at once, and the
# (sample, grid point) pairs it folds at once.  A chunk holds whole samples,
# so a sample whose window alone holds more pairs is a chunk by itself.  At
# 8 bytes an entry, every chunk array of a full chunk stays under glibc's
# 128 KiB mmap threshold and is recycled from the heap rather than mapped
# and faulted in afresh.
_SUB_BLOCK = 1024
_PAIR_BUDGET = 8192


class StreamingGrid:
    """Streaming estimator states for many query points at once.

    Each grid point adds its own samples into its sums one at a time, in
    stream order, so the state after :meth:`extend` is bit for bit the one
    a scalar running sum per grid point gives, however the samples are split
    between calls.
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
        # a window that ends past the last one, and S, SQ and SY.
        self._steps = np.zeros(xs.size + 1)
        self._sums = np.zeros((3, xs.size))
        order = np.argsort(self.xs, kind="stable")
        self._sorted = self.xs[order]
        # Each point's position in the sorted grid.
        self._rank = np.argsort(order)

    @property
    def sums(self) -> np.ndarray:
        """The count, ``S``, ``SQ`` and ``SY`` of each grid point, the rows
        of ``core._window_dots``, as a new ``(4, G)`` table in grid order:
        writing into it leaves the state as it was."""
        table = np.empty((4, self.xs.size))
        np.cumsum(self._steps[:-1], out=table[0])
        table[1:] = self._sums
        return table.take(self._rank, axis=1)

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
                _require_finite("phi", block_phis[bad])
                _require_finite("y", block_ys[bad])
            self._absorb(block_phis, block_ys)

    def _absorb(self, phis: np.ndarray, ys: np.ndarray) -> None:
        """Fold a sub-block of finite samples in chunks of whole samples,
        about ``_PAIR_BUDGET`` (sample, grid point) pairs each."""
        delta = self.config.delta
        # A positive margin means |x - phi| < delta exactly, so x lies between
        # fl(phi - delta) and fl(phi + delta); see core._sorted_windows.
        lo = np.searchsorted(self._sorted, phis - delta, side="left")
        hi = np.searchsorted(self._sorted, phis + delta, side="right")
        ends = (hi - lo).cumsum()
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
                self._chunk(lo[chunk], hi[chunk], phis[chunk], ys[chunk], end - done)
            start, done = stop, end
        self.n_seen += phis.size

    def _chunk(self, lo, hi, phis, ys, total: int) -> None:
        """Add the ``total`` pairs of a run of samples into the state, laid
        out sample by sample: the count steps at the ends of each window,
        then ``S``, ``SQ`` and ``SY``, each in one ``np.add.at``, which
        applies its updates one by one in index order, so each grid point
        meets its samples in stream order.  A pair whose margin rounds to
        zero or below takes back its count step."""
        delta = self.config.delta
        counts = hi - lo
        # Pairs sample by sample: position in the sorted grid, margin, y.
        pos = np.arange(total) - np.repeat(counts.cumsum() - counts - lo, counts)
        dist = self._sorted[pos]
        dist -= np.repeat(phis, counts)
        m = _margins(np.abs(dist, out=dist), delta)
        y = np.repeat(ys, counts)
        # A window counts at every point from lo up to hi, less the pairs
        # trimmed below.  A float 1.0: numpy 2.4 adds a Python int into a
        # float row by a path about 30 times slower.
        np.add.at(self._steps, lo, 1.0)
        np.add.at(self._steps, hi, -1.0)
        inside = m > 0.0
        if not inside.all():
            # Rounding can leave a margin <= 0 at either end of a window.
            trimmed = pos[~inside]
            np.add.at(self._steps, trimmed, -1.0)
            np.add.at(self._steps, trimmed + 1, 1.0)
            keep = np.flatnonzero(inside)
            pos, m, y = pos[keep], m[keep], y[keep]
        r = np.divide(m, delta, out=m)
        s, sq, sy = self._sums
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
