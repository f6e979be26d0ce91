"""One-pass streaming form of the windowed direct-weight estimator.

The batch weights of :mod:`rdwo.core` never have to be materialized to keep
an estimate current.  The estimate is a weighted mean of the absorbed
outputs, with each sample's endpoint margin ``phi_hat`` as its weight, so it
follows West's incremental update (CACM 1979)::

    S_new = S + phi_hat
    estimate += (phi_hat / S_new) * (y - estimate)

where ``S`` is the running sum of absorbed margins.  The state is a pair
``(S, estimate)`` per query point, updated in constant time per sample.  A
margin too small to change ``S`` moves the estimate by its own tiny share,
not by a share of one ulp, so such samples cannot drag the estimate away.

:class:`StreamingGrid` holds the states of a grid of query points and pays
only for the grid points inside each sample's window, found by binary
search in the sorted grid.  The recursions of different grid points
are independent, and each is sequential only along its own samples, so the
grid kernel stores a chunk of (sample, grid point) pairs as jagged diagonals
(Saad, *Iterative Methods for Sparse Linear Systems*, section 3.4): grid
columns ordered by pair count, most first, and diagonal ``r`` holding the
``r``-th pair of every column that has one.  Each diagonal is a prefix of
the columns, so it updates contiguous slices of the chunk's state, and each
grid point runs the same IEEE operations, in the same order, as the scalar
recursion above fed the same samples.
"""

from __future__ import annotations

import numpy as np

from .core import EstimatorConfig, _margins, _require_finite

__all__ = ["StreamingGrid"]

# Samples whose windows the grid kernel looks up at once, and the
# (sample, grid point) pairs it lays out and applies at once.  A chunk holds
# whole samples, so a sample whose window alone holds more pairs is a chunk
# by itself.  At 8 bytes an entry, every chunk array of a full chunk stays
# under glibc's 128 KiB mmap threshold and is recycled from the heap rather
# than mapped and faulted in afresh.
_SUB_BLOCK = 1024
_PAIR_BUDGET = 8192


class StreamingGrid:
    """Streaming estimator states for many query points at once.

    Each grid point runs the same sequence of IEEE operations as the scalar
    recursion fed the same samples, so the estimates agree bit for bit with
    running West's update once per grid point.  The cost follows
    the windows: a sample touches only the grid points within ``delta`` of
    it, found by binary search in the sorted grid.

    Samples are folded in chunks of about ``_PAIR_BUDGET`` pairs.  A chunk's
    pairs are grouped by grid column with one stable sort, which keeps
    stream order within each column, and laid out as jagged diagonals
    (Saad, section 3.4): diagonal ``r`` holds the ``r``-th pair of every
    column with more than ``r`` pairs, and with the columns ordered by pair
    count it is a prefix of them.  The chunk's state is gathered once, each
    diagonal is six in-place ufunc calls on contiguous slices, and the state
    is scattered back once.  When no column has two pairs, as in any
    one-sample call, the pairs in sample order already form the single
    diagonal and the sort is skipped.
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
        self.n_active = np.zeros(xs.size, dtype=int)
        self.support_sum = np.zeros(xs.size)
        self.support_sq_sum = np.zeros(xs.size)
        self._estimates = np.zeros(xs.size)
        self._order = np.argsort(self.xs, kind="stable")
        self._sorted = self.xs[self._order]

    def update(self, phi: float, y: float) -> None:
        """Fold one sample into every grid point's state."""
        self.extend([phi], [y])

    def extend(self, phis: np.ndarray, ys: np.ndarray) -> None:
        """Fold samples into every grid point's state, in order.

        The same as calling :meth:`update` on each sample in turn, bit for
        bit.  A non-finite sample raises :class:`ValueError` after every
        sample before it has been absorbed, as that loop would.
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
        """Fold the ``total`` pairs of a run of samples, diagonal by diagonal.

        Diagonal ``r`` holds the ``r``-th pair of every grid column with
        more than ``r`` pairs, so no grid point repeats within a diagonal
        and each one meets its samples in stream order across them.
        """
        counts = hi - lo
        base = int(lo.min())
        # Pairs sample by sample: grid column relative to base, margin, y.
        col = np.arange(total) - np.repeat(counts.cumsum() - counts - (lo - base), counts)
        d = _margins(np.abs(self._sorted[base:][col] - np.repeat(phis, counts)), self.config.delta)
        y = np.repeat(ys, counts)
        inside = d > 0.0
        if not inside.all():
            # Rounding can leave a margin <= 0 at either end of a window.
            keep = np.flatnonzero(inside)
            col, d, y = col[keep], d[keep], y[keep]
        widths = [col.size]
        added = 1
        if phis.size > 1:
            per_col = np.bincount(col, minlength=int(hi.max()) - base)
            if per_col.max() > 1:
                col, perm, widths, added = _diagonals(col, per_col)
                d = d[perm]
                y = y[perm]
        points = self._order[base + col]
        s, e, q = self.support_sum[points], self._estimates[points], self.support_sq_sum[points]
        dd = d * d
        share = np.empty(widths[0])
        step = np.empty(widths[0])
        # West's update on the first w columns; per grid point these are the
        # operations of the scalar recursion, in its order.
        a = 0
        for w in widths:
            b = a + w
            dr = d[a:b]
            sw = s[:w]
            sw += dr
            np.divide(dr, sw, out=share[:w])
            ew = e[:w]
            t = np.subtract(y[a:b], ew, out=step[:w])
            t *= share[:w]
            ew += t
            q[:w] += dd[a:b]
            a = b
        self.support_sum[points] = s
        self._estimates[points] = e
        self.support_sq_sum[points] = q
        self.n_active[points] += added

    def estimates(self) -> np.ndarray:
        """Per-point estimates, nan where no sample has been absorbed."""
        return np.where(self.n_active > 0, self._estimates, np.nan)

    def active_counts(self) -> np.ndarray:
        return self.n_active.copy()

    def objectives(self) -> np.ndarray:
        """Per-point achieved objective values, nan where unsupported.

        For the closed-form weights the achieved objective reduces to the
        Euclidean norm of the absorbed margins, so it falls out of the
        running sum of squares.
        """
        return np.where(self.n_active > 0, np.sqrt(self.support_sq_sum), np.nan)

    def support_sums(self) -> np.ndarray:
        return self.support_sum.copy()


def _diagonals(col, per_col):
    """Lay out a chunk's pairs, given sample by sample, as jagged diagonals
    (Saad, *Iterative Methods for Sparse Linear Systems*, section 3.4).

    Returns the columns that have pairs, by pair count, most first; the
    permutation that takes the pairs from sample order to diagonal order,
    which keeps stream order within each column; each diagonal's width; and
    each column's pair count.
    """
    # A stable sort by column keeps stream order within each column; stable
    # sorts of 16-bit keys run as radix sorts.
    key = col.astype(np.uint16) if per_col.size <= 1 << 16 else col
    order = np.argsort(key, kind="stable")
    cols = np.flatnonzero(per_col)
    count = per_col[cols]
    by_count = np.argsort(-count, kind="stable")
    # Diagonal r holds the columns with more than r pairs.
    widths = (cols.size - np.bincount(count).cumsum()[:-1]).tolist()
    # The r-th pair of the column in slot j is at start[j] + r in column order.
    start = (count.cumsum() - count)[by_count]
    src = np.empty_like(order)
    a = 0
    for r, w in enumerate(widths):
        np.add(start[:w], r, out=src[a : a + w])
        a += w
    return cols[by_count], order[src], widths, count[by_count]
