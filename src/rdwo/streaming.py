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

:class:`RecursiveState` holds one query point.  :class:`StreamingGrid` holds
many and pays only for the grid points inside each sample's window: it finds
them by binary search in the sorted grid, expands a block of samples into
(sample, grid point) pairs, and applies them in rounds, where round ``r``
holds the ``r``-th pair of every grid point.  Each grid point therefore runs
the same IEEE operations, in the same order, as a :class:`RecursiveState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ActiveSet,
    EstimatorConfig,
    NoSupportError,
    Sample,
    WeightSolution,
    _margins,
    _require_finite,
)

__all__ = [
    "Absorbed",
    "Skipped",
    "LedgerEntry",
    "LedgerDisabledError",
    "RecursiveState",
    "StreamingGrid",
]

# Samples whose windows the grid kernel looks up at once, and the
# (sample, grid point) pairs it expands and applies at once (at most 2**16,
# so a pair's rank fits 16 bits).  The pair arrays are the kernel's working
# memory, about 60 bytes per pair.
_SUB_BLOCK = 1024
_PAIR_BUDGET = 4096


class LedgerDisabledError(RuntimeError):
    """Weight reconstruction was requested from a state built without it."""


@dataclass(frozen=True)
class Absorbed:
    """Outcome of an update that took the sample in.

    ``reweight`` is the factor ``S/(S + phi_hat)`` applied to every
    previously absorbed weight; ``new_weight`` is the weight
    ``phi_hat/(S + phi_hat)`` given to the incoming sample.  Each is one
    correctly rounded quotient, so they sum to one up to rounding; a margin
    too small to change ``S`` gives ``reweight == 1.0`` and a positive
    ``new_weight``.  ``reweight`` is zero exactly on the first absorption.
    """

    reweight: float
    new_weight: float


@dataclass(frozen=True)
class Skipped:
    """Outcome of an update that ignored an out-of-window sample."""


class LedgerEntry(NamedTuple):
    position: int
    index: int
    phi_hat: float
    y: float


class RecursiveState:
    """Streaming estimator state for a single query point.

    Constant memory unless ``diagnostics`` is set, in which case every
    absorbed sample is recorded so the implied weight vector can be
    reconstructed with :meth:`weights_snapshot`.
    """

    __slots__ = (
        "query_x",
        "config",
        "n_seen",
        "n_active",
        "support_sum",
        "support_sq_sum",
        "_estimate",
        "_ledger",
    )

    def __init__(self, query_x: float, config: EstimatorConfig, *, diagnostics: bool = False):
        self.query_x = _require_finite("query_x", query_x)
        self.config = config
        self.n_seen = 0
        self.n_active = 0
        self.support_sum = 0.0
        self.support_sq_sum = 0.0
        self._estimate = 0.0
        self._ledger: list[LedgerEntry] | None = [] if diagnostics else None

    @property
    def estimate(self) -> float | None:
        """Current estimate, or None while no sample has been absorbed."""
        return self._estimate if self.n_active > 0 else None

    def update(self, sample: Sample) -> Absorbed | Skipped:
        """Fold one sample into the state.

        Out-of-window samples (endpoint margin <= 0) leave the estimate
        untouched.  Absorbing a sample costs O(1) regardless of how many
        samples came before.
        """
        pos = self.n_seen
        d = self.config.delta - abs(self.query_x - sample.phi)
        self.n_seen = pos + 1
        if d <= 0.0:
            return Skipped()
        s_old = self.support_sum
        s_new = s_old + d
        share = d / s_new
        self._estimate += share * (sample.y - self._estimate)
        self.support_sum = s_new
        self.support_sq_sum += d * d
        self.n_active += 1
        if self._ledger is not None:
            self._ledger.append(LedgerEntry(pos, sample.index, d, sample.y))
        return Absorbed(reweight=s_old / s_new, new_weight=share)

    def weights_snapshot(self) -> WeightSolution:
        """Reconstruct the weight vector implied by the samples seen so far.

        The vector is positional over the stream: entry ``i`` belongs to the
        ``i``-th sample fed to :meth:`update`.  Requires diagnostics mode.
        """
        if self._ledger is None:
            raise LedgerDisabledError(
                "weights_snapshot requires a state built with diagnostics=True"
            )
        if self.n_active == 0:
            raise NoSupportError("no sample absorbed yet")
        weights = np.zeros(self.n_seen)
        margins = np.zeros(self.n_active)
        for slot, entry in enumerate(self._ledger):
            share = entry.phi_hat / self.support_sum
            weights[entry.position] = share
            margins[slot] = entry.phi_hat
        members = tuple(sorted(entry.index for entry in self._ledger))
        active_w = margins / self.support_sum
        numer = float(np.dot(active_w, margins))
        denom = math.sqrt(float(np.dot(active_w, active_w)))
        return WeightSolution(
            weights=weights, active=ActiveSet(members), objective=numer / denom
        )


class StreamingGrid:
    """Streaming estimator states for many query points at once.

    Each grid point runs the same sequence of IEEE operations as a
    :class:`RecursiveState` fed the same samples, so the estimates agree bit
    for bit with running one scalar state per grid point.  The cost follows
    the windows: a sample touches only the grid points within ``delta`` of
    it, found by binary search in the sorted grid.
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
        self._round = np.empty((3, min(xs.size, _PAIR_BUDGET)))

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
        """Fold a sub-block of finite samples, ``_PAIR_BUDGET`` (sample, grid
        point) pairs at a time."""
        delta = self.config.delta
        # A positive margin means |x - phi| < delta exactly, so x lies between
        # fl(phi - delta) and fl(phi + delta); see core.sorted_windows.
        lo = np.searchsorted(self._sorted, phis - delta, side="left")
        counts = np.searchsorted(self._sorted, phis + delta, side="right") - lo
        # Pair p, numbered sample by sample, belongs to the sample whose
        # cumulative count first exceeds p, and its grid position is p minus
        # that sample's offset.  Every chunk but the last is the same size.
        ends = np.cumsum(counts)
        offsets = ends - counts - lo
        total = int(ends[-1]) if ends.size else 0
        for first in range(0, total, _PAIR_BUDGET):
            pos = np.arange(first, min(total, first + _PAIR_BUDGET))
            sample = np.searchsorted(ends, pos, side="right")
            pos -= offsets[sample]
            self._apply(pos, sample, phis, ys)
        self.n_seen += phis.size

    def _apply(self, pos: np.ndarray, sample: np.ndarray, phis, ys) -> None:
        """Fold (sample, grid point) pairs, given in stream order, in rounds.

        Round ``r`` holds the ``r``-th pair of every grid point, so within a
        round no grid point repeats and across rounds each one sees its
        samples in stream order.
        """
        d = _margins(self._sorted[pos], phis[sample], self.config.delta)
        inside = d > 0.0
        if not inside.all():
            # Rounding can leave a margin <= 0 at either end of a window.
            keep = np.flatnonzero(inside)
            pos, sample, d = pos[keep], sample[keep], d[keep]
        per_point = np.bincount(pos, minlength=self.xs.size)
        self.n_active[self._order] += per_point
        # A pair's rank among the pairs of its grid point is its offset from
        # the group start after a stable sort by grid point.  Stable sorts of
        # 16-bit keys run as radix sorts.  The chunk arrays are the kernel's
        # working memory, so each is dropped once used.
        key = pos.astype(np.uint16) if self.xs.size <= 1 << 16 else pos
        rank = np.empty_like(pos)
        rank[np.argsort(key, kind="stable")] = np.arange(pos.size) - np.repeat(
            np.cumsum(per_point) - per_point, per_point
        )
        del key
        # Grouping by rank is all a round needs; rank < _PAIR_BUDGET <= 2**16.
        order = np.argsort(rank.astype(np.uint16), kind="stable")
        bounds = np.cumsum(np.bincount(rank)).tolist()
        del rank
        points = self._order[pos[order]]
        y = ys[sample[order]]
        d = d[order]
        del pos, sample, order
        dd = d * d
        s_sum, est_all, sq_sum = self.support_sum, self._estimates, self.support_sq_sum
        # Round buffers: at most one pair per grid point, reused every round.
        buf = self._round
        a = 0
        for b in bounds:
            m = b - a
            idx = points[a:b]
            s_new = np.take(s_sum, idx, out=buf[0, :m])
            s_new += d[a:b]
            s_sum[idx] = s_new
            share = np.divide(d[a:b], s_new, out=buf[0, :m])
            est = np.take(est_all, idx, out=buf[1, :m])
            step = np.subtract(y[a:b], est, out=buf[2, :m])
            step *= share
            est += step
            est_all[idx] = est
            sq = np.take(sq_sum, idx, out=buf[0, :m])
            sq += dd[a:b]
            sq_sum[idx] = sq
            a = b

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
