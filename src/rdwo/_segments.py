"""The cores of :class:`rdwo.streaming.StreamingGrid`: the segments its
grid's breakpoints cut, their moments, and the read of every core from
them.  The module docstring of :mod:`rdwo.streaming` says what they hold
and how far a read may be from exact.

A grid loads this module when it is built, and only if it keeps cores, so
that ``import rdwo.cli`` and a ``stream`` over a sparse grid never compile it.
"""

from __future__ import annotations

import numpy as np

from .streaming import _TAU, _windows

# Grid points whose cores a read forms at once, so that its work arrays stay
# small.
_QUERIES = 256


def _runs(moments: np.ndarray, blocks: np.ndarray):
    """The running sums down each column of ``moments``, ``(rows + 1, 3,
    columns)`` from zero, split three ways; each block's exponent, ``(blocks,
    columns)``; and ``b``, the bit length of ``rows``.  ``blocks`` numbers
    each row's block from 0.  A block's column is taken in units ``2^(52 -
    b)`` below its largest magnitude and split exactly into whole units and
    a remainder, which, scaled up by ``2^(52 - b)``, is split so again.  At
    most ``2^52`` whole units add up, so only the last remainder rounds."""
    bits = len(moments).bit_length()
    starts = np.flatnonzero(np.diff(blocks, prepend=-1))
    exponent = np.frexp(np.maximum.reduceat(np.abs(moments), starts))[1] + (bits - 52)
    runs = np.zeros((len(moments) + 1, 3, moments.shape[1]))
    high, middle, low = runs[1:].transpose(1, 0, 2)
    np.ldexp(moments, -exponent[blocks], out=low)
    for whole in (high, middle):
        np.round(low, out=whole)
        np.ldexp(np.subtract(low, whole, out=low), 52 - bits, out=low)
    return np.cumsum(runs, axis=0, out=runs), exponent, bits


class Segments:
    """The segments of the points ``x[first:last]`` of the ascending grid
    ``x``, every one of which keeps a core, and the moments folded into
    them."""

    def __init__(self, x: np.ndarray, delta: float, first: int, last: int):
        self.x, self.delta = x, delta
        cored, reach = x[first:last], (1.0 - _TAU) * delta
        edges, where = np.unique(np.concatenate([cored - reach, cored, cored + reach]),
                                 return_inverse=True)
        b, mid, c = where.reshape(3, cored.size)
        cell = np.floor((edges - edges[0]) / delta)
        centre = edges[0] + (cell + 0.5) * delta
        # Segment k runs from edges[k] to edges[k + 1]: its middle, and the
        # middle's distance from its block's centre.
        self.middle = edges[:-1] / 2 + edges[1:] / 2
        self.shift = (self.middle - centre[:-1]) / delta
        self.moments = np.zeros((edges.size - 1, 5))
        # A sample's segment search counts the edges at or below it; the
        # points whose core holds it run from those whose C to those whose B
        # lies at or below the last of them.
        below = np.append(-np.inf, edges)
        self.cores = first + np.stack([np.searchsorted(edges[c], below, side="right"),
                                       np.searchsorted(edges[b], below, side="right")])
        # Each side splits where the block of its last segment starts:
        # pieces [b, s), [s, mid), [mid, t) and [t, c), each in one block,
        # and the point's distance from that block's centre.
        starts = np.searchsorted(cell, cell, side="left")
        self.bounds = np.stack([b, np.clip(starts[mid - 1], b, mid), mid,
                                np.clip(starts[c - 1], mid, c), c])
        pieces = np.stack([b, mid - 1, mid, c - 1])
        self.offset = (cored - centre[pieces]) / delta
        # The blocks numbered from 0: each segment's, and each piece's.
        self.blocks = np.cumsum(np.diff(cell[:-1], prepend=-1.0) > 0) - 1
        self.pieces = self.blocks[pieces]
        self.cored, self.edges = slice(first, last), edges

    def fold(self, phis: np.ndarray, ys: np.ndarray):
        """Add the moments of the samples in a core, in stream order, and
        return each sample's window ``[lo, hi)`` in the sorted grid and the
        cores that hold it, ``[far, near)``."""
        delta = self.delta
        lo, hi, slot = _windows(self.x, delta, phis, self.edges)
        far = np.clip(self.cores[0, slot], lo, hi)
        near = np.clip(self.cores[1, slot], far, hi)
        cored = np.flatnonzero(near > far)
        segment = slot[cored] - 1
        d = (phis[cored] - self.middle[segment]) / delta
        w = ys[cored] * _TAU
        np.add.at(self.moments, segment, np.stack([np.ones_like(d), d, d * d, w, d * w], axis=1))
        return lo, hi, far, near

    def add(self, sums: np.ndarray) -> np.ndarray:
        """``sums``, the band ``S``, ``SQ`` and ``SY`` in sorted-grid order,
        with every core added, as a new array."""
        sums = sums.copy()
        n, v, v2, w, vw = self.moments.T
        s = self.shift
        shifted = v + n * s
        runs, exponent, bits = _runs(np.stack([n, shifted, v2 + s * (v + shifted), w,
                                               vw + s * w], axis=1), self.blocks)
        sign = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        for start in range(0, self.offset.shape[1], _QUERIES):
            part = slice(start, start + _QUERIES)
            # Each piece's count and sums of d, d^2, tau y and d tau y about
            # its block's centre; the margin there; each side's sums.
            at = runs[self.bounds[:, part]]
            high, middle, low = (at[1:] - at[:-1]).transpose(2, 3, 0, 1)
            n, v, v2, w, vw = np.ldexp(high + np.ldexp(middle + np.ldexp(low, bits - 52),
                                                       bits - 52),
                                       exponent[self.pieces[:, part]].transpose(2, 0, 1))
            g = 1.0 - sign * self.offset[:, part]
            v *= sign
            vw *= sign
            s = n * g + v
            cores = np.sum([s, g * (s + v) + v2, (g * w + vw) / _TAU], axis=1)
            sums[:, self.cored][:, part] += cores
        return sums
