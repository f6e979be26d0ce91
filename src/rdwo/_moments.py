"""The moment kernel of the batch window sums: every query's window sums
from block-centred running moments, with no Python loop per query.

``core._window_sums`` loads this module on first use, so that ``stream``
and the import of ``rdwo.cli`` never compile it, and takes each cell of its
table from :func:`_moment_table` where the cell passes its condition test,
and from the loop ``core._window_dots`` elsewhere.
"""

from __future__ import annotations

import numpy as np

from .core import _margins

# A window of fewer samples is summed by the loop, so that small windows,
# and every result pinned on one, keep the loop's bits.
_MOMENT_MIN = 128
# The most samples in one moment block: a cell holding more is cut into
# blocks of this many from its first sample.
_MOMENT_BLOCK = 4096
# Queries the kernel answers at once, so that its work arrays stay small.
_MOMENT_QUERIES = 256
# The error the kernel guarantees on a cell it answers, relative to the
# cell's sum of absolute terms (see _moment_table).
_MOMENT_TOL = 2.0**-36
# Unit roundoff of IEEE double precision.
_U = 2.0**-53
# Roundings along any one term of the kernel's readout, with room to spare.
_KAPPA = 16


def _moment_cells_fit(phis: np.ndarray, delta: float) -> bool:
    """Whether the kernel's cells of width ``delta`` can be numbered from the
    least regressor in floats: at most 2**40 cells over the data, 2**40
    cell widths above its largest magnitude, and ``delta`` far from under-
    and overflow in the moments' squares."""
    if phis.size == 0 or not 2.0**-300 <= delta <= 2.0**300:
        return False
    first, last = float(phis[0]), float(phis[-1])
    return last - first <= 2.0**40 * delta and max(-first, last) <= 2.0**40 * delta


def _blocks(phis: np.ndarray, delta: float, i: np.ndarray):
    """``(start, stop, centre, found)`` of the moment block that holds each
    sample index ``i``.  Cell ``k`` holds the regressors from ``phis[0] + k *
    delta`` up to the next edge, and is centred midway; a cell of more than
    ``_MOMENT_BLOCK`` samples is cut into blocks of that many.  Cells depend
    on the data and ``delta`` alone, so a block is the same whichever
    queries ask for it.  ``found`` is false where the rounded edges disagree
    with the cell number, which the gates of :func:`_moment_cells_fit` keep
    from happening."""
    first = phis[0]
    value = phis[i]
    k = np.floor((value - first) / delta)
    k -= first + k * delta > value
    k += first + (k + 1.0) * delta <= value
    cells, inverse = np.unique(k, return_inverse=True)
    lo, hi = np.searchsorted(phis, first + np.add.outer((0.0, 1.0), cells) * delta)
    lo, hi = lo[inverse].reshape(i.shape), hi[inverse].reshape(i.shape)
    start = lo + (i - lo) // _MOMENT_BLOCK * _MOMENT_BLOCK
    return (start, np.minimum(start + _MOMENT_BLOCK, hi), first + (k + 0.5) * delta,
            (lo <= i) & (i < hi))


def _moment_table(xs: np.ndarray, phis: np.ndarray, delta: float, columns,
                  distances: bool, magnitudes: bool):
    """The ``core._window_dots`` table of the queries ``xs`` from
    block-centred prefix moments, and a mask of the cells the loop must
    answer instead.

    A window ``(x - delta, x + delta)`` splits at ``x`` into two sides.  On
    the left a margin is ``g + d`` and on the right ``g - d``, with ``d = phi
    - c`` from a block centre ``c`` and ``g = delta -+ (x - c)``, so each
    side's sums are polynomials in the count and the sums of ``d``, ``d^2``,
    ``v``, ``d v``, ``|v|`` and ``d |v|`` over the part of a block it covers:
    differences of running sums kept within each block only
    (:func:`_block_sums`).  A side spans at most two blocks, or its query
    goes to the loop, so a window of more than ``4 * _MOMENT_BLOCK``
    samples goes there untried.

    Each cell also gets an a-priori bound on its distance from the exact sum
    over the loop's own scaled margins ``fl(fl(delta - fl|x - phi|) /
    delta)`` (:func:`_moment_cells`).  A cell is kept when that bound is at
    most ``_MOMENT_TOL`` times a lower bound on its sum of absolute terms
    ``R``: the cell itself for ``S``, ``SQ``, ``r . |x - phi|`` and ``r .
    |v|``, and ``r . |v|`` for ``r . v``.  So every kept cell is within
    ``_MOMENT_TOL * R`` of the exact one; the count is exact.  Windows of
    fewer than ``_MOMENT_MIN`` samples, windows with a sample of margin <= 0
    at an end, and cells that are not finite go to the loop.  Nothing here
    warns: numpy errors are ignored, and a cell they spoil fails its test.
    The queries are answered ``_MOMENT_QUERIES`` at a time in ascending
    order.
    """
    own = 2 if distances else 1
    table = np.zeros((2 + own + len(columns) * (1 + magnitudes), xs.size))
    loop = np.ones(table.shape, dtype=bool)
    if not _moment_cells_fit(phis, delta):
        return table, loop
    with np.errstate(all="ignore"):
        lo = np.searchsorted(phis, xs - delta, side="left")
        hi = np.searchsorted(phis, xs + delta, side="right")
        q = np.flatnonzero((hi - lo >= _MOMENT_MIN) & (hi - lo <= 4 * _MOMENT_BLOCK))
        q = q[(_margins(np.abs(xs[q] - phis[lo[q]]), delta) > 0.0)
              & (_margins(np.abs(xs[q] - phis[hi[q] - 1]), delta) > 0.0)]
        q = q[np.argsort(xs[q], kind="stable")]
        for part in range(0, q.size, _MOMENT_QUERIES):
            p = q[part : part + _MOMENT_QUERIES]
            cells, accept = _moment_cells(xs[p], phis, delta, columns, own, magnitudes,
                                          lo[p], hi[p])
            table[0, p] = hi[p] - lo[p]
            loop[0, p] = False
            # + 0.0 turns -0 into +0, as the loop's table does.
            table[1:, p] = cells + 0.0
            loop[1:, p] = ~accept
    return table, loop


def _segments(phis: np.ndarray, delta: float, a, mid, b):
    """The four block segments of each window ``phis[a:b]``, two on each
    side of ``mid`` in the order left, right: arrays ``(start, stop, centre,
    i, j)`` of shape ``(4, Q)``, the segment being ``phis[i:j]`` in the block
    ``phis[start:stop]``; and whether both sides found their blocks and span
    at most two.  An empty segment is ``i == j`` at its block's start."""
    s0, s1 = np.stack((a, a, mid, mid)), np.stack((mid, mid, b, b))
    filled = s1 > s0
    ends = np.where(np.arange(4)[:, None] % 2, np.maximum(s1 - 1, 0),
                    np.minimum(s0, phis.size - 1))
    start, stop, centre, found = _blocks(phis, delta, ends)
    head, tail = slice(0, None, 2), slice(1, None, 2)
    one = start[head] == start[tail]
    found = ~filled[head] | (found[head] & found[tail] & (one | (stop[head] == start[tail])))
    i, j = start.copy(), start.copy()
    i[head] = np.where(filled[head], s0[head], start[head])
    j[head] = np.where(filled[head], np.where(one, s1[head], stop[head]), start[head])
    j[tail] = np.where(filled[tail] & ~one, s1[tail], start[tail])
    return (start, stop, centre, i, j), found.all(axis=0)


def _block_plan(start, stop, centre, i, j):
    """The blocks that segments ``(start, stop, centre, i, j)`` lie in, in
    ascending order, as ``(start, stop, centre)``; the bounds of each
    block's run of segments in that order; each segment's ends within its
    block, ``(2, segments)``, and its own position, in that order; and each
    segment's block number, shaped like ``start``."""
    order = np.argsort(start, axis=None, kind="stable")
    starts = start.ravel()[order]
    first = np.unique(starts, return_index=True)[1]
    take = order[first]
    blocks = list(zip(start.ravel()[take].tolist(), stop.ravel()[take].tolist(),
                      centre.ravel()[take].tolist()))
    bounds = [*first.tolist(), order.size]
    local = np.stack((i.ravel()[order], j.ravel()[order])) - starts
    owner = np.empty(order.size, dtype=np.intp)
    owner[order] = np.repeat(np.arange(len(blocks)), np.diff(bounds))
    return blocks, bounds, local, order, owner.reshape(start.shape)


def _block_sums(phis: np.ndarray, plan, columns):
    """The sums over every segment of ``plan`` of ``d`` and ``d^2``, then of
    ``v``, ``d v``, ``|v|`` and ``d |v|`` for each column ``v``, shaped
    ``(rows, 4, Q)``; and per segment its block's largest ``|d|`` and, for
    each column, its block's sum of ``|v|``, shaped ``(1 + columns, 4, Q)``.

    A block's running sums are formed in one buffer, a block at a time, and
    each segment's sum is the difference of two of them, so that no array
    of the data's length is made and a running sum's rounding stays within
    its block."""
    blocks, bounds, local, order, owner = plan
    rows = 2 + 4 * len(columns)
    buffer = np.empty((rows, max(hi - lo for lo, hi, _ in blocks) + 1))
    buffer[:, 0] = 0.0
    sums = np.empty((rows, local.shape[1]))
    extra = np.empty((1 + len(columns), len(blocks)))
    for k, (lo, hi, c) in enumerate(blocks):
        body = buffer[:, 1 : hi - lo + 1]
        d = np.subtract(phis[lo:hi], c, out=body[0])
        extra[0, k] = max(abs(d[0]), abs(d[-1]))
        for row, v in zip(range(2, rows, 4), columns):
            v = v[lo:hi]
            body[row] = v
            np.multiply(d, v, out=body[row + 1])
            np.abs(v, out=body[row + 2])
            np.multiply(d, body[row + 2], out=body[row + 3])
        np.multiply(d, d, out=body[1])
        np.cumsum(body, axis=1, out=body)
        extra[1:, k] = body[4::4, -1]
        run = slice(bounds[k], bounds[k + 1])
        sums[:, order[run]] = buffer[:, local[1, run]] - buffer[:, local[0, run]]
    return sums.reshape(rows, *owner.shape), extra[:, owner]


def _total(parts):
    """The sum of a window's four segment rows, added in segment order."""
    return ((parts[0] + parts[1]) + parts[2]) + parts[3]


def _moment_cells(x, phis: np.ndarray, delta: float, columns, own: int, magnitudes: bool,
                  a, b):
    """The cells ``S``, ``SQ``, ``r . |x - phi|`` if ``own`` is 2, ``r . v``
    for each column, and ``r . |v|`` for each if ``magnitudes``, of the
    windows ``phis[a:b]`` of the queries ``x``, rows by queries, and whether
    each passes the condition test of :func:`_moment_table`.

    A cell's bound sums three parts over its window's segments, in units of
    ``delta``, with a segment of ``n`` samples in a block of ``L``, ``g``
    its margin offset, ``e = x - c``, ``D`` its block's largest ``|d|`` and
    ``A`` its block's sum of ``|v|``:

    - the loop's margins against ``g -+ d``: ``fl(x - c)``, ``g``, ``d`` and
      the loop's distance, margin and quotient each round once, so a term
      is within ``u (|e| + |g| + D + 4)`` of the loop's;
    - the running sums: each is within ``gamma_L`` of its block's sum of
      absolute terms (Higham, *Accuracy and Stability of Numerical
      Algorithms*, section 4.2), and a segment takes two, so ``2 L u`` times
      the polynomial's coefficients by those block sums, its gross ``P``;
    - the readout: at most ``_KAPPA`` roundings on any term, ``_KAPPA u P``;

    and a term for products that underflow.
    """
    mid = np.clip(np.searchsorted(phis, x, side="right"), a, b)
    (start, stop, centre, i, j), found = _segments(phis, delta, a, mid, b)
    plan = _block_plan(start, stop, centre, i, j)
    sums, (dmax, *totals) = _block_sums(phis, plan, columns)
    d1, d2 = sums[:2]
    sign = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    length, count = (stop - start).astype(float), (j - i).astype(float)
    e = x - centre
    gh = (delta - sign * e) / delta
    m1 = d1 / delta
    ag, ae, db = np.abs(gh), np.abs(e) / delta, dmax / delta
    # An empty segment adds exactly zero, and nothing to a bound.
    live = count > 0.0
    spread = np.where(live, length * db, 0.0)
    model = np.where(live, ae + ag + db + 4.0, 0.0)
    grow = np.where(live, 2.0 * length + _KAPPA, 0.0)
    tiny = grow * 2.0**-1070 * max(1.0, delta, delta**-2)

    def cell(parts, gross, margins, scale=1.0, reference=None):
        value = _total(parts)
        limit = scale * _total(_U * (grow * gross + margins) + tiny)
        against = value if reference is None else reference
        return value, np.isfinite(value) & (limit * (1.0 + _MOMENT_TOL) <= _MOMENT_TOL * against)

    cells = [cell(count * gh + sign * m1, count * ag + spread, count * model),
             cell(gh * (count * gh + 2.0 * sign * m1) + d2 / delta / delta,
                  count * ag * ag + spread * (2.0 * ag + db), 2.1 * count * model)]
    if own == 2:
        cells.append(cell(sign * gh * (count * e - d1) + e * m1 - d2 / delta,
                          (count * ae + spread) * ag + spread * (ae + db),
                          1.01 * count * (model * (ae + db) + ae + db + 1.0), delta))
    scales = []
    by_column = sums[2:].reshape(len(columns), 4, *sums.shape[1:])
    for (v0, v1, a0, a1), total in zip(by_column, totals):
        total = np.where(live, total, 0.0)
        gross, margins = (ag + db) * total, model * total
        scales.append(cell(gh * a0 + sign * (a1 / delta), gross, margins))
        cells.append(cell(gh * v0 + sign * (v1 / delta), gross, margins,
                          reference=scales[-1][0]))
    if magnitudes:
        cells += scales
    values, accept = zip(*cells)
    return np.array(values), np.array(accept) & found
