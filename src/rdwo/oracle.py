"""Search-based certification of the closed-form weights.

Both maximizers climb one objective, :func:`signed_objective`,
``(delta - sum |w_k| d_k) / ||w||`` with ``d_k = |x - phi_k|``, over weights
that sum to one.  The simplex form keeps them nonnegative, where the
objective equals :func:`rdwo.core.simplex_objective`; the signed form lets
them take any sign.  Neither knows the closed form.  An instance is a query
``x``, an array of regressors and an :class:`~rdwo.core.EstimatorConfig`.

The climber is pair coordinate ascent with an exact line search, the move of
Platt's SMO (Sequential Minimal Optimization, 1998): mass ``t`` moves from
``w_i`` to ``w_j``, and ``t`` is the best point of the whole feasible line.
The objective is quasi-concave on both domains (for ``c >= 0`` the set
``{w : delta - sum |w| d >= c ||w||}`` is convex), and any feasible direction
splits into pair moves, so a point of positive objective that no pair move
improves is the global maximum and one start at uniform weights is enough.
Meant for small instances only, as an independent check of the algebraic
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import EstimatorConfig, NoSupportError

__all__ = [
    "OracleForm",
    "OracleResult",
    "signed_objective",
    "maximize_simplex",
    "maximize_signed",
    "random_instance",
    "MAX_ORACLE_SAMPLES",
]

MAX_ORACLE_SAMPLES = 12


class OracleForm(Enum):
    SIMPLEX = "simplex"
    SIGNED = "signed"


@dataclass(frozen=True)
class OracleResult:
    """Best point found by a maximizer.

    ``evaluations`` counts objective evaluations spent, never exceeding the
    budget the maximizer was called with.
    """

    weights: tuple[float, ...]
    objective: float
    evaluations: int
    form: OracleForm


def signed_objective(weights, x: float, phis: np.ndarray, config: EstimatorConfig) -> float:
    """Signed-form accuracy objective ``(delta - sum |w_k| d_k) / ||w||`` of a
    weight vector of any signs, positional over ``phis``, with
    ``d_k = |x - phi_k|``; the sums run in sample order."""
    d = np.abs(x - np.asarray(phis, dtype=float)).tolist()
    num = config.delta - sum(abs(wk) * dk for wk, dk in zip(weights, d))
    return float(num / math.sqrt(sum(wk * wk for wk in weights)))


def _line_candidates(wi, wj, di, dj, rest, b, signed):
    """Transfers ``t`` (``w_i -= t``, ``w_j += t``) that hold the line's best.

    The line splits at ``t = w_i`` and ``t = -w_j`` into pieces on which the
    signs of ``w_i - t`` and ``w_j + t`` stay fixed; on the simplex only the
    middle piece is feasible.  On a piece the numerator is ``a + p*t`` and
    ``sum w^2`` is ``b + 2*q*t + 2*t^2``, whose ratio is stationary at
    ``t* = (a*q - p*b) / (p*q - 2*a)``; ``t*`` clipped to each piece and the
    piece ends are the candidates.  ``rest`` is the numerator without the
    pair's two terms.
    """
    lo, hi = sorted((-wj, wi))
    pieces = [(lo, hi, 0.5 * (lo + hi))]
    if signed:
        pieces += [(-math.inf, lo, lo - 1.0), (hi, math.inf, hi + 1.0)]
    q = wj - wi
    candidates = {lo, hi}
    for start, stop, inner in pieces:
        si = 1.0 if inner < wi else -1.0
        sj = 1.0 if inner > -wj else -1.0
        a = rest - si * wi * di - sj * wj * dj
        p = si * di - sj * dj
        den = p * q - 2.0 * a
        if den != 0.0:
            candidates.add(min(max((a * q - p * b) / den, start), stop))
    candidates.discard(0.0)
    return sorted(candidates)


def _maximize(x, phis, config, budget, form: OracleForm) -> OracleResult:
    phis = np.asarray(phis, dtype=float)
    n = phis.size
    if phis.ndim != 1 or n == 0:
        raise ValueError("phis must be a nonempty 1-D array")
    if n > MAX_ORACLE_SAMPLES:
        raise ValueError(f"oracle search is limited to {MAX_ORACLE_SAMPLES} samples, got {n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    d = np.abs(x - phis).tolist()
    if not all(map(math.isfinite, d)):
        raise ValueError("x and phis must be finite")
    delta = config.delta
    if delta - min(d) <= 0.0:
        raise NoSupportError(f"no sample strictly inside the window around x={x!r}")
    signed = form is OracleForm.SIGNED
    w = [1.0 / n] * n
    used = 1
    gain = True
    while gain and used < budget:
        gain = False
        # Fresh sums once a sweep, so incremental rounding cannot pile up.
        num = delta - sum(abs(wk) * dk for wk, dk in zip(w, d))
        sq = sum(wk * wk for wk in w)
        cur = num / math.sqrt(sq)
        for i in range(n):
            for j in range(i + 1, n):
                wi, wj, di, dj = w[i], w[j], d[i], d[j]
                rest = num + abs(wi) * di + abs(wj) * dj
                best, best_t = cur, 0.0
                for t in _line_candidates(wi, wj, di, dj, rest, sq, signed):
                    if used >= budget:
                        break
                    used += 1
                    value = (rest - abs(wi - t) * di - abs(wj + t) * dj) / math.sqrt(
                        sq + 2.0 * t * (wj - wi) + 2.0 * t * t
                    )
                    if value > best:
                        best, best_t = value, t
                if best > cur + 1e-15 * (1.0 + abs(cur)):
                    w[i], w[j] = wi - best_t, wj + best_t
                    num = rest - abs(w[i]) * di - abs(w[j]) * dj
                    sq += w[i] * w[i] + w[j] * w[j] - wi * wi - wj * wj
                    cur = best
                    gain = True
    return OracleResult(
        weights=tuple(w),
        objective=signed_objective(w, x, phis, config),
        evaluations=used,
        form=form,
    )


def maximize_simplex(
    x: float, phis: np.ndarray, config: EstimatorConfig, *, budget: int = 100_000
) -> OracleResult:
    """Maximize the objective over nonnegative weights summing to one,
    positional over ``phis``."""
    return _maximize(x, phis, config, budget, OracleForm.SIMPLEX)


def maximize_signed(
    x: float, phis: np.ndarray, config: EstimatorConfig, *, budget: int = 100_000
) -> OracleResult:
    """Maximize the objective over weights of any sign summing to one.

    The signed optimum never exceeds the simplex optimum, which
    certification leans on.
    """
    return _maximize(x, phis, config, budget, OracleForm.SIGNED)


def random_instance(
    rng: np.random.Generator, n_samples: int | None = None
) -> tuple[float, np.ndarray, EstimatorConfig]:
    """One random problem instance ``(x, phis, config)`` with a guaranteed
    nonempty active set.

    The window half-width, query point, and regressors are drawn so that
    roughly half the samples land inside the window; draws are repeated until
    at least one does.  The weights need no outputs, so none are drawn.
    """
    if n_samples is None:
        n = int(rng.integers(2, MAX_ORACLE_SAMPLES + 1))
    else:
        n = int(n_samples)
        if not 1 <= n <= MAX_ORACLE_SAMPLES:
            raise ValueError(f"n_samples must be in [1, {MAX_ORACLE_SAMPLES}], got {n}")
    delta = float(rng.uniform(0.5, 1.5))
    x = float(rng.uniform(-1.0, 1.0))
    while True:
        phis = rng.uniform(x - 2.0 * delta, x + 2.0 * delta, size=n)
        if np.any(np.abs(x - phis) < delta):
            break
    return x, phis, EstimatorConfig(delta=delta, l1=1.0)
