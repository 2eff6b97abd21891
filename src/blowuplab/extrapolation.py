"""Limit extraction from geometric ladders.

Most quantities verified here are defined as limits (s -> 0+, u -> infinity,
t -> 0+).  We sample them on geometric ladders and accelerate with iterated
Aitken delta-squared, which annihilates a single geometric error mode exactly
and handles the slowly decaying log-type modes of slowly varying factors
reasonably well.  Every extrapolation reports its last iterates so callers can
expose convergence evidence instead of a bare number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

_TINY = 1e-300


@dataclass(frozen=True)
class LadderLimit:
    """Extrapolated limit of a sequence sampled on a ladder.

    ``uncertainty`` is the agreement between the selected acceleration level
    and its neighbour: the honest error bar of the extrapolation.
    """

    value: float
    iterates: np.ndarray  # acceleration diagonal around the selected level
    converged: bool
    uncertainty: float = np.inf

    def __float__(self) -> float:
        return self.value


def _aitken_core(s: np.ndarray):
    levels = [s]
    while len(levels[-1]) >= 3:
        cur = levels[-1]
        d2 = cur[2:] - 2.0 * cur[1:-1] + cur[:-2]
        scale = np.maximum(np.abs(cur[2:]), 1.0)
        nxt = cur[2:].copy()
        ok = np.abs(d2) > 1e-14 * scale
        num = (cur[2:] - cur[1:-1]) ** 2
        nxt[ok] = cur[2:][ok] - num[ok] / d2[ok]
        if not np.all(np.isfinite(nxt)):
            break
        levels.append(nxt)
    # Deep acceleration levels amplify noise once the signal is exhausted;
    # settle on the level where successive diagonal entries agree best.
    diagonal = np.array([lv[-1] for lv in levels])
    if diagonal.size == 1:
        return float(diagonal[0]), diagonal, np.array([np.inf]), 0
    deltas = np.abs(np.diff(diagonal))
    k = int(np.argmin(deltas)) + 1
    return float(diagonal[k]), diagonal, deltas, k


def aitken_limit(seq) -> LadderLimit:
    """Iterated Aitken delta-squared acceleration of ``seq``.

    The uncertainty combines the agreement of neighbouring acceleration
    levels with a jackknife over the ladder (re-extrapolating without the
    first and without the last rung): structureless sequences cannot fake
    both signals at once.
    """
    s = np.asarray(seq, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sequence must be a non-empty 1-d array")
    if not np.all(np.isfinite(s)):
        raise NumericsError("non-finite entries in extrapolation ladder")

    value, diagonal, deltas, k = _aitken_core(s)
    if k == 0:
        return LadderLimit(value=value, iterates=diagonal, converged=False,
                           uncertainty=np.inf)
    # error bar: the inter-level gap alone is pessimistic (the discarded level
    # is the worse estimate), the jackknife alone is optimistic (sub-ladders
    # share data); their geometric mean calibrates well on both counts
    uncertainty = float(deltas[k - 1])
    if s.size >= 5:
        v_head, *_ = _aitken_core(s[1:])
        v_tail, *_ = _aitken_core(s[:-1])
        jack = max(abs(value - v_head), abs(value - v_tail))
        uncertainty = float(np.sqrt(max(uncertainty * jack, 0.0)))
    raw_step = float(np.abs(s[-1] - s[-2])) if s.size >= 2 else 0.0
    scale = max(abs(value), 1e-30)
    settled = uncertainty <= 1e-9 * scale
    shrinking = k >= 2 and deltas[k - 1] <= 0.75 * deltas[k - 2]
    beat_raw = deltas[k - 1] <= 0.25 * raw_step
    converged = bool((settled or shrinking or beat_raw)
                     and _structured_tail(s, value, uncertainty))
    return LadderLimit(value=value, iterates=diagonal[max(0, k - 2):k + 1],
                       converged=converged, uncertainty=uncertainty)


def _structured_tail(s: np.ndarray, value: float, uncertainty: float) -> bool:
    """Residuals of the raw tail around the limit must look like modes, not noise.

    A ladder approaching its limit through geometric modes leaves residuals
    with a constant (or strictly alternating) sign pattern, or monotone
    magnitudes; independent scatter does neither.  Entries already within
    the uncertainty are treated as wildcards.
    """
    tail = s[-min(5, s.size):] - value
    if tail.size < 3:
        return True
    floor = max(2.0 * uncertainty, 1e-12 * max(abs(value), 1e-30))
    wild = np.abs(tail) <= floor
    live = np.sign(tail)[~wild]
    if live.size <= 1:
        return True
    constant = bool(np.all(live == live[0]))
    alternating = bool(np.all(live[1:] == -live[:-1]))
    mags = np.abs(tail)
    up = bool(np.all(np.diff(mags) >= -1e-12 * np.max(mags)))
    down = bool(np.all(np.diff(mags) <= 1e-12 * np.max(mags)))
    return constant or alternating or up or down


def geometric_ladder(start: float, ratio: float, count: int) -> np.ndarray:
    """``start * ratio**k`` for k = 0..count-1."""
    if count < 1:
        raise ValueError("count must be positive")
    return start * ratio ** np.arange(count, dtype=float)


def log_slope_limit(fn, start: float, *, toward: str, rungs: int = 18) -> LadderLimit:
    """Extrapolated log-log slope of ``fn`` toward 0+ or infinity.

    The slope between consecutive ladder points x and 2x (``toward='inf'``)
    or x and x/2 (``toward='zero'``) is accelerated with Aitken.  This
    measures the local power-law index of ``fn`` at the limit point.
    """
    if toward == "inf":
        xs = geometric_ladder(start, 2.0, rungs + 1)
    elif toward == "zero":
        xs = geometric_ladder(start, 0.5, rungs + 1)
    else:
        raise ValueError("toward must be 'zero' or 'inf'")
    vals = np.array([fn(x) for x in xs], dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        bad = xs[~(np.isfinite(vals) & (vals > 0.0))]
        raise NumericsError(f"function not finite/positive on ladder (first bad abscissa {bad[0]:g})")
    slopes = np.diff(np.log(vals)) / np.diff(np.log(xs))
    return aitken_limit(slopes)
