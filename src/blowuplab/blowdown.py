"""Blow-down curves: w' = -g(w) with infinite initial data.

The solution is never time-stepped from a large cap (that would carry an
initial-layer error of order cap**(1-gamma)).  Instead it is represented
through the first integral

    G(w) = integral_w^inf h(s) ds,      h = 1/g ~ s**(-decay),

which satisfies G(w(t)) = t exactly, so w(t) = G^{-1}(t).  For a pure power
G = a w**(-e) and w(t) = (a/t)**(1/e); for any other Nonlinearity, G is read
from a table of G(2**k) built once per absorption (``quadutil.TailTable``),
so each evaluation is one Gauss-Legendre panel; for a plain callable g, and
outside the table, G is an adaptive tail quadrature.  Either way G is
inverted by bracketing and Brent's method, all times of one ``value`` call
against one set of values of G (``quadutil.invert_decreasing``).  The tail
integral demands g to grow faster than linearly; the growth index is either
declared or measured on the fly.  The blow-up profile phi is the blow-down
curve of g = (p' F)**(1/p), so ``karamata.BlowupProfile`` is a ``BlowdownCurve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .extrapolation import LadderLimit, aitken_limit
from .nonlinearity import TABLE_KMAX, TABLE_KMIN, Nonlinearity, rv_index_estimate
from .quadutil import TailTable, invert_decreasing, upper_tail_integral


class BlowdownCurve:
    """Decreasing curve w(t) with w' = -g(w) and w(0+) = infinity: ``value``
    inverts ``first_integral``, G.  A subclass supplies its own h, closed form
    and table through ``_integrand``, ``_closed`` and ``_tail_sources``."""

    def __init__(self, g, index: float | None = None, name: str = "blowdown"):
        self._closed = None  # (a, e) when G(w) = a * w**(-e) exactly
        self._nl = None  # the absorption whose table of G serves first_integral
        power = None
        if isinstance(g, Nonlinearity):
            nl, g = g, g.func
            index = nl.index if index is None else index
            name = nl.name
            if nl.primitive_power is None:
                self._nl = nl
            else:
                power = nl.primitive_power
        if index is None:
            index = rv_index_estimate(g)
        if index <= 1.0 + 1e-12:
            raise ConfigError(
                f"growth index {index:g} of {name} makes the tail of 1/g non-integrable"
            )
        self.g = g
        self.decay = float(index)  # of h = 1/g
        self.name = name
        if power is not None:
            coef, expo = power  # g = c * w**rho with rho = expo - 1 and c = coef * expo
            rho = expo - 1.0
            self._closed = (1.0 / ((rho - 1.0) * coef * expo), rho - 1.0)

    def _integrand(self, s: float) -> float:
        try:
            return 1.0 / float(self.g(s))
        except ZeroDivisionError:
            raise NumericsError(f"g of {self.name} underflows to 0 at s = {s:g}, "
                                f"so 1/g has no finite value there") from None

    def _tail_sources(self):
        """The table of G (or None) and the tail quadrature, looked up in this
        module at each call so that replacing either here reaches every curve."""
        table = None if self._nl is None else _first_integral_table(self._nl, self.decay)
        return table, upper_tail_integral

    def _inverted(self):
        """The bound method that ``value`` inverts."""
        return self.first_integral

    def first_integral(self, w: float) -> float:
        """G(w) = integral of h from w to infinity: the closed form for a pure
        power, else from the table of G where there is one, else (and outside
        the table) by adaptive quadrature."""
        if w <= 0.0:
            raise DomainError(f"first integral of {self.name} needs w > 0, got {w:g}")
        if self._closed is not None:
            a, e = self._closed
            return a * w ** -e
        table, quadrature = self._tail_sources()
        t = None if table is None else table(w)
        return quadrature(self._integrand, w, self.decay) if t is None else t

    def value(self, t):
        """w(t): (a/t)**(1/e) for a pure power, else G^{-1}(t) by bracketing and Brent."""
        arr = np.asarray(t, dtype=float)
        bad = ~((arr > 0.0) & (arr < np.inf))
        if bad.any():
            raise DomainError(f"argument of {self.name} must be positive and finite, "
                              f"got {arr[bad][0]:g}")
        if self._closed is not None:
            a, e = self._closed
            with np.errstate(over="ignore"):
                out = (a / arr) ** (1.0 / e)
            if not np.all(np.isfinite(out)):
                raise NumericsError(f"value of {self.name} overflows at t = {arr.min():g}")
        else:
            out = invert_decreasing(self._inverted(), arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def ode_residual(self, t: float) -> float:
        """Relative defect of w' = -g(w) measured by central differences."""
        h = 1e-4 * t
        dw = (self.value(t + h) - self.value(t - h)) / (2.0 * h)
        rhs = float(self.g(self.value(t)))
        return abs(dw + rhs) / abs(rhs)

    def __call__(self, t):
        return self.value(t)


@lru_cache(maxsize=32)
def _first_integral_table(nl: Nonlinearity, index: float) -> TailTable:
    """G at the nodes 2**k, TABLE_KMIN <= k <= TABLE_KMAX (the span of F's table)."""
    return TailTable(lambda s: 1.0 / nl.func(s), index, TABLE_KMIN, TABLE_KMAX)


def solve_blowdown(g, t, index: float | None = None):
    """Value at time t of the blow-down curve for absorption g."""
    return BlowdownCurve(g, index=index).value(t)


@dataclass(frozen=True)
class RatioEvidence:
    """v(t)/w(t) along a decreasing time ladder plus its extrapolated limit."""

    times: np.ndarray
    ratios: np.ndarray
    limit: LadderLimit

    @property
    def sup(self) -> float:
        return float(np.max(self.ratios))

    @property
    def inf(self) -> float:
        return float(np.min(self.ratios))


def equivalence_check(g, h, t_ladder, g_index: float | None = None, h_index: float | None = None) -> RatioEvidence:
    """Compare the blow-down curves of g and h along t -> 0+.

    When g/h -> 1 at infinity the ratio of curves tends to 1; the evidence
    carries the raw ladder and the Aitken-extrapolated limit.
    """
    times = np.asarray(t_ladder, dtype=float)
    if np.any(np.diff(times) >= 0.0) or np.any(times <= 0.0):
        raise DomainError("t_ladder must be positive and strictly decreasing")
    cg = BlowdownCurve(g, index=g_index, name="numerator")
    ch = BlowdownCurve(h, index=h_index, name="denominator")
    ratios = cg.value(times) / ch.value(times)
    return RatioEvidence(times=times, ratios=ratios, limit=aitken_limit(ratios))


def two_scale_equivalence(g, h, c: float, t_ladder, g_index: float | None = None, h_index: float | None = None) -> RatioEvidence:
    """Bounded-ratio evidence for v' = -g(c v) h(v) versus w' = -g(w) h(w).

    Both right-hand sides must jointly grow superlinearly; the ratio w/v
    stays within fixed positive bounds on the ladder.
    """
    if c <= 0.0:
        raise DomainError(f"scale factor must be positive, got {c:g}")
    gi = rv_index_estimate(g) if g_index is None else g_index
    hi = rv_index_estimate(h) if h_index is None else h_index
    if gi + hi <= 1.0 + 1e-12:
        raise ConfigError(f"combined growth index {gi + hi:g} must exceed 1")
    scaled = BlowdownCurve(lambda u: float(g(c * u)) * float(h(u)), index=gi + hi, name="scaled")
    plain = BlowdownCurve(lambda u: float(g(u)) * float(h(u)), index=gi + hi, name="plain")
    times = np.asarray(t_ladder, dtype=float)
    if np.any(np.diff(times) >= 0.0) or np.any(times <= 0.0):
        raise DomainError("t_ladder must be positive and strictly decreasing")
    ratios = plain.value(times) / scaled.value(times)
    ev = RatioEvidence(times=times, ratios=ratios, limit=aitken_limit(ratios))
    if not (np.isfinite(ev.sup) and ev.inf > 0.0):
        raise NumericsError("two-scale ratio left (0, inf)")
    return ev
