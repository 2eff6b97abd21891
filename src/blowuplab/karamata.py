"""Boundary weight kernels and the blow-up profile function.

A weight kernel k is a positive monotone function on (0, mu) whose primitive
K satisfies (K/k)'(0+) = ell in (0, inf).  The kernel measures how the
absorption weight degenerates (or blows up) at the boundary; ell is the shape
parameter every rate formula depends on.

The blow-up profile is the decreasing function phi defined by

    integral_{phi(t)}^inf  ds / (p' F(s))**(1/p)  =  t,      p' = p/(p-1),

where F is the primitive of the absorption f.  The boundary rate of a
blow-up solution is phi(K(d)) up to an explicit constant.  Differentiating
gives phi' = -(p' F(phi))**(1/p) with phi(0+) = inf, so phi is the blow-down
curve of g = (p' F)**(1/p), and ``BlowupProfile`` is a
``blowdown.BlowdownCurve`` that inverts its tail time T, never time-stepping
from infinity.  It supplies only the integrand (p' F)**(-1/p), the closed
form of T for a pure power, and the table of T(2**k) built once per
absorption and p (``quadutil.TailTable``); the checks, the inversion and
the quadrature outside the table are the curve's.

The effective absorption  (k o K^{-1} o phi^{-1})(s)**p * f(s)  transfers
the kernel's boundary degeneracy onto the absorption; its growth index is
q = rho - (rho - p + 1)(1 - ell).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .blowdown import BlowdownCurve
from .errors import ConfigError, DomainError, NumericsError
from .extrapolation import LadderLimit, aitken_limit, geometric_ladder
from .nonlinearity import TABLE_KMIN, Nonlinearity, blowup_order, primitive, primitive_table_top
from .quadutil import TailTable, brentq, integral_on_interval, upper_tail_integral


@dataclass(frozen=True)
class WeightKernel:
    """Positive monotone kernel on (0, mu) with declared limit (K/k)'(0+)."""

    name: str
    func: Callable[[float], float]
    monotonicity: str  # "non-increasing" | "non-decreasing" | "constant"
    limit: float  # declared value of (K/k)'(0+)
    support: float  # mu; must cover the domain diameter
    primitive_closed: Callable[[float], float] | None = None
    primitive_inverse_closed: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.limit <= 0.0 or not np.isfinite(self.limit):
            raise ConfigError(f"kernel limit must lie in (0, inf), got {self.limit:g}")
        if self.monotonicity == "non-decreasing" and self.limit > 1.0 + 1e-12:
            raise ConfigError("non-decreasing kernels have limit in (0, 1]")
        if self.monotonicity == "non-increasing" and self.limit < 1.0 - 1e-12:
            raise ConfigError("non-increasing kernels have limit >= 1")
        if self.monotonicity not in ("non-increasing", "non-decreasing", "constant"):
            raise ConfigError(f"unknown monotonicity {self.monotonicity!r}")

    def __call__(self, s):
        return self.func(s)


def const_kernel(support: float = float("inf")) -> WeightKernel:
    """k = 1: no boundary degeneracy, limit 1."""
    return WeightKernel(
        name="const",
        func=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        monotonicity="constant",
        limit=1.0,
        support=support,
        primitive_closed=lambda s: np.asarray(s, dtype=float),
        primitive_inverse_closed=lambda y: np.asarray(y, dtype=float),
    )


def power_kernel(gamma: float, support: float = float("inf")) -> WeightKernel:
    """k(s) = s**gamma with gamma > -1 (so k is integrable near 0)."""
    if gamma <= -1.0:
        raise ConfigError(f"power kernel needs gamma > -1 for integrability, got {gamma:g}")
    if gamma == 0.0:
        return const_kernel(support)
    mono = "non-decreasing" if gamma > 0.0 else "non-increasing"
    c = gamma + 1.0
    return WeightKernel(
        name=f"power({gamma:g})",
        func=lambda s: np.asarray(s, dtype=float) ** gamma,
        monotonicity=mono,
        limit=1.0 / c,
        support=support,
        primitive_closed=lambda s: np.asarray(s, dtype=float) ** c / c,
        primitive_inverse_closed=lambda y: (c * np.asarray(y, dtype=float)) ** (1.0 / c),
    )


_KERNEL_RE = re.compile(r"^\s*(?:(const)|(power)\s*\(\s*([-+0-9.eE]+)\s*\))\s*$")


def make_kernel(key: str, support: float = float("inf")) -> WeightKernel:
    """Build a named kernel: "const" or "power(gamma)"."""
    m = _KERNEL_RE.match(key)
    if not m:
        raise ConfigError(f"unknown kernel key {key!r} (expected const or power(gamma))")
    if m.group(1):
        return const_kernel(support)
    return power_kernel(float(m.group(3)), support)


def kernel_primitive(kernel: WeightKernel, s):
    """K(s), the primitive of the kernel from 0; strictly increasing.

    A float for a scalar s, else an array: the closed form in one vectorized
    call when the kernel declares one, otherwise one quadrature per element.
    """
    arr = np.asarray(s, dtype=float)
    outside = ~((arr > 0.0) & (arr < kernel.support))
    if outside.any():
        raise DomainError(f"primitive argument must lie in (0, {kernel.support:g}), "
                          f"got {arr[outside][0]:g}")
    if kernel.primitive_closed is not None:
        out = np.asarray(kernel.primitive_closed(arr), dtype=float)
    else:
        # kernels are integrable near 0 but may be singular there; split off a power tail
        out = np.array([integral_on_interval(kernel.func, 0.0, float(v)) for v in arr.flat])
        out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def kernel_primitive_inverse(kernel: WeightKernel, y: float) -> float:
    if kernel.primitive_inverse_closed is not None:
        s = float(kernel.primitive_inverse_closed(y))
        if not 0.0 < s < kernel.support:
            raise DomainError(f"primitive inverse lands outside (0, mu): {s:g}")
        return s
    top = kernel.support * (1.0 - 1e-12)
    if not 0.0 < y < kernel_primitive(kernel, top):
        raise DomainError(f"value {y:g} outside the range of the kernel primitive")
    return float(brentq(lambda s: kernel_primitive(kernel, s) - y, 1e-300, top, rtol=1e-13))


def limit_estimate(kernel: WeightKernel) -> LadderLimit:
    """Extrapolated limit of (K/k)'(s) as s -> 0+, by central differences.

    Must agree with the declared limit within 1e-3; the ladder (geometric,
    ratio 2) and its last iterates are returned as convergence evidence.
    """

    def ratio_derivative(s: float) -> float:
        h = 0.25 * s
        g = lambda x: kernel_primitive(kernel, x) / float(kernel.func(x))
        return (g(s + h) - g(s - h)) / (2.0 * h)

    ladder = geometric_ladder(1e-2, 0.5, 16)
    vals = np.array([ratio_derivative(s) for s in ladder])
    if not np.all(np.isfinite(vals)):
        raise NumericsError("limit extrapolation diverged: non-finite samples")
    est = aitken_limit(vals)
    if abs(est.value - kernel.limit) > 1e-3:
        raise NumericsError(
            f"estimated limit {est.value:.6g} disagrees with declared {kernel.limit:g}"
        )
    return est


class BlowupProfile(BlowdownCurve):
    """phi, the blow-down curve of g = (p' F)**(1/p).

    ``tail_time`` is its first integral T(y) = integral_y^inf (p' F(s))**(-1/p) ds,
    and ``value`` inverts it.  Outside the table's trusted nodes T is an
    adaptive quadrature matched to the decay index (rho + 1)/p.
    """

    def __init__(self, nl: Nonlinearity, p: float):
        if p <= 1.0:
            raise DomainError(f"p must exceed 1, got {p:g}")
        self.nl = nl
        self.p = float(p)
        self.p_conj = p / (p - 1.0)
        super().__init__(self._g, index=(nl.index + 1.0) / p,
                         name=f"the profile of {nl.name} at p = {p:g}")
        if nl.primitive_power is not None:
            coef, expo = nl.primitive_power
            a = expo / p
            self._closed = ((self.p_conj * coef) ** (-1.0 / p) / (a - 1.0), a - 1.0)

    def _g(self, s):
        return (self.p_conj * primitive(self.nl, s)) ** (1.0 / self.p)

    def _integrand(self, s):
        return (self.p_conj * primitive(self.nl, s)) ** (-1.0 / self.p)

    def _tail_sources(self):
        return _tail_time_table(self.nl, self.p), upper_tail_integral

    def _inverted(self):
        return self.tail_time

    # T is the first integral G of g, under the name that callers and bench/tracing.py use
    tail_time = BlowdownCurve.first_integral


@lru_cache(maxsize=32)
def _profile(nl: Nonlinearity, p: float) -> BlowupProfile:
    return BlowupProfile(nl, p)


@lru_cache(maxsize=32)
def _tail_time_table(nl: Nonlinearity, p: float) -> TailTable:
    """T at the nodes 2**k up to the node below the top of F's table, so that
    every panel reads F from that table."""
    prof = _profile(nl, p)
    return TailTable(prof._integrand, prof.decay, TABLE_KMIN, primitive_table_top(nl) - 1)


def profile_value(nl: Nonlinearity, p: float, t):
    """phi(t) for absorption nl at diffusion exponent p."""
    return _profile(nl, p).value(t)


def profile_inverse(nl: Nonlinearity, p: float, s: float) -> float:
    """The unique t with phi(t) = s (phi is strictly decreasing)."""
    return _profile(nl, p).tail_time(s)


def effective_absorption(nl: Nonlinearity, kernel: WeightKernel, p: float, s):
    """(k o K^{-1} o phi^{-1})(s)**p * f(s): absorption with the kernel folded in."""
    prof = _profile(nl, p)

    def scalar(sv: float) -> float:
        t = prof.tail_time(sv)
        x = kernel_primitive_inverse(kernel, t)
        return float(kernel.func(x)) ** p * float(nl.func(sv))

    arr = np.asarray(s, dtype=float)
    if arr.ndim == 0:
        return scalar(float(arr))
    return np.array([scalar(v) for v in arr])


def index_gate_bound(rho: float, p: float, ell: float) -> float:
    """The lower bound max{1, p-1, p-1-(p-2)/ell} that the growth index must exceed."""
    return max(1.0, p - 1.0, p - 1.0 - (p - 2.0) / ell)


def effective_index(rho: float, p: float, ell: float) -> float:
    """Growth index q = rho - (rho - p + 1)(1 - ell) of the effective absorption."""
    bound = index_gate_bound(rho, p, ell)
    if rho <= bound:
        raise ConfigError(
            f"index gate violated: rho = {rho:g} must exceed max{{1, p-1, p-1-(p-2)/ell}} = {bound:g}"
        )
    q = rho - (rho - p + 1.0) * (1.0 - ell)
    if q <= max(1.0, p - 1.0):
        raise ConfigError(f"derived index q = {q:g} fails q > max{{1, p-1}}")
    return q


@dataclass(frozen=True)
class DecayEvidence:
    """Ratio ladder for the profile/kernel decay check near the boundary."""

    s_values: np.ndarray
    ratios: np.ndarray
    exponent: float
    decreasing: bool


def profile_decay_ratio(
    kernel: WeightKernel,
    nl: Nonlinearity,
    p: float,
    exponent: float,
    s_values,
) -> DecayEvidence:
    """Evidence that phi(K(s))**(-exponent) / k(s)**p vanishes as s -> 0+.

    The exponent must lie strictly inside (p(1-ell)/(r-1), rho-1), with an
    explicit 1e-9 margin for the open interval.
    """
    r = blowup_order(nl.index, p)
    lo = p * (1.0 - kernel.limit) / (r - 1.0)
    hi = nl.index - 1.0
    margin = 1e-9
    if not (lo + margin < exponent < hi - margin):
        raise ConfigError(
            f"decay exponent {exponent:g} outside admissible window ({lo:g}, {hi:g})"
        )
    s = np.asarray(s_values, dtype=float)
    if np.any(np.diff(s) >= 0.0):
        raise DomainError("s_values must decrease toward 0")
    # one call inverts the whole ladder against one set of tail-time values
    phi = _profile(nl, p).value(kernel_primitive(kernel, s))
    ratios = np.array(
        [float(v) ** (-exponent) / float(kernel.func(sv)) ** p for v, sv in zip(phi, s)]
    )
    return DecayEvidence(
        s_values=s,
        ratios=ratios,
        exponent=exponent,
        decreasing=bool(np.all(np.diff(ratios) < 0.0)),
    )


def cap_ceiling(
    nl: Nonlinearity,
    p: float,
    kernel: WeightKernel,
    amplitude: float,
    d_domain,
    d_mesh,
    dt_first: float | None = None,
    margin: float = 4.0,
) -> float:
    """Cap scale beyond which a capped approximation stops moving on resolved scales.

    On a fixed mesh the capped family has no nodal limit: the flux from the
    capped boundary inflates the first cells like sqrt(cap) forever, an
    excess mode that decays inward like (first-cell distance)/d.  The finite
    counterpart of the infinite-data limit is therefore to raise the cap
    until it dominates the blow-up profile at the first resolved cell (both
    the boundary profile phi and, for evolution problems, the space-free
    curve at the first time step), and stop there.

    ``amplitude`` is the weight's amplitude, ``d_domain`` the distance to the
    true boundary (driving the weight), ``d_mesh`` the distance to the capped
    mesh boundary (driving the local layer); they differ on shrunken subdomains.
    """
    d_domain = np.atleast_1d(np.asarray(d_domain, dtype=float))
    d_mesh = np.atleast_1d(np.asarray(d_mesh, dtype=float))
    k = np.asarray(kernel.func(d_domain), dtype=float)
    K = kernel_primitive(kernel, d_domain)
    # numpy's power, not Python's: the two differ in the last bit for some amplitudes
    local = np.asarray(amplitude, dtype=float) ** (1.0 / p) * k * d_mesh
    arg = np.minimum(K, np.maximum(local, 1e-300))
    # phi is decreasing, so its largest nodal value is phi at the smallest argument
    top = float(_profile(nl, p).value(arg.min()))
    if dt_first is not None:
        b_min = float(np.min(amplitude * k ** p))
        if b_min > 0.0:
            top += BlowdownCurve(nl).value(b_min * dt_first)
    return margin * top


@dataclass(frozen=True)
class AbsorptionWeight:
    """The weight b = amplitude * k(d)**p of the absorption, d the boundary distance.

    The amplitude is beta of the rate formulas: one positive, finite number,
    so b is independent of time and both problems compute it once.
    """

    kernel: WeightKernel
    amplitude: float

    def __post_init__(self):
        a = float(self.amplitude)
        if not 0.0 < a < np.inf:
            raise ConfigError(f"weight amplitude must be positive and finite, got {a:g}")
        object.__setattr__(self, "amplitude", a)

    def values(self, d, p: float):
        """b at boundary distances d (a distance 0 counts as 1e-300)."""
        k = self.kernel.func(np.maximum(np.asarray(d, dtype=float), 1e-300))
        return self.amplitude * np.asarray(k, dtype=float) ** p


def constant_weight(kernel: WeightKernel, amplitude: float = 1.0) -> AbsorptionWeight:
    """The weight amplitude * k(d)**p."""
    return AbsorptionWeight(kernel=kernel, amplitude=amplitude)
