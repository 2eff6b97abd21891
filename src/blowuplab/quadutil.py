"""Quadrature helpers for tail integrals of power-law-decaying integrands,
the Gauss-Legendre rule of tabulated primitives, dyadic tables of tail
integrals, and the inversion of the decreasing functions they define.

Adaptive quadrature and root finding call scipy's compiled QUADPACK
``qagse`` (``scipy.integrate._quadpack``) and Brent's method
(``scipy.optimize._zeros``) through ``quad`` and ``brentq`` below, which do
what scipy's functions of those names do for the arguments used here.  Each
extension is loaded by ``scipyext.load_extension`` on first use, so a
pure-power run, whose profile, blow-down curve and tail check are closed
forms, loads neither, and no run pays the package inits of
``scipy.integrate``, ``scipy.optimize``, ``scipy.special`` and
``scipy.linalg`` that ``from scipy.integrate import quad`` would run.  The
first ``_qagse`` or ``_brentq`` call imports ``scipy._lib._ccallback``, and
with it ``scipy``'s own init: a power_log run pays those 13-16 ms at its
first quadrature, a pure-power run never.  Where QUADPACK stops short of its
tolerance, ``quad`` warns with ``errors.QuadratureWarning``.

``upper_tail_integral`` sets numpy's error state once per quadrature, not at
each integrand call QUADPACK makes (21 or more per quadrature), and treats a
NaN integrand as an error, not as a 0 contribution.

``invert_decreasing`` inverts all times of one call against one dict of the
function's values, so each abscissa their bracket walks share costs one
evaluation per call.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError, QuadratureWarning
from .scipyext import load_extension

QUAD_LIMIT = 200  # subintervals of an adaptive quadrature
QUAD_WARN_IER = (1, 2, 3, 4, 5, 7)  # QUADPACK codes on which scipy's quad warns
BRENT_XTOL, BRENT_MAXITER = 2e-12, 100  # scipy's brentq defaults


def quad(func, a: float, b: float, *, epsrel: float) -> tuple[float, float]:
    """``int_a^b func`` and its error estimate, for finite a and b.

    QUADPACK's ``qagse`` with epsabs = 0 and ``QUAD_LIMIT`` subintervals, as
    scipy's ``quad`` calls it: 0 for a == b, the sign flipped for b < a, a
    ``QuadratureWarning`` where scipy warns (the estimate is still returned)
    and a DomainError (a ValueError, as scipy raises) on any other failure
    code, such as ier 6 for an epsrel below 50 machine epsilons.
    """
    if a == b:
        return 0.0, 0.0
    flip, a, b = b < a, min(a, b), max(a, b)
    qagse = load_extension("scipy.integrate._quadpack")._qagse
    val, err, ier = qagse(func, a, b, (), 0, 0.0, epsrel, QUAD_LIMIT)
    if ier in QUAD_WARN_IER:
        warnings.warn(f"adaptive quadrature stopped short of epsrel = {epsrel:g} "
                      f"(QUADPACK ier = {ier})", QuadratureWarning, stacklevel=2)
    elif ier != 0:
        raise DomainError(f"QUADPACK rejected the quadrature (ier = {ier}, epsrel = {epsrel:g})")
    return (-val if flip else val), err


def brentq(func, a: float, b: float, *, rtol: float) -> float:
    """The root of ``func`` in [a, b], where its values at a and b differ in sign.

    Brent's method as scipy's ``brentq`` runs it, with xtol, maxiter
    (``BRENT_XTOL``, ``BRENT_MAXITER``) and disp=True: a ValueError for a
    bracket without a sign change or a NaN value of ``func``, a RuntimeError
    when it does not converge.
    """
    def checked(x: float) -> float:
        fx = func(x)
        if math.isnan(fx):  # as scipy's _wrap_nan_raise
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    brent = load_extension("scipy.optimize._zeros")._brentq
    return brent(checked, a, b, BRENT_XTOL, rtol, BRENT_MAXITER, (), 0, True)


def upper_tail_integral(func, lower: float, decay: float, *, epsrel: float = 1e-11) -> float:
    """Evaluate ``int_lower^inf func(s) ds`` for ``func ~ s**(-decay)``.

    ``decay`` must exceed 1 (integrable tail); it is used to pick the
    substitution s = lower * x**(-m) with m = 2/(decay-1), which turns the
    integrand into a smooth function on (0, 1] (exactly linear for a pure
    power law), so adaptive quadrature converges to near machine accuracy.

    numpy's overflow and invalid-value warnings are silenced once, around the
    whole quadrature, not at each integrand call: ``func`` runs under that
    error state.  Where s or the transformed value overflows to inf, the
    integrand counts as 0 (the far tail).  A NaN from ``func`` raises
    NumericsError naming s, and a decay so close to 1 that x**(-m) overflows
    a Python float raises NumericsError naming the decay.
    """
    if lower <= 0.0:
        raise DomainError(f"lower limit must be positive, got {lower:g}")
    if decay <= 1.0:
        raise DomainError(f"tail decay index must exceed 1 for integrability, got {decay:g}")
    m = 2.0 / (decay - 1.0)

    def transformed(x: float) -> float:
        try:
            s = lower * x ** (-m)
        except OverflowError:
            raise NumericsError(f"tail decay {decay:g} is too close to 1: the substitution "
                                f"s = {lower:g} * x**(-{m:g}) overflows at x = {x:g}") from None
        if not math.isfinite(s):
            return 0.0
        fs = func(s)
        v = fs * m * s / x
        if math.isfinite(v):
            return v
        if math.isnan(fs):
            raise NumericsError(f"integrand of the tail integral from {lower:g} is NaN at s = {s:g}")
        return 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        val, err = quad(transformed, 0.0, 1.0, epsrel=epsrel)
    if not np.isfinite(val):
        raise NumericsError(f"tail integral from {lower:g} did not converge")
    if err > max(1e3 * epsrel * abs(val), 1e-290):
        raise NumericsError(
            f"tail integral from {lower:g} has large error estimate {err:g} vs value {val:g}"
        )
    return float(val)


def integral_on_interval(func, a: float, b: float, *, epsrel: float = 1e-11) -> float:
    """Plain adaptive quadrature on [a, b] with a finiteness check."""
    val, _ = quad(func, a, b, epsrel=epsrel)
    if not np.isfinite(val):
        raise NumericsError(f"integral over [{a:g}, {b:g}] did not converge")
    return float(val)


@lru_cache(maxsize=8)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Each node is found by Newton's method on P_n, evaluated through the
    three-term recurrence, from the Chebyshev-like start cos(pi (k - 1/4) / (n + 1/2)).
    The rule integrates polynomials of degree <= 2n - 1 exactly.  The rule is
    computed once per n and shared, so its arrays are read-only.
    """
    def legendre(x: float) -> tuple[float, float]:  # P_n(x) and P_n'(x)
        p_prev, p = 1.0, x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    nodes, weights = [], []
    for k in range(n, 0, -1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) <= 1e-15:
                break
        dp = legendre(x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    x, w = np.array(nodes), np.array(weights)
    x.flags.writeable = w.flags.writeable = False
    return x, w


TAIL_RULE_POINTS = 20
# the closed top tail of a TailTable carries a relative error that vanishes
# only slowly (like 1/log X for a logarithmic factor); an entry is trusted once
# the tail above it has shrunk that error by this many binary digits
TAIL_TRUST_BITS = 40


class TailTable:
    """``int_y^inf h(s) ds`` for ``h ~ s**(-decay)``, read from a dyadic table.

    The entries are the tail integrals at the nodes 2**k, ``kmin <= k <= top``,
    summed panel by panel from the top down with a 20-point Gauss-Legendre
    rule.  ``top`` is the last node up to ``kmax`` below which ``h`` stays
    finite and positive (``h`` vectorized).  Above it the tail is closed by
    Karamata's theorem, ``int_X^inf h ~ X h(X) / (decay - 1)``.  That closure
    is exact only in the limit; its error is damped by the factor
    (y/X)**(decay - 1) at an entry y below X, so entries are trusted only
    ``TAIL_TRUST_BITS / (decay - 1)`` nodes below the top.  A value between
    trusted nodes adds one panel to the entry above it; ``None`` outside them.
    """

    def __init__(self, h, decay: float, kmin: int, kmax: int):
        if decay <= 1.0:
            raise DomainError(f"tail decay index must exceed 1 for integrability, got {decay:g}")
        self.h = h
        self.kmin = kmin
        nodes = np.exp2(np.arange(kmin, kmax + 1, dtype=float))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            h_nodes = np.asarray(h(nodes), dtype=float)
        bad = ~(np.isfinite(h_nodes) & (h_nodes >= np.finfo(float).tiny))
        top = int(np.argmax(bad)) - 1 if bad.any() else nodes.size - 1
        trusted = top - math.ceil(TAIL_TRUST_BITS / (decay - 1.0))
        if trusted <= 0:
            self.values = np.empty(0)
            return
        # one panel per call, so that an h built on a table of its own holds
        # no large temporary
        tails = [nodes[top] * h_nodes[top] / (decay - 1.0)]
        tails += [self._panel(a, 2.0 * a) for a in nodes[top - 1::-1]]
        self.values = np.cumsum(tails)[::-1][:trusted + 1]
        self.values.flags.writeable = False

    def _panel(self, a: float, b: float) -> float:
        x, w = gauss_legendre(TAIL_RULE_POINTS)
        half = 0.5 * (b - a)
        # a sum, not np.dot: a first BLAS call costs the process more memory than the table
        return float(half * (w * self.h(a + half * (1.0 + x))).sum())

    def __call__(self, y: float) -> float | None:
        """The tail integral from y > 0, or None when y lies outside the trusted nodes."""
        k = math.frexp(y)[1] - 1  # 2**k <= y < 2**(k+1)
        i = k - self.kmin
        if not 0 <= i < self.values.size - 1:
            return None
        return float(self.values[i + 1] + self._panel(y, math.ldexp(1.0, k + 1)))


def invert_decreasing(func, t):
    """The x > 0 with ``func(x) = t``, for ``func`` strictly decreasing on (0, inf).

    ``t`` is a scalar (a float is returned) or an array (one of its shape).
    Each root is bracketed by stepping from x = 1 by factors of 8 toward it,
    so the bracket spans one factor, and refined by Brent's method in log x.
    ``func`` is evaluated once per distinct abscissa of the call, through a
    dict dropped on return; each value is bit for bit that of its t alone.
    Raises DomainError when a t exceeds every value of ``func`` reached
    (t beyond func(0+)).
    """
    memo = {}

    def cached(x: float) -> float:
        fx = memo.get(x)
        if fx is None:
            fx = memo[x] = func(x)
        return fx

    arr = np.asarray(t, dtype=float)
    out = np.array([_invert_one(cached, tv) for tv in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _invert_one(func, t: float) -> float:
    """One root of ``invert_decreasing``: the bracket walk from x = 1, then Brent."""
    a = b = 1.0
    fa = fb = func(1.0)
    up = fa > t  # the root lies above 1
    step = 8.0 if up else 0.125
    for _ in range(300):
        if (fb <= t) if up else (fb >= t):
            break
        a, fa = b, fb
        b *= step
        fb = func(b)
    else:
        if up:
            raise NumericsError(f"failed to bracket the inverse at t = {t:g}")
        raise DomainError(f"t = {t:g} exceeds the range of the function (x would leave (0, inf))")
    # a bracket end can land exactly on the root (nice rational times)
    if abs(fa - t) <= 1e-13 * t:
        return a
    if abs(fb - t) <= 1e-13 * t:
        return b
    lo, hi = sorted((a, b))
    return math.exp(brentq(lambda L: func(math.exp(L)) - t, math.log(lo), math.log(hi), rtol=1e-14))
