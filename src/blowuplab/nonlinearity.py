"""Absorption nonlinearities and their structural conditions.

An absorption term f must vanish at 0, be strictly increasing, and behave
like a power law of index rho at infinity (regular variation).  Downstream
rate formulas consume the declared index, so construction cross-checks it
against a measured value; a silent mismatch would corrupt every prediction.

The structural conditions are asymptotic or global statements, so they are
checked on a documented sample grid (default: 64 log-spaced points spanning
[1e-3, 1e8]) with an explicit tolerance, and the grid travels with the
report for reproducibility.

The primitive F is exact where a closed form is declared.  Otherwise F is
read from a table built once per nonlinearity: F at the nodes 2**k,
k = -30..300, summed panel by panel with a 20-point Gauss-Legendre rule
(one vectorized call of f), from F(2**-30) by adaptive quadrature.  A value
between nodes adds one Gauss-Legendre panel to the table entry below it;
an array of values takes one vectorized call of f for all its panels.
Below the first node, above the last node, and between the last finite
table entry and the first non-finite one, F falls back to adaptive
quadrature from 0.  F is inf where it overflows: from the first non-finite
table entry up, and wherever that quadrature overflows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .extrapolation import aitken_limit
from .quadutil import gauss_legendre, integral_on_interval, upper_tail_integral

MONOTONE_TOL = 1e-10
INDEX_MISMATCH_TOL = 1e-2

DEFAULT_GRID = np.geomspace(1e-3, 1e8, 64)
DEFAULT_INDEX_LADDER = np.geomspace(1e2, 1e8, 21)
# the eps in (0, 1) at which the scaling bound f(u) >= eps**-l f(eps*u) is sampled
SCALING_EPS = (0.5, 0.1, 0.01)

# the table of F spans the nodes 2**k, TABLE_KMIN <= k <= TABLE_KMAX
TABLE_KMIN, TABLE_KMAX = -30, 300
TABLE_RULE_POINTS = 20


@dataclass(frozen=True)
class Nonlinearity:
    """Strictly increasing absorption f with f(0) = 0 and declared growth index."""

    name: str
    index: float
    func: Callable[[float], float]
    deriv: Callable[[float], float]
    primitive_closed: Callable[[float], float] | None = None
    # (coef, exponent) when the primitive is exactly coef * u**exponent
    primitive_power: tuple[float, float] | None = None

    def __call__(self, u):
        return self.func(u)


def power(rho: float) -> Nonlinearity:
    """f(u) = u**rho."""
    if rho <= 0.0:
        raise ConfigError(f"power index must be positive, got {rho:g}")
    return Nonlinearity(
        name=f"power({rho:g})",
        index=rho,
        func=lambda u: np.asarray(u, dtype=float) ** rho,
        deriv=lambda u: rho * np.asarray(u, dtype=float) ** (rho - 1.0),
        primitive_closed=lambda u: np.asarray(u, dtype=float) ** (rho + 1.0) / (rho + 1.0),
        primitive_power=(1.0 / (rho + 1.0), rho + 1.0),
    )


def power_log(rho: float) -> Nonlinearity:
    """f(u) = u**rho * log(1 + u); same growth index, slowly varying factor."""
    if rho <= 0.0:
        raise ConfigError(f"power index must be positive, got {rho:g}")
    return Nonlinearity(
        name=f"power_log({rho:g})",
        index=rho,
        func=lambda u: np.asarray(u, dtype=float) ** rho * np.log1p(np.asarray(u, dtype=float)),
        deriv=lambda u: (
            rho * np.asarray(u, dtype=float) ** (rho - 1.0) * np.log1p(np.asarray(u, dtype=float))
            + np.asarray(u, dtype=float) ** rho / (1.0 + np.asarray(u, dtype=float))
        ),
    )


_KEY_RE = re.compile(r"^\s*(power_log|power)\s*\(\s*([-+0-9.eE]+)\s*\)\s*$")


def make_nonlinearity(key: str) -> Nonlinearity:
    """Build a named nonlinearity, e.g. "power(2)" or "power_log(3)"."""
    m = _KEY_RE.match(key)
    if not m:
        raise ConfigError(f"unknown nonlinearity key {key!r} (expected power(rho) or power_log(rho))")
    kind, arg = m.group(1), float(m.group(2))
    nl = power(arg) if kind == "power" else power_log(arg)
    validate_declared_index(nl)
    return nl


def primitive(nl: Nonlinearity, u):
    """F(u) = integral of f from 0 to u; a float for a scalar u, else an array.

    The closed form when one is declared; otherwise the table of F at the
    nodes 2**k plus one 20-point Gauss-Legendre panel from the node below u
    (one vectorized call of f for all table points), and adaptive quadrature
    from 0 for each u below 2**-30 or at and above the table's last node.
    Where F overflows inside the table, the panel from its last finite node
    serves up to the first non-finite one.  F is inf where it overflows: at
    and above the table's first non-finite node, and where a panel or the
    quadrature does.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError(f"primitive needs u >= 0, got {arr.min():g}")
    if nl.primitive_closed is not None:
        out = np.asarray(nl.primitive_closed(arr), dtype=float)
    else:
        table, n_finite = _primitive_table(nl)
        flat = arr.ravel()
        k = np.frexp(flat)[1] - 1  # 2**k <= u < 2**(k+1)
        i = k - TABLE_KMIN
        overflow = (i >= n_finite) & (n_finite < table.size)
        # panels start at finite nodes below the last node, and, where F
        # overflows in the table, at the last finite one too
        last = n_finite if n_finite < table.size else n_finite - 1
        inside = (flat > 0.0) & (i >= 0) & (i < last)
        out = np.zeros_like(flat)
        out[overflow] = np.inf
        if inside.any():
            x, w = gauss_legendre(TABLE_RULE_POINTS)
            a = np.ldexp(1.0, k[inside])
            half = 0.5 * (flat[inside] - a)
            with np.errstate(over="ignore"):  # F overflows in the last finite panel
                # a sum, not np.dot, for the reason given in _primitive_table
                panels = half * (w * nl.func(a[:, None] + half[:, None] * (1.0 + x))).sum(axis=1)
                out[inside] = table[i[inside]] + panels
        for j in np.flatnonzero(~inside & ~overflow & (flat > 0.0)):
            try:
                out[j] = integral_on_interval(nl.func, 0.0, float(flat[j]))
            except NumericsError:  # F overflows inside the quadrature
                out[j] = np.inf
        out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def primitive_table_top(nl: Nonlinearity) -> int:
    """The k of the last finite node 2**k of F's table."""
    return TABLE_KMIN + _primitive_table(nl)[1] - 1


@lru_cache(maxsize=32)
def _primitive_table(nl: Nonlinearity) -> tuple[np.ndarray, int]:
    """F at the nodes 2**k, TABLE_KMIN <= k <= TABLE_KMAX, and the number of
    finite entries: F is increasing, so they come first, and F overflows
    from the first non-finite node up."""
    x, w = gauss_legendre(TABLE_RULE_POINTS)
    lo = np.exp2(np.arange(TABLE_KMIN, TABLE_KMAX, dtype=float))  # left panel ends
    half = 0.5 * lo  # the panel [2**k, 2**(k+1)] has half-width 2**(k-1)
    with np.errstate(over="ignore", invalid="ignore"):
        f_vals = np.asarray(nl.func(lo[:, None] + half[:, None] * (1.0 + x)), dtype=float)
        # sums rather than BLAS products: a first BLAS call costs the process
        # more memory than the whole table
        panels = half * (f_vals * w).sum(axis=1)
        table = np.cumsum(np.concatenate(([integral_on_interval(nl.func, 0.0, lo[0])], panels)))
    table.flags.writeable = False  # shared by every caller
    return table, int(np.isfinite(table).sum())


def rv_index_estimate(nl, xi_probe: float = 2.0, u_ladder=None) -> float:
    """Growth index of f at infinity: log(f(xi*u)/f(u))/log(xi), extrapolated.

    ``nl`` may be a Nonlinearity or any positive callable.  Raises on
    non-finite evaluations, naming the offending abscissa.
    """
    if xi_probe <= 0.0 or xi_probe == 1.0:
        raise DomainError(f"probe factor must be positive and != 1, got {xi_probe:g}")
    fn = nl.func if isinstance(nl, Nonlinearity) else nl
    ladder = DEFAULT_INDEX_LADDER if u_ladder is None else np.asarray(u_ladder, dtype=float)
    if ladder.size < 1 or np.any(np.diff(ladder) <= 0.0):
        raise DomainError("u_ladder must be increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.array([float(fn(xi_probe * u)) for u in ladder])
        den = np.array([float(fn(u)) for u in ladder])
    bad = ~(np.isfinite(num) & np.isfinite(den) & (num > 0.0) & (den > 0.0))
    if np.any(bad):
        raise NumericsError(f"non-finite evaluation at u = {ladder[bad][0]:g}")
    slopes = np.log(num / den) / math.log(xi_probe)
    return aitken_limit(slopes).value


def validate_declared_index(nl: Nonlinearity) -> float:
    """Measured growth index must match the declared one within 1e-2."""
    measured = rv_index_estimate(nl)
    if abs(measured - nl.index) > INDEX_MISMATCH_TOL:
        raise ConfigError(
            f"declared growth index {nl.index:g} of {nl.name} disagrees with "
            f"measured {measured:.6g} (tolerance {INDEX_MISMATCH_TOL:g})"
        )
    return measured


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural-condition checks for a nonlinearity at given p.

    Flags:
      superlinear_index  -- growth index exceeds p - 1
      quotient_increasing -- s -> s**-(p-1) f(s) is increasing
      scaling_bound      -- f(u) >= eps**-l f(eps*u) for sampled eps in (0, 1)
      tail_integrable    -- Keller-Osserman-type integral of F**(-1/p) is finite
      convex             -- divided-difference slopes of f are nondecreasing
    """

    superlinear_index: bool
    quotient_increasing: bool
    scaling_bound: bool
    tail_integrable: bool
    convex: bool
    measured_index: float
    scaling_exponent: float
    p: float
    grid: np.ndarray = field(repr=False, default=None)
    tolerance: float = MONOTONE_TOL

    @property
    def all_core(self) -> bool:
        return self.superlinear_index and self.quotient_increasing and self.tail_integrable


def _increasing_on(values: np.ndarray, tol: float) -> bool:
    diffs = np.diff(values)
    scale = np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    return bool(np.all(diffs >= -tol * np.maximum(scale, 1.0)))


def is_convex(nl: Nonlinearity, grid=None) -> bool:
    """Convexity of f on a sample grid (default: the condition grid).

    The slopes (f[i+1] - f[i]) / (x[i+1] - x[i]) of consecutive samples must
    be nondecreasing, up to a relative tolerance of MONOTONE_TOL.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    f_vals = np.asarray(nl.func(grid), dtype=float)
    return _increasing_on(np.diff(f_vals) / np.diff(grid), MONOTONE_TOL)


def quotient_increasing(nl: Nonlinearity, exponent: float, grid=None) -> bool:
    """Whether s -> s**-exponent f(s) is increasing on a sample grid (default:
    the condition grid), up to a relative tolerance of MONOTONE_TOL."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    f_vals = np.asarray(nl.func(grid), dtype=float)
    return _increasing_on(grid ** (-float(exponent)) * f_vals, MONOTONE_TOL)


def check_conditions(
    nl: Nonlinearity,
    p: float,
    grid=None,
    scaling_exponent: float | None = None,
) -> ConditionReport:
    """Verify the structural hypotheses of the theory on a sample grid.

    Failures are recorded as flags, never raised.  ``scaling_exponent``
    defaults to the declared growth index, which is the natural exponent for
    power-type absorption.
    """
    if p <= 1.0:
        raise DomainError(f"p must exceed 1, got {p:g}")
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    l = nl.index if scaling_exponent is None else float(scaling_exponent)

    measured = rv_index_estimate(nl)
    superlinear = measured > p - 1.0 + 1e-9

    f_vals = np.array([float(nl.func(u)) for u in grid])

    scaling_ok = l > max(1.0, p - 1.0)
    if scaling_ok:
        for eps in SCALING_EPS:
            lhs = f_vals
            rhs = eps ** (-l) * np.array([float(nl.func(eps * u)) for u in grid])
            if not np.all(lhs >= rhs * (1.0 - 1e-12) - MONOTONE_TOL):
                scaling_ok = False
                break

    tail_ok = _tail_integrable(nl, p, measured)

    return ConditionReport(
        superlinear_index=superlinear,
        quotient_increasing=quotient_increasing(nl, p - 1.0, grid),
        scaling_bound=scaling_ok,
        tail_integrable=tail_ok,
        convex=is_convex(nl, grid),
        measured_index=measured,
        scaling_exponent=l,
        p=p,
        grid=grid,
    )


def _tail_integrable(nl: Nonlinearity, p: float, measured_index: float) -> bool:
    """Finite integral of F**(-1/p) over [1, inf)?

    The integrand decays like s**(-(rho+1)/p); a tail index <= 1 means the
    integral diverges, which the quadrature would only discover slowly.  A
    pure-power primitive c * u**e makes the integrand exactly c' * s**(-e/p),
    so the verdict is e/p > 1 without quadrature.
    """
    if nl.primitive_power is not None:
        return nl.primitive_power[1] / p > 1.0 + 1e-9
    decay = (measured_index + 1.0) / p
    if decay <= 1.0 + 1e-9:
        return False
    try:
        val = upper_tail_integral(lambda s: primitive(nl, s) ** (-1.0 / p), 1.0, decay, epsrel=1e-9)
    except NumericsError:
        return False
    return np.isfinite(val)


def blowup_order(rho: float, p: float) -> float:
    """The derived index r = (rho+1)/(rho+1-p) controlling blow-up profiles."""
    if rho <= p - 1.0:
        raise DomainError(f"need rho > p - 1 (got rho={rho:g}, p={p:g})")
    return (rho + 1.0) / (rho + 1.0 - p)
