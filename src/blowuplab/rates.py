"""Empirical rate extraction and comparison against the predicted constants.

Every report pairs a predicted constant with a ladder of measured ratios on
a geometric ladder (in boundary distance d or in time t), an extrapolated
limit (iterated Aitken on the log-ladder, which annihilates the dominant
geometric error mode of both the continuum approach and the discretization),
and a convergence flag.  A ladder whose final iterates do not settle is
marked non-converged rather than silently passed.

Tolerance: the boundary and initial rates default to 5% relative
(``PDE_RTOL``), since the discretization error of the measured field dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .blowdown import BlowdownCurve
from .elliptic import EllipticProblem, GridFunction
from .errors import DomainError
from .extrapolation import aitken_limit
from .karamata import WeightKernel, effective_absorption, kernel_primitive, profile_value
from .nonlinearity import Nonlinearity, blowup_order, is_convex, quotient_increasing
from .parabolic import ParabolicProblem, SpaceTimeField

PDE_RTOL = 0.05


@dataclass
class RateReport:
    """Measured vs predicted asymptotic constant with extrapolation evidence."""

    name: str
    predicted: float | None
    abscissae: np.ndarray
    ratios: np.ndarray
    extrapolated: float
    tolerance: float
    converged: bool
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def rel_error(self) -> float | None:
        if self.predicted is None or self.predicted == 0.0:
            return None
        return abs(self.extrapolated - self.predicted) / abs(self.predicted)

    def row(self) -> dict:
        return {
            "name": self.name,
            "predicted": self.predicted if self.predicted is not None else float("nan"),
            "extrapolated": self.extrapolated,
            "rel_error": self.rel_error if self.rel_error is not None else float("nan"),
            "tolerance": self.tolerance,
            "converged": int(self.converged),
            "passed": int(self.passed),
            "rungs": int(self.abscissae.size),
        }


def predicted_boundary_constant(rho: float, p: float, ell: float, beta: float) -> float:
    """((r + ell - 1) / (r * beta)) ** ((r-1)/p) with r = (rho+1)/(rho+1-p)."""
    r = blowup_order(rho, p)
    return ((r + ell - 1.0) / (r * beta)) ** ((r - 1.0) / p)


def profile_of_distance(nl: Nonlinearity, p: float, kernel: WeightKernel, d) -> np.ndarray:
    """phi(K(d)) nodewise: the boundary-layer comparison profile.

    The values are kept for the last few (absorption, p, kernel, distances),
    so the CSV writers and the sandwich check of one run evaluate the profile
    on a mesh once.  The array is shared, hence read-only.
    """
    d = np.ascontiguousarray(d, dtype=float)
    return _profile_of_distance(nl, p, kernel, d.tobytes())


@lru_cache(maxsize=8)
def _profile_of_distance(nl: Nonlinearity, p: float, kernel: WeightKernel, d: bytes):
    K = kernel_primitive(kernel, np.frombuffer(d))
    prof = np.asarray(profile_value(nl, p, K))
    prof.flags.writeable = False
    return prof


def _geometric_picks(values: np.ndarray, usable: np.ndarray, hi: float, lo: float,
                     ratio: float) -> np.ndarray:
    """Indices of the entries of the increasing ``values`` nearest to hi,
    hi/ratio, ... down to lo, coarse to fine.

    An entry is skipped where ``usable`` is False, or when it repeats the
    previous pick; the picks strictly decrease.
    """
    picks: list[int] = []
    target = hi
    while target >= lo * 0.999:
        j = int(np.argmin(np.abs(values - target)))
        if usable[j] and (not picks or picks[-1] != j):
            picks.append(j)
        target /= ratio
    return np.array(picks, dtype=int)


def _local_spacing(nodes: np.ndarray) -> np.ndarray:
    h = np.empty_like(nodes)
    dh = np.diff(nodes)
    h[0] = dh[0]
    h[-1] = dh[-1]
    h[1:-1] = np.maximum(dh[:-1], dh[1:])
    return h


def boundary_rate(
    fld,
    prob,
    t0: float | None = None,
    side: str = "right",
    d_window: tuple[float, float] | None = None,
    rtol: float = PDE_RTOL,
    ladder_ratio: float = 2.0,
) -> RateReport:
    """Extrapolated limit of u / phi(K(d)) along nodes approaching the boundary.

    ``fld`` is a space-time trajectory (then ``t0`` selects the slice) or a
    steady grid function.  The prediction is ((r+ell-1)/(r*beta))**((r-1)/p)
    with beta the amplitude of the problem's weight.
    """
    mesh, values, t_used = _slice_field(fld, t0)
    if not isinstance(prob, (ParabolicProblem, EllipticProblem)):
        raise DomainError(f"unsupported problem type {type(prob).__name__}")
    nl, p, kernel, beta = prob.nl, prob.p, prob.weight.kernel, prob.weight.amplitude
    dom = mesh.domain
    d_all = mesh.boundary_distance()
    h_all = _local_spacing(mesh.nodes)

    if dom.kind == "interval":
        mid = 0.5 * (dom.a + dom.b)
        mask = mesh.nodes > mid if side == "right" else mesh.nodes < mid
    else:
        mask = np.ones(mesh.nodes.size, dtype=bool)
    mask[list(mesh.boundary_idx)] = False
    mask &= np.isfinite(values)
    cand = np.nonzero(mask)[0]
    if cand.size < 5:
        raise DomainError("too few near-boundary nodes; refine the mesh grading")

    half = 0.5 * dom.diameter if dom.kind == "interval" else dom.radius
    if d_window is None:
        d_hi, d_lo = 0.25 * half, 0.0
    else:
        d_lo, d_hi = d_window
    order = cand[np.argsort(d_all[cand])]  # candidate nodes by increasing distance
    ds = d_all[order]
    # a node whose local spacing exceeds 0.35 of its distance carries
    # O((h/d)^2) noise in its ratio, which is no longer a clean geometric mode
    usable = h_all[order] <= 0.35 * ds
    picks = order[_geometric_picks(ds, usable, d_hi, max(d_lo, ds[0]), ladder_ratio)]
    if len(picks) < 4:
        raise DomainError(
            "fewer than 4 usable ladder rungs near the boundary; refine the mesh grading"
        )
    d_ladder = d_all[picks]
    ratios = values[picks] / profile_of_distance(nl, p, kernel, d_ladder)
    lim = aitken_limit(ratios)

    ell = kernel.limit
    predicted = predicted_boundary_constant(nl.index, p, ell, beta)
    rel = abs(lim.value - predicted) / abs(predicted)
    converged = _credible(lim, rtol)
    return RateReport(
        name=f"boundary-rate[{side}{'' if t_used is None else f' t={t_used:g}'}]",
        predicted=predicted,
        abscissae=d_ladder,
        ratios=ratios,
        extrapolated=lim.value,
        tolerance=rtol,
        converged=converged,
        passed=bool(converged and rel <= rtol),
        details={"iterates": lim.iterates.tolist(), "uncertainty": lim.uncertainty,
                 "beta": beta, "ell": ell, "t0": t_used},
    )


def _credible(lim, rtol: float) -> bool:
    """Extrapolation evidence must resolve the constant at the claimed tolerance."""
    return bool(lim.converged and lim.uncertainty <= 0.5 * rtol * max(abs(lim.value), 1e-30))


def _slice_field(fld, t0):
    if isinstance(fld, SpaceTimeField):
        if t0 is None:
            raise DomainError("a trajectory needs an evaluation time t0")
        j, vals = fld.slice_at(t0)
        return fld.mesh, vals, float(fld.times[j])
    if isinstance(fld, GridFunction):
        return fld.mesh, fld.values, None
    raise DomainError(f"unsupported field type {type(fld).__name__}")


def frozen_coefficient(fld: SpaceTimeField, prob: ParabolicProblem,
                       x0: float | None = None) -> tuple[int, float]:
    """The node i0 nearest x0 and the weight b there, as (i0, b0).

    x0 defaults to the interval midpoint or the ball centre.
    """
    mesh = fld.mesh
    dom = mesh.domain
    if x0 is None:
        x0 = 0.5 * (dom.a + dom.b) if dom.kind == "interval" else 0.0
    i0 = fld.node_index(x0)
    return i0, float(prob.weight.values(mesh.boundary_distance()[i0], prob.p))


def initial_rate(
    fld: SpaceTimeField,
    prob: ParabolicProblem,
    x0: float | None = None,
    t_window: tuple[float, float] = (1e-3, 1e-1),
    rtol: float = PDE_RTOL,
    ladder_ratio: float = 2.0,
) -> RateReport:
    """Extrapolated limit of u(x0, t) / tau(t) as t -> 0 at an interior point.

    tau is the blow-down curve of b(x0, 0) * f.  The two-sided limit 1 is
    asserted only when p > 2N/(N+2) and f(s)/s is increasing; otherwise only
    the upper bound (limit <= 1) is checked.
    """
    mesh = fld.mesh
    dom = mesh.domain
    i0, b0 = frozen_coefficient(fld, prob, x0)
    d_all = mesh.boundary_distance()
    if d_all[i0] < 0.25 * d_all.max():
        raise DomainError(
            f"evaluation point x0 = {mesh.nodes[i0]:g} sits in the boundary layer; pick a deeper point"
        )

    t_lo, t_hi = t_window
    usable = np.arange(fld.times.size) > 0
    picks = _geometric_picks(fld.times, usable, t_hi, t_lo, ladder_ratio)
    if len(picks) < 4:
        raise DomainError("time grid too coarse in the requested early-time window")
    t_ladder = fld.times[picks]
    # the curve of b0 * f at t is the curve of f at b0 * t, since G_{b0 f} = G_f / b0
    ratios = fld.values[picks, i0] / BlowdownCurve(prob.nl).value(b0 * t_ladder)
    lim = aitken_limit(ratios)

    dim = dom.dimension if dom.kind == "ball" else 1
    gate_p = prob.p > 2.0 * dim / (dim + 2.0)
    two_sided = gate_p and quotient_increasing(prob.nl, 1.0)

    converged = _credible(lim, rtol)
    if two_sided:
        passed = bool(converged and abs(lim.value - 1.0) <= rtol)
    else:
        passed = bool(converged and lim.value <= 1.0 + rtol)
    return RateReport(
        name=f"initial-rate[x0={mesh.nodes[i0]:g}]",
        predicted=1.0,
        abscissae=t_ladder,
        ratios=ratios,
        extrapolated=lim.value,
        tolerance=rtol,
        converged=converged,
        passed=passed,
        details={
            "iterates": lim.iterates.tolist(),
            "uncertainty": lim.uncertainty,
            "two_sided": two_sided,
            "frozen_coefficient": b0,
            "upper_bound_only": not two_sided,
        },
    )


@dataclass
class SandwichReport:
    """Boundedness of both envelope ratios over the solved grid."""

    sup_upper: float
    inf_lower: float
    bounds: tuple[float, float]
    t_star: float
    passed: bool
    details: dict = field(default_factory=dict)


def _space_free_curves(nl: Nonlinearity, kernel: WeightKernel, p: float):
    """The plain and effective blow-down curves, as (plain, effective).

    The plain curve is that of the absorption f; the effective one is that of
    the effective absorption, which equals f for a constant kernel, so then
    the plain curve is returned twice.
    """
    plain = BlowdownCurve(nl)
    if kernel.monotonicity == "constant":
        return plain, plain
    eff = BlowdownCurve(
        lambda s: float(effective_absorption(nl, kernel, p, s)),
        index=None if kernel.monotonicity == "non-decreasing" else nl.index,
        name="effective",
    )
    return plain, eff


def space_free_values(prob: ParabolicProblem, t):
    """Values of the plain and effective blow-down curves at times t, as (plain, effective).

    The values are kept for the last few (absorption, kernel, p, times), so
    the trajectory CSV and the sandwich check of one run build and invert
    each distinct curve once.  The arrays are shared, hence read-only.
    """
    times = np.ascontiguousarray(t, dtype=float)
    return _space_free_values(prob.nl, prob.weight.kernel, prob.p, times.tobytes())


@lru_cache(maxsize=4)
def _space_free_values(nl: Nonlinearity, kernel: WeightKernel, p: float, times: bytes):
    plain, eff = _space_free_curves(nl, kernel, p)
    t = np.frombuffer(times)
    xi = plain.value(t)
    xis = xi if eff is plain else eff.value(t)
    xi.flags.writeable = xis.flags.writeable = False
    return xi, xis


def _by_branch(prob: ParabolicProblem, plain, eff):
    """A (plain, effective) pair reordered as the (upper, lower) envelope branches.

    The branch pairing follows the kernel's monotonicity: a non-increasing
    kernel bounds the maximal solution with the plain curve and the minimal
    one with the effective curve; a non-decreasing kernel swaps them.  For a
    constant kernel both branches are the plain curve.
    """
    if prob.weight.kernel.monotonicity == "non-decreasing":
        return eff, plain
    return plain, eff


def _envelope_ratio(fld: SpaceTimeField, grid, curve_vals: np.ndarray, prof: np.ndarray,
                    reduce, initial: float) -> float | None:
    """``reduce`` of u / (curve(t) + profile(d)) over the finite, trusted
    nodes of ``fld`` on ``grid``; None when no node qualifies."""
    ratio = fld.values[grid]
    ok = np.isfinite(ratio)
    trusted = fld.meta.get("trusted_region")
    if trusted is not None:
        ok &= trusted[grid]
    if not ok.any():
        return None
    ratio /= curve_vals[:, None] + prof[None, :]
    return float(reduce(ratio, where=ok, initial=initial))


def sandwich_check(
    lower_fld: SpaceTimeField,
    upper_fld: SpaceTimeField,
    prob: ParabolicProblem,
    t_star: float,
    bounds: tuple[float, float] = (1e-3, 1e3),
) -> SandwichReport:
    """sup(upper/envelope) and inf(lower/envelope) over the grid up to t_star.

    Both envelope ratios must stay inside ``bounds``: the envelopes are the
    space-free curve (plain or effective, per the kernel's monotonicity)
    plus the boundary profile phi(K(d)).
    """
    mesh = lower_fld.mesh
    tmask = (lower_fld.times > 0.0) & (lower_fld.times <= t_star)
    times = lower_fld.times[tmask]
    interior = mesh.interior_idx
    d = mesh.boundary_distance()[interior]
    prof = profile_of_distance(prob.nl, prob.p, prob.weight.kernel, d)

    up_vals, lo_vals = _by_branch(prob, *space_free_values(prob, times))
    grid = np.ix_(tmask, interior)
    # one field at a time, so its copy and its envelope are the only arrays held
    sup_upper = _envelope_ratio(upper_fld, grid, up_vals, prof, np.max, -np.inf)
    inf_lower = _envelope_ratio(lower_fld, grid, lo_vals, prof, np.min, np.inf)
    if sup_upper is None or inf_lower is None:
        raise DomainError("no trusted nodes left below t_star for the envelope check")

    passed = bool(bounds[0] <= inf_lower and sup_upper <= bounds[1] and sup_upper > 0.0)
    return SandwichReport(
        sup_upper=sup_upper,
        inf_lower=inf_lower,
        bounds=bounds,
        t_star=t_star,
        passed=passed,
        details={"times": (float(times[0]), float(times[-1])), "n_interior": int(interior.size)},
    )


@dataclass
class GapReport:
    """Relative spread between the maximal and minimal fields on a core region."""

    gap: float
    asserted: bool
    note: str
    details: dict = field(default_factory=dict)


def uniqueness_gap(
    lower_fld: SpaceTimeField,
    upper_fld: SpaceTimeField,
    prob: ParabolicProblem | None = None,
    t_min: float | None = None,
) -> GapReport:
    """max (upper - lower)/lower over a fixed interior core.

    The core (distance >= 10% of the diameter; by default t >= 10% of the
    field's last time) is held fixed under refinement so the collar of the
    shrunken domains leaves the measurement.  Uniqueness is asserted only under the
    hypotheses p = 2, constant kernel, convex absorption; otherwise the gap
    is still reported but flagged as not asserted.
    """
    mesh = lower_fld.mesh
    d = mesh.boundary_distance()
    core_distance = 0.1 * mesh.domain.diameter
    if t_min is None:
        t_min = 0.1 * float(lower_fld.times[-1])
    nmask = d >= core_distance
    tmask = lower_fld.times >= t_min
    lo = lower_fld.values[np.ix_(tmask, nmask)]
    up = upper_fld.values[np.ix_(tmask, nmask)]
    both = np.isfinite(lo) & np.isfinite(up) & (lo > 0.0)
    trusted = upper_fld.meta.get("trusted_region")
    if trusted is not None:
        both &= trusted[np.ix_(tmask, nmask)]
    if not np.any(both):
        raise DomainError("no shared valid nodes in the core region")
    gap = float(np.max((up[both] - lo[both]) / lo[both]))

    asserted = False
    note = "uniqueness not asserted by the theory for these hypotheses"
    if prob is not None:
        if prob.p == 2.0 and prob.weight.kernel.monotonicity == "constant" and is_convex(prob.nl):
            asserted = True
            note = "uniqueness hypotheses hold (p = 2, constant kernel, convex absorption)"
    return GapReport(
        gap=gap,
        asserted=asserted,
        note=note,
        details={"core_distance": core_distance, "t_min": t_min, "n_shared": int(both.sum())},
    )
