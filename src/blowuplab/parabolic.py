"""The evolution problem  u_t - Delta_p u + b(x,t) f(u) = 0  with infinite data.

Infinite initial and lateral data are approached exactly as the theory
constructs them:

* minimal solution -- solve with data u = n on the whole parabolic boundary
  (initial slice and lateral sides) and send the cap n to infinity.  On a
  fixed mesh the limit is reached at the resolved layer scale
  (``cap_ceiling``): the solve is one march, at the first cap of the
  doubling ladder past that ceiling;

* maximal solution -- for a shrinking collar parameter eps, solve the minimal
  problem on the subdomain of points farther than eps from the boundary,
  starting at the first grid time past eps, then send eps to 0.  Every eps
  of the ladder is validated, and one march runs, at the last eps; the
  trusted region comes from the previous eps's geometry, and nothing yet
  measures convergence in eps.  Shrunken domains reuse the base mesh nodes
  (the grading toward the true boundary already resolves the collar
  layers), so fields stay nodally comparable.

Time stepping is backward Euler: unconditionally monotone, which is what the
comparison-based oracles need; accuracy is recovered downstream by
extrapolation in the rate harness.  Time grids are graded toward t = 0 (like
t_j ~ j**2) because the solution enters like the blow-down curve ~ t**(-1/(rho-1)).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretize import Discretization, newton_solve
from .elliptic import (DEFAULT_CAP_BASE, DEFAULT_CAP_FACTOR, DEFAULT_CAP_MARGIN, DEFAULT_MAX_RUNGS,
                       cap_ladder)
from .errors import DomainError, SolverError
from .geometry import Mesh, distance_to_boundary, interval, ball
from .karamata import AbsorptionWeight, cap_ceiling
from .nonlinearity import Nonlinearity

logger = logging.getLogger(__name__)

MAX_STEP_HALVINGS = 10


@dataclass(frozen=True)
class ParabolicProblem:
    """Problem data; caps/ladders are supplied to the solve operations.

    ``source`` and ``dirichlet`` exist for manufactured-solution runs;
    ``no_flux`` replaces all Dirichlet rows by zero-flux ends (spatially
    homogeneous sanity mode).
    """

    mesh: Mesh
    p: float
    nl: Nonlinearity
    weight: AbsorptionWeight
    horizon: float = 1.0
    source: Callable | None = None      # source(x, t) on the right-hand side
    dirichlet: Callable | None = None   # dirichlet(x, t) boundary data
    initial: Callable | None = None     # initial(x) profile (default: the cap)
    no_flux: bool = False

    def __post_init__(self):
        if self.p <= 1.0:
            raise DomainError(f"p must exceed 1, got {self.p:g}")
        if self.horizon <= 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon:g}")

    def weight_on(self, nodes: np.ndarray) -> np.ndarray:
        """The weight b at the nodes, from their distance to the boundary of the
        problem's domain; b does not depend on time, so a march computes it once."""
        return self.weight.values(distance_to_boundary(self.mesh.domain, nodes), self.p)

    def source_on(self, nodes: np.ndarray, t: float):
        if self.source is None:
            return None
        return np.asarray(self.source(nodes, t), dtype=float)


@dataclass
class SpaceTimeField:
    """Trajectory on a mesh x time grid; NaN marks nodes/times a shrunken solve
    never covered."""

    mesh: Mesh
    times: np.ndarray
    values: np.ndarray  # shape (n_times, n_nodes)
    meta: dict = field(default_factory=dict)

    def slice_at(self, t: float) -> tuple[int, np.ndarray]:
        j = int(np.argmin(np.abs(self.times - t)))
        return j, self.values[j]

    def node_index(self, x: float) -> int:
        return int(np.argmin(np.abs(self.mesh.nodes - x)))


def build_time_grid(t_end: float, n_steps: int, grading: float = 2.0) -> np.ndarray:
    """Times t_end*(j/n)**grading, graded toward t = 0."""
    if n_steps < 1 or t_end <= 0.0:
        raise DomainError("need n_steps >= 1 and t_end > 0")
    s = np.linspace(0.0, 1.0, n_steps + 1)
    return t_end * s ** grading


def step_implicit(prob: ParabolicProblem, state: np.ndarray, dt: float, t_new: float,
                  cap: float | None = None) -> np.ndarray:
    """One backward-Euler step on the problem's own mesh (convenience wrapper)."""
    disc = _discretization(prob, prob.mesh)
    return _step(prob, prob.mesh, disc, prob.weight_on(prob.mesh.nodes), state, dt, t_new, cap)


def _discretization(prob: ParabolicProblem, mesh: Mesh) -> Discretization:
    didx = np.array([], dtype=int) if prob.no_flux else None
    return Discretization.build(mesh, prob.p, dirichlet_idx=didx)


def _dirichlet_values(prob: ParabolicProblem, mesh: Mesh, t: float, cap: float | None):
    if prob.no_flux:
        return None
    if prob.dirichlet is not None:
        vals = np.zeros(mesh.nodes.size)
        b = list(mesh.boundary_idx)
        vals[b] = np.asarray(prob.dirichlet(mesh.nodes[b], t), dtype=float)
        return vals
    if cap is None:
        raise DomainError("capped solve requires a cap value")
    return float(cap)


def _step(prob, mesh, disc, weight, state, dt, t_new, cap, depth: int = 0) -> np.ndarray:
    """Backward-Euler step with rejection: on Newton failure the step is halved
    (bounded recursion) so the caller's time grid is preserved.  ``weight`` is
    ``prob.weight_on(mesh.nodes)``."""
    src = prob.source_on(mesh.nodes, t_new)
    dval = _dirichlet_values(prob, mesh, t_new, cap)
    try:
        u, _ = newton_solve(disc, state, weight=weight, f=prob.nl.func, fp=prob.nl.deriv,
                            source=src, mass_coef=1.0 / dt, u_prev=state,
                            dirichlet_val=dval)
        return u
    except SolverError:
        if depth >= MAX_STEP_HALVINGS:
            raise
        t_mid = t_new - 0.5 * dt
        half = _step(prob, mesh, disc, weight, state, 0.5 * dt, t_mid, cap, depth=depth + 1)
        return _step(prob, mesh, disc, weight, half, 0.5 * dt, t_new, cap, depth=depth + 1)


def _march(prob: ParabolicProblem, mesh: Mesh, times: np.ndarray, cap: float | None) -> np.ndarray:
    """Full backward-Euler trajectory with data ``cap`` on the parabolic boundary."""
    disc = _discretization(prob, mesh)
    weight = prob.weight_on(mesh.nodes)
    n = mesh.nodes.size
    out = np.empty((times.size, n))
    if prob.initial is not None:
        out[0] = np.asarray(prob.initial(mesh.nodes), dtype=float)
    elif prob.dirichlet is not None:
        raise DomainError("dirichlet data requires an explicit initial profile")
    else:
        out[0] = cap
    for j in range(1, times.size):
        dt = times[j] - times[j - 1]
        out[j] = _step(prob, mesh, disc, weight, out[j - 1], dt, times[j], cap)
    return out


def solve_capped(prob: ParabolicProblem, times, cap: float) -> SpaceTimeField:
    """Trajectory of the problem with data u = cap on the parabolic boundary."""
    times = np.asarray(times, dtype=float)
    if cap <= 0.0:
        raise DomainError(f"cap must be positive, got {cap:g}")
    values = _march(prob, prob.mesh, times, cap)
    return SpaceTimeField(mesh=prob.mesh, times=times, values=values,
                          meta={"cap": cap, "kind": "capped"})


def _cap_ladder(prob, mesh, times, cap_base, cap_factor, max_rungs, margin):
    """One march on ``mesh`` at the final cap of ``cap_ladder``.

    The ceiling is the resolved layer scale of the profile at the first cell
    plus the space-free curve at the first time step (see ``cap_ceiling``).
    """
    interior = mesh.interior_idx
    d_mesh = mesh.boundary_distance()[interior]
    d_dom = distance_to_boundary(prob.mesh.domain, mesh.nodes)[interior]
    ceiling = cap_ceiling(prob.nl, prob.p, prob.weight.kernel, prob.weight.amplitude, d_dom, d_mesh,
                          dt_first=float(times[1] - times[0]), margin=margin)
    cap = cap_ladder(ceiling, cap_base, cap_factor, max_rungs)
    return _march(prob, mesh, times, cap), {"cap_rungs": 1, "final_cap": cap,
                                            "cap_ceiling": ceiling}


def minimal_solution(prob: ParabolicProblem, times, cap_base: float = DEFAULT_CAP_BASE,
                     cap_factor: float = DEFAULT_CAP_FACTOR, max_rungs: int = DEFAULT_MAX_RUNGS,
                     margin: float = DEFAULT_CAP_MARGIN) -> SpaceTimeField:
    """The minimal solution: the capped solution at the first ladder cap past
    the mesh's cap ceiling (the finite-mesh form of the limit cap -> infinity).

    It takes one march, at that cap.  ``meta`` holds the final cap, the
    ceiling and the number of capped marches run (``cap_rungs``, 1).
    """
    times = np.asarray(times, dtype=float)
    values, meta = _cap_ladder(prob, prob.mesh, times, cap_base, cap_factor, max_rungs, margin)
    meta["kind"] = "minimal"
    logger.info("minimal solution: cap %.3g against ceiling %.3g",
                meta["final_cap"], meta["cap_ceiling"])
    return SpaceTimeField(mesh=prob.mesh, times=times, values=values, meta=meta)


def _shrunken_slice(mesh: Mesh, eps: float) -> slice:
    d = mesh.boundary_distance()
    keep = np.nonzero(d >= eps)[0]
    if mesh.domain.kind == "ball":
        keep = np.concatenate(([0], keep)) if 0 not in keep else keep
        lo, hi = 0, int(keep.max())
    else:
        lo, hi = int(keep.min()), int(keep.max())
    if hi - lo < 4:
        raise DomainError(f"collar eps = {eps:g} leaves fewer than 5 nodes")
    return slice(lo, hi + 1)


def _sub_mesh(mesh: Mesh, sl: slice) -> Mesh:
    nodes = mesh.nodes[sl]
    if mesh.domain.kind == "interval":
        dom = interval(float(nodes[0]), float(nodes[-1]))
    else:
        dom = ball(float(nodes[-1]), mesh.domain.dimension)
    return Mesh(domain=dom, nodes=nodes, grading=mesh.grading)


def maximal_solution(prob: ParabolicProblem, times, eps_values,
                     cap_base: float = DEFAULT_CAP_BASE, cap_factor: float = DEFAULT_CAP_FACTOR,
                     max_rungs: int = DEFAULT_MAX_RUNGS,
                     margin: float = DEFAULT_CAP_MARGIN) -> SpaceTimeField:
    """Minimal solution on the subdomain of the last collar of a shrinking ladder.

    The theory sends eps to 0 through the minimal problems solved on the
    base-mesh nodes farther than eps from the boundary, each starting at the
    first grid time past eps.  Every eps of the ladder is validated first, so
    a collar too wide for the mesh or the time grid is a ``DomainError``
    before any march; then one march runs, at the last eps.
    The returned field is NaN where that collar never reached.  Its meta
    records ``trusted_region``: the region of the previous eps (of the only
    eps when the ladder has one), built from its slice and start time with
    no march, which keeps clear of the last collar's boundary layer.  No
    convergence evidence in eps backs it.
    """
    times = np.asarray(times, dtype=float)
    eps_values = np.asarray(eps_values, dtype=float)
    if np.any(np.diff(eps_values) >= 0.0) or np.any(eps_values <= 0.0):
        raise DomainError("eps ladder must be positive and strictly decreasing")

    collars = []
    for eps in eps_values:
        sl = _shrunken_slice(prob.mesh, eps)
        j0 = int(np.searchsorted(times, eps, side="left"))
        if j0 > times.size - 3:
            raise DomainError(f"collar eps = {eps:g} leaves fewer than 3 time levels")
        collars.append((sl, j0))
    sl, j0 = collars[-1]
    vals, meta = _cap_ladder(prob, _sub_mesh(prob.mesh, sl), times[j0:],
                             cap_base, cap_factor, max_rungs, margin)
    values = np.full((times.size, prob.mesh.nodes.size), np.nan)
    values[j0:, sl] = vals
    # the final collar's region holds its own boundary layer: report the
    # previous collar's region instead
    trusted_sl, trusted_j0 = collars[-2] if len(collars) > 1 else collars[-1]
    trusted = np.zeros(values.shape, dtype=bool)
    trusted[trusted_j0 + 1:, trusted_sl] = True
    trusted[:, trusted_sl.stop - 1] = False
    if prob.mesh.domain.kind == "interval":
        trusted[:, trusted_sl.start] = False
    eps_final = float(eps_values[-1])
    return SpaceTimeField(mesh=prob.mesh, times=times, values=values, meta={
        "kind": "maximal",
        "eps_ladder": [(eps_final, meta["cap_rungs"])],
        "eps_final": eps_final,
        "trusted_region": trusted,
    })


@dataclass(frozen=True)
class ParabolicComparison:
    """Verdict of the discrete parabolic comparison check."""

    ordered: bool
    max_violation: float
    upper_residual_ok: bool
    lower_residual_ok: bool
    data_ok: bool

    @property
    def passed(self) -> bool:
        return self.ordered and self.upper_residual_ok and self.lower_residual_ok and self.data_ok


def parabolic_comparison_check(upper: SpaceTimeField, lower: SpaceTimeField,
                               prob: ParabolicProblem, tol: float = 1e-8,
                               residual_slack: float = 1e-8) -> ParabolicComparison:
    """Discrete comparison oracle: ordered parabolic-boundary data and correctly
    signed step residuals must yield nodally ordered fields."""
    if not np.array_equal(upper.times, lower.times):
        raise DomainError("comparison requires a shared time grid")
    if not np.array_equal(upper.mesh.nodes, lower.mesh.nodes):
        raise DomainError("comparison requires a shared mesh")
    disc = _discretization(prob, upper.mesh)
    w = prob.weight_on(upper.mesh.nodes)

    def worst_scaled_residual(fld: SpaceTimeField) -> np.ndarray:
        worst = np.zeros(fld.mesh.nodes.size)
        worst_neg = np.zeros(fld.mesh.nodes.size)
        for j in range(1, fld.times.size):
            dt = fld.times[j] - fld.times[j - 1]
            src = prob.source_on(fld.mesh.nodes, fld.times[j])
            R, scale = disc.residual(fld.values[j], weight=w, f=prob.nl.func, source=src,
                                     mass_coef=1.0 / dt, u_prev=fld.values[j - 1])
            s = R / (1.0 + scale)
            worst = np.maximum(worst, s)
            worst_neg = np.minimum(worst_neg, s)
        out = np.stack([worst, worst_neg])
        out[:, list(fld.mesh.boundary_idx)] = 0.0
        return out

    up = worst_scaled_residual(upper)
    lo = worst_scaled_residual(lower)
    upper_ok = bool(np.all(up[1] >= -residual_slack))   # upper solution: residual >= 0
    lower_ok = bool(np.all(lo[0] <= residual_slack))    # lower solution: residual <= 0

    b = list(upper.mesh.boundary_idx)
    data_ok = bool(
        np.all(upper.values[:, b] >= lower.values[:, b] - 1e-12 * np.abs(upper.values[:, b]))
        and np.all(upper.values[0] >= lower.values[0] - 1e-12 * np.abs(upper.values[0]))
    )

    both = np.isfinite(upper.values) & np.isfinite(lower.values)
    scale = np.maximum(np.maximum(np.abs(upper.values), np.abs(lower.values)), 1.0)
    viol = np.where(both, (lower.values - upper.values) / scale, -np.inf)
    violation = float(np.max(viol))
    return ParabolicComparison(
        ordered=violation <= tol,
        max_violation=max(violation, 0.0),
        upper_residual_ok=upper_ok,
        lower_residual_ok=lower_ok,
        data_ok=data_ok,
    )


@dataclass(frozen=True)
class CompactTestField:
    """Nonnegative space-time test function vanishing near the parabolic boundary."""

    phi: Callable  # phi(x, t)
    phi_t: Callable

    def sample(self, nodes: np.ndarray, times: np.ndarray):
        P = np.array([[float(self.phi(x, t)) for x in nodes] for t in times])
        Pt = np.array([[float(self.phi_t(x, t)) for x in nodes] for t in times])
        return P, Pt


def weak_form_residual(field: SpaceTimeField, prob: ParabolicProblem, test: CompactTestField) -> float:
    """Weak-form defect of a trajectory against an admissible test function.

    Quadrature is the right-endpoint rule in time and dual-cell/face sums in
    space, so the defect of an exact solution sampled on the grid decays like
    O(h^2 + dt).  The test function must vanish on the first time slice and
    on the boundary nodes plus their first interior neighbours.
    """
    mesh, times, u = field.mesh, field.times, field.values
    disc = Discretization.build(mesh, prob.p)
    P, Pt = test.sample(mesh.nodes, times)
    if np.any(P < -1e-14):
        raise DomainError("test function must be nonnegative")
    first_layer = set()
    for bidx in mesh.boundary_idx:
        first_layer.add(bidx)
        first_layer.add(bidx + 1 if bidx == 0 else bidx - 1)
    layer = sorted(first_layer)
    if np.any(P[0] != 0.0) or np.any(P[:, layer] != 0.0):
        raise DomainError("test function must vanish on the first time slice and boundary layer")

    V = disc.volumes
    total = float(np.sum(V * u[-1] * P[-1]))
    eps = disc.eps_reg if prob.p != 2.0 else 0.0
    w = prob.weight_on(mesh.nodes)
    for j in range(1, times.size):
        dt = times[j] - times[j - 1]
        du = np.diff(u[j]) / disc.h_face
        dphi = np.diff(P[j]) / disc.h_face
        if prob.p == 2.0:
            q = du
        else:
            q = (du * du + eps * eps) ** ((prob.p - 2.0) / 2.0) * du
        flux_term = float(np.sum(disc.m_face * disc.h_face * q * dphi))
        absorb = w * np.asarray(prob.nl.func(u[j]), dtype=float)
        src = prob.source_on(mesh.nodes, times[j])
        if src is not None:
            absorb = absorb - src
        absorb_term = float(np.sum(V * absorb * P[j]))
        time_term = float(np.sum(V * u[j] * Pt[j]))
        total += dt * (flux_term + absorb_term - time_term)
    return total
