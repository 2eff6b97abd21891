"""Steady boundary blow-up problems  Delta_p z = A(x) k(d)^p f(z).

The infinite boundary value is constructed exactly as in the underlying
theory: solve with finite Dirichlet cap n, double the cap, and stop once the
interior stabilizes.  Capped solutions increase monotonically in the cap (the
discrete system inherits the comparison principle from its M-matrix
structure), so the ladder converges from below and the stopping rule

    max interior change < rtol * max interior value

is a faithful finite version of the cap -> infinity limit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretize import Discretization, newton_solve
from .errors import DomainError, SolverError
from .geometry import Mesh
from .karamata import WeightKernel, cap_ceiling, const_kernel
from .nonlinearity import Nonlinearity

logger = logging.getLogger(__name__)

DEFAULT_CAP_BASE = 10.0
DEFAULT_CAP_FACTOR = 2.0
DEFAULT_CAP_RTOL = 1e-6
DEFAULT_MAX_RUNGS = 120


@dataclass(frozen=True)
class EllipticProblem:
    """-Delta_p z + amplitude(x) * k(d(x))^p * f(z) = source(x), z = cap on the boundary.

    ``amplitude`` is a constant or a callable of the node coordinates; the
    optional source exists for manufactured-solution verification only.
    """

    mesh: Mesh
    p: float
    nl: Nonlinearity
    kernel: WeightKernel = None
    amplitude: float | Callable = 1.0
    source: Callable | None = None

    def __post_init__(self):
        if self.p <= 1.0:
            raise DomainError(f"p must exceed 1, got {self.p:g}")
        if self.kernel is None:
            object.__setattr__(self, "kernel", const_kernel(2.0 * self.mesh.domain.diameter))

    def weight_values(self) -> np.ndarray:
        d = self.mesh.boundary_distance()
        kp = np.asarray(self.kernel.func(np.maximum(d, 1e-300)), dtype=float) ** self.p
        if callable(self.amplitude):
            amp = np.asarray(self.amplitude(self.mesh.nodes), dtype=float)
        else:
            amp = float(self.amplitude)
        w = amp * kp
        if np.any(w < 0.0):
            raise DomainError("weight must be nonnegative")
        return w

    def source_values(self) -> np.ndarray | None:
        if self.source is None:
            return None
        return np.asarray(self.source(self.mesh.nodes), dtype=float)


@dataclass
class GridFunction:
    """Nodal field on a mesh with boundary metadata.

    ``cap`` records the Dirichlet value of a capped solve; ``blowup`` marks a
    field obtained as the stabilized limit of a cap ladder.
    """

    mesh: Mesh
    values: np.ndarray
    cap: float | None = None
    blowup: bool = False
    meta: dict = field(default_factory=dict)


def solve_elliptic_capped(prob: EllipticProblem, cap: float, u0=None) -> GridFunction:
    """Damped-Newton solve of the capped problem; positive, bounded by the cap."""
    if cap <= 0.0:
        raise DomainError(f"cap must be positive, got {cap:g}")
    disc = Discretization.build(prob.mesh, prob.p)
    weight = prob.weight_values()
    src = prob.source_values()
    u0 = np.full(prob.mesh.nodes.size, float(cap)) if u0 is None else np.array(u0, dtype=float)
    u0[list(prob.mesh.boundary_idx)] = cap
    u, info = newton_solve(disc, u0, weight=weight, f=prob.nl.func, fp=prob.nl.deriv,
                           source=src, dirichlet_val=float(cap))
    return GridFunction(mesh=prob.mesh, values=u, cap=float(cap), meta={"newton": info})


def core_interior_idx(mesh: Mesh, collar: int) -> np.ndarray:
    """Interior node indices at least ``collar`` nodes away from a Dirichlet node.

    The first cells next to a capped boundary track the cap, not the limit
    profile; stabilization is measured outside that collar.
    """
    mask = np.ones(mesh.nodes.size, dtype=bool)
    for b in mesh.boundary_idx:
        lo = max(b - collar, 0)
        hi = min(b + collar, mesh.nodes.size - 1)
        mask[lo:hi + 1] = False
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise DomainError("mesh too coarse: the boundary collar swallows the interior")
    return idx


def solve_elliptic_blowup(
    prob: EllipticProblem,
    cap_base: float = DEFAULT_CAP_BASE,
    cap_factor: float = DEFAULT_CAP_FACTOR,
    rtol: float = DEFAULT_CAP_RTOL,
    max_rungs: int = DEFAULT_MAX_RUNGS,
    margin: float = 4.0,
    collar: int = 4,
) -> GridFunction:
    """Monotone cap-ladder limit of capped solutions (infinite boundary data).

    Each rung warm-starts from the previous one.  The ladder ends when the
    core interior (outside a small boundary collar) changes by less than
    ``rtol`` relatively, or once the cap passes the resolved boundary-layer
    scale (see ``cap_ceiling``), whichever comes first; past that scale
    further rungs only feed the unresolvable first-cell layer.
    """
    mesh = prob.mesh
    core = core_interior_idx(mesh, collar)
    d = mesh.boundary_distance()
    interior = mesh.interior_idx
    if callable(prob.amplitude):
        amp = np.asarray(prob.amplitude(mesh.nodes), dtype=float)[interior]
    else:
        amp = np.full(interior.size, float(prob.amplitude))
    ceiling = cap_ceiling(prob.nl, prob.p, prob.kernel, amp,
                          d[interior], d[interior], margin=margin)
    cap = cap_base
    prev: GridFunction | None = None
    deltas = []
    for rung in range(max_rungs):
        guess = None if prev is None else prev.values
        cur = solve_elliptic_capped(prob, cap, u0=guess)
        if prev is not None:
            rel = np.abs(cur.values[core] - prev.values[core]) / np.maximum(np.abs(cur.values[core]), 1e-300)
            delta = float(np.max(rel))
            deltas.append(delta)
            done = delta < rtol or cap >= ceiling
            if done:
                cur.blowup = True
                cur.meta.update(cap_rungs=rung + 1, final_cap=cap, interior_delta=delta,
                                delta_history=deltas, cap_ceiling=ceiling, collar=collar)
                logger.info("elliptic cap ladder done: %d rungs, cap %.3g, core delta %.2e",
                            rung + 1, cap, delta)
                return cur
        prev = cur
        cap *= cap_factor
    raise SolverError(
        "cap ladder exhausted without reaching its ceiling; "
        "increase the mesh grading exponent or the rung budget",
        {"rungs": max_rungs, "last_cap": cap / cap_factor, "ceiling": ceiling,
         "delta_history": deltas[-5:]},
    )


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of a discrete comparison-principle check."""

    ordered: bool
    max_violation: float
    upper_residual_ok: bool
    lower_residual_ok: bool
    boundary_ok: bool

    @property
    def passed(self) -> bool:
        return self.ordered and self.upper_residual_ok and self.lower_residual_ok and self.boundary_ok


def elliptic_comparison_check(
    upper: GridFunction,
    lower: GridFunction,
    prob: EllipticProblem,
    tol: float = 1e-8,
    residual_slack: float = 1e-8,
) -> ComparisonVerdict:
    """Check that a discrete upper solution dominates a discrete lower solution.

    Residual signs (upper: -Delta_p u + w f(u) >= 0, lower: <= 0) and boundary
    ordering are the preconditions; the verdict reports the largest relative
    ordering violation in the interior.
    """
    if upper.mesh is not lower.mesh and not np.array_equal(upper.mesh.nodes, lower.mesh.nodes):
        raise DomainError("comparison requires a shared mesh")
    disc = Discretization.build(prob.mesh, prob.p)
    weight = prob.weight_values()
    src = prob.source_values()

    def scaled_residual(g: GridFunction) -> np.ndarray:
        R, scale = disc.residual(g.values, weight=weight, f=prob.nl.func, fp=prob.nl.deriv,
                                 source=src)
        out = R / (1.0 + scale)
        out[list(prob.mesh.boundary_idx)] = 0.0
        return out

    r_up = scaled_residual(upper)
    r_lo = scaled_residual(lower)
    upper_ok = bool(np.all(r_up >= -residual_slack))
    lower_ok = bool(np.all(r_lo <= residual_slack))
    bidx = list(prob.mesh.boundary_idx)
    boundary_ok = bool(np.all(upper.values[bidx] >= lower.values[bidx] * (1.0 - 1e-12) - 1e-12))

    scale = np.maximum(np.maximum(np.abs(upper.values), np.abs(lower.values)), 1.0)
    violation = float(np.max((lower.values - upper.values) / scale))
    return ComparisonVerdict(
        ordered=violation <= tol,
        max_violation=max(violation, 0.0),
        upper_residual_ok=upper_ok,
        lower_residual_ok=lower_ok,
        boundary_ok=boundary_ok,
    )
