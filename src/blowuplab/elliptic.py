"""Steady boundary blow-up problems  Delta_p z = A(x) k(d)^p f(z).

The infinite boundary value is constructed as in the underlying theory: as
the limit of solutions with finite Dirichlet cap n.  Capped solutions
increase monotonically in the cap (the discrete system inherits the
comparison principle from its M-matrix structure).  On a fixed mesh that
limit is reached at the resolved boundary-layer scale (``cap_ceiling``):
``cap_ladder`` picks the first ladder cap past that ceiling.  Every cap
ladder is one solve there: the steady problem solves once, cold, at the
final cap, and the evolution problems in ``parabolic`` march once at the
final cap of the same ``cap_ladder``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretize import Discretization, newton_solve
from .errors import DomainError, SolverError
from .geometry import Mesh
from .karamata import AbsorptionWeight, WeightKernel, cap_ceiling, const_kernel
from .nonlinearity import Nonlinearity

logger = logging.getLogger(__name__)

# cap ladder defaults
DEFAULT_CAP_BASE = 10.0
DEFAULT_CAP_FACTOR = 2.0
DEFAULT_MAX_RUNGS = 120
DEFAULT_CAP_MARGIN = 4.0


@dataclass(frozen=True)
class EllipticProblem:
    """-Delta_p z + amplitude * k(d(x))^p * f(z) = source(x), z = cap on the boundary.

    ``weight`` is the ``AbsorptionWeight`` of ``kernel`` (const by default)
    and ``amplitude``, a positive, finite number; the optional source exists
    for manufactured-solution verification only.
    """

    mesh: Mesh
    p: float
    nl: Nonlinearity
    kernel: WeightKernel = None
    amplitude: float = 1.0
    source: Callable | None = None
    weight: AbsorptionWeight = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p <= 1.0:
            raise DomainError(f"p must exceed 1, got {self.p:g}")
        if self.kernel is None:
            object.__setattr__(self, "kernel", const_kernel(2.0 * self.mesh.domain.diameter))
        object.__setattr__(self, "weight", AbsorptionWeight(self.kernel, self.amplitude))

    def weight_values(self) -> np.ndarray:
        return self.weight.values(self.mesh.boundary_distance(), self.p)

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


def solve_elliptic_capped(prob: EllipticProblem, cap: float) -> GridFunction:
    """Damped-Newton solve of the capped problem, started from the cap; positive,
    bounded by the cap."""
    if cap <= 0.0:
        raise DomainError(f"cap must be positive, got {cap:g}")
    disc = Discretization.build(prob.mesh, prob.p)
    weight = prob.weight_values()
    src = prob.source_values()
    u0 = np.full(prob.mesh.nodes.size, float(cap))
    u, info = newton_solve(disc, u0, weight=weight, f=prob.nl.func, fp=prob.nl.deriv,
                           source=src, dirichlet_val=float(cap))
    return GridFunction(mesh=prob.mesh, values=u, cap=float(cap), meta={"newton": info})


def cap_ladder(ceiling: float, cap_base: float = DEFAULT_CAP_BASE,
               cap_factor: float = DEFAULT_CAP_FACTOR,
               max_rungs: int = DEFAULT_MAX_RUNGS) -> float:
    """The final cap of the limit cap -> infinity on a finite mesh.

    The final cap is the first ladder cap ``cap_base * cap_factor**k``
    (k >= 1) that reaches ``ceiling``, the resolved layer scale (see
    ``cap_ceiling``).  Past that scale the core interior no longer converges
    in the cap: fed by the sqrt(cap) excess mode of the first cells, its
    relative change per rung settles at a mesh-independent constant.  So the
    ladder is not climbed: every problem solves once, at the final cap.
    ``max_rungs`` bounds how many rungs the ceiling may take.
    """
    cap = cap_base
    for _ in range(1, max_rungs):
        cap *= cap_factor
        if cap >= ceiling:
            return cap
    raise SolverError(
        "cap ladder exhausted without reaching its ceiling; "
        "increase the mesh grading exponent or the rung budget",
        {"rungs": max_rungs, "last_cap": cap, "ceiling": ceiling},
    )


def solve_elliptic_blowup(
    prob: EllipticProblem,
    cap_base: float = DEFAULT_CAP_BASE,
    cap_factor: float = DEFAULT_CAP_FACTOR,
    max_rungs: int = DEFAULT_MAX_RUNGS,
    margin: float = DEFAULT_CAP_MARGIN,
) -> GridFunction:
    """Limit of capped solutions (infinite boundary data) at the final cap of ``cap_ladder``.

    One cold solve at the final cap; ``meta`` holds the final cap, its
    ceiling and ``cap_rungs`` (1).
    """
    mesh = prob.mesh
    d = mesh.boundary_distance()[mesh.interior_idx]
    ceiling = cap_ceiling(prob.nl, prob.p, prob.kernel, prob.weight.amplitude, d, d, margin=margin)
    cap = cap_ladder(ceiling, cap_base, cap_factor, max_rungs)
    values = solve_elliptic_capped(prob, cap).values
    meta = {"cap_rungs": 1, "final_cap": cap, "cap_ceiling": ceiling}
    logger.info("elliptic cap ladder done: cap %.3g against ceiling %.3g", cap, ceiling)
    return GridFunction(mesh=mesh, values=values, cap=cap, blowup=True, meta=meta)


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
        R, scale = disc.residual(g.values, weight=weight, f=prob.nl.func, source=src)
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
