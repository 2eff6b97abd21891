"""Finite-volume discretization of the radial/1D p-Laplacian and its Newton solver.

The operator is assembled in conservation form: the flux m(r) |u'|^(p-2) u'
is evaluated at cell faces (m = r**(N-1) for balls, 1 for intervals) and
divergenced against dual-cell volumes integral of m over the dual cell.  This
keeps the discrete system an M-matrix plus a monotone absorption term, which
is what every comparison-based oracle in the package relies on.

The degenerate gradient factor is regularized as (u'^2 + eps^2)**((p-2)/2)
with eps tied to the smallest cell (the Jacobian is singular at u' = 0
otherwise); for p = 2 the factor is identically 1 and eps is inert.
Convergence is declared on the residual scaled per node by the magnitude of
its own terms, since absolute residuals are meaningless across the many
orders of magnitude a blow-up layer spans.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverError
from .geometry import Mesh

logger = logging.getLogger(__name__)

NEWTON_RTOL = 1e-10
MAX_NEWTON = 200
MAX_BACKTRACK = 30


@dataclass(frozen=True)
class Discretization:
    """Precomputed face/volume arrays for one mesh and diffusion exponent."""

    mesh: Mesh
    p: float
    eps_reg: float
    h_face: np.ndarray
    m_face: np.ndarray
    volumes: np.ndarray
    dirichlet_idx: np.ndarray

    @classmethod
    def build(cls, mesh: Mesh, p: float, eps_reg: float | None = None,
              dirichlet_idx=None) -> "Discretization":
        x = mesh.nodes
        nu = mesh.domain.metric_power
        h = np.diff(x)
        mid = 0.5 * (x[:-1] + x[1:])
        m = mid ** nu if nu else np.ones_like(mid)
        # dual-cell volumes: integral of r**nu over [mid_{i-1}, mid_i]
        edges = np.concatenate(([x[0]], mid, [x[-1]]))
        vol = (edges[1:] ** (nu + 1) - edges[:-1] ** (nu + 1)) / (nu + 1)
        if dirichlet_idx is None:
            dirichlet_idx = np.asarray(mesh.boundary_idx, dtype=int)
        else:
            dirichlet_idx = np.asarray(dirichlet_idx, dtype=int)
        if eps_reg is None:
            eps_reg = mesh.h_min
        for a in (h, m, vol, dirichlet_idx):
            a.setflags(write=False)
        return cls(mesh=mesh, p=p, eps_reg=float(eps_reg), h_face=h, m_face=m,
                   volumes=vol, dirichlet_idx=dirichlet_idx)

    def _flux(self, u: np.ndarray, eps: float):
        du = np.diff(u) / self.h_face
        if self.p == 2.0:
            return du, np.ones_like(du)
        w = du * du + eps * eps
        q = w ** ((self.p - 2.0) / 2.0) * du
        dq = w ** ((self.p - 4.0) / 2.0) * ((self.p - 1.0) * du * du + eps * eps)
        return q, dq

    def residual(self, u, *, weight, f, fp, source=None, mass_coef=0.0, u_prev=None,
                 dirichlet_val=None, eps: float | None = None):
        """Residual of  mass*(u-u_prev) - div flux + weight*f(u) - source  and its scale.

        Dirichlet rows are replaced by u - value.  Returns (R, scale) where
        scale bounds the magnitude of the row's individual terms.
        """
        eps = self.eps_reg if eps is None else eps
        q, _ = self._flux(u, eps)
        flux = self.m_face * q
        div = np.zeros_like(u)
        div[1:-1] = (flux[1:] - flux[:-1]) / self.volumes[1:-1]
        div[0] = flux[0] / self.volumes[0]
        div[-1] = -flux[-1] / self.volumes[-1]
        absorb = weight * f(u)
        R = -div + absorb
        # scale by pre-cancellation term magnitudes: the flux difference loses
        # digits in the boundary layer and would otherwise set a false floor
        div_mag = np.abs(div)
        div_mag[1:-1] = (np.abs(flux[1:]) + np.abs(flux[:-1])) / self.volumes[1:-1]
        scale = div_mag + np.abs(absorb)
        if mass_coef:
            dmass = mass_coef * (u - u_prev)
            R += dmass
            scale += mass_coef * (np.abs(u) + np.abs(u_prev))
        if source is not None:
            R -= source
            scale += np.abs(source)
        if dirichlet_val is not None:
            idx = self.dirichlet_idx
            dv = dirichlet_val[idx] if np.ndim(dirichlet_val) else dirichlet_val
            R[idx] = u[idx] - dv
            scale[idx] = np.abs(dv) + np.abs(u[idx])
        return R, scale

    def _jacobian_banded(self, u, *, weight, fp, mass_coef=0.0, dirichlet: bool,
                         eps: float | None = None):
        eps = self.eps_reg if eps is None else eps
        _, dq = self._flux(u, eps)
        c = self.m_face * dq / self.h_face  # face conductances
        n = u.size
        diag = np.zeros(n)
        diag[:-1] += c / self.volumes[:-1]
        diag[1:] += c / self.volumes[1:]
        lower = np.zeros(n - 1)
        upper = np.zeros(n - 1)
        lower[:] = -c / self.volumes[1:]
        upper[:] = -c / self.volumes[:-1]
        diag += weight * fp(u) + mass_coef
        if dirichlet:
            for i in self.dirichlet_idx:
                diag[i] = 1.0
                if i > 0:
                    lower[i - 1] = 0.0
                if i < n - 1:
                    upper[i] = 0.0
        ab = np.zeros((3, n))
        ab[0, 1:] = upper
        ab[1, :] = diag
        ab[2, :-1] = lower
        return ab


def newton_solve(disc: Discretization, u0, *, weight, f, fp, source=None,
                 mass_coef=0.0, u_prev=None, dirichlet_val=None,
                 rtol=NEWTON_RTOL, max_iter=MAX_NEWTON) -> tuple[np.ndarray, dict]:
    """Damped Newton iteration for one nonlinear FV system.

    For p far from 2 a failed solve is retried on a ladder of larger
    regularizations, warm-starting the original one (simple continuation).
    Non-positive iterates are projected back to zero and counted.
    """
    eps_ladder = [disc.eps_reg]
    if disc.p != 2.0:
        eps_ladder = [disc.eps_reg * 100.0, disc.eps_reg * 10.0, disc.eps_reg]
    u = np.array(u0, dtype=float)
    info: dict = {"iterations": 0, "projections": 0, "restarts": 0}
    last_exc: SolverError | None = None
    for k, eps in enumerate(eps_ladder):
        final = eps == disc.eps_reg
        try:
            u = _newton_single(disc, u, weight=weight, f=f, fp=fp, source=source,
                               mass_coef=mass_coef, u_prev=u_prev,
                               dirichlet_val=dirichlet_val, rtol=rtol if final else 1e-6,
                               max_iter=max_iter, eps=eps, info=info)
            last_exc = None
            if final:
                return u, info
        except SolverError as exc:
            last_exc = exc
            info["restarts"] += 1
            u = np.array(u0, dtype=float)
    if last_exc is not None:
        raise last_exc
    return u, info


def _newton_single(disc, u0, *, weight, f, fp, source, mass_coef, u_prev,
                   dirichlet_val, rtol, max_iter, eps, info) -> np.ndarray:
    u = np.array(u0, dtype=float)
    dirichlet = dirichlet_val is not None
    merit_hist = []
    # residual is a pure function of u and the frozen arguments, so the
    # (R, scale) of an accepted line-search point is carried over, not recomputed
    R, scale = disc.residual(u, weight=weight, f=f, fp=fp, source=source,
                             mass_coef=mass_coef, u_prev=u_prev,
                             dirichlet_val=dirichlet_val, eps=eps)
    for it in range(max_iter):
        # the scaling weights are frozen per iteration: re-scaling inside the
        # line search would hide genuine residual decrease
        wts = 1.0 / (1.0 + scale)
        merit = float(np.max(np.abs(R) * wts))
        merit_hist.append(merit)
        if merit <= rtol:
            info["iterations"] += it
            return u
        # backtracking uses a smooth l2 merit (the Newton direction is always
        # a descent direction for it); convergence stays in the max norm
        ls_merit = float(np.linalg.norm(R * wts))
        ab = disc._jacobian_banded(u, weight=weight, fp=fp, mass_coef=mass_coef,
                                   dirichlet=dirichlet, eps=eps)
        # row equilibration guards the factorization across blow-up magnitudes;
        # in banded layout row i owns ab[1, i], ab[0, i+1], ab[2, i-1]
        r = np.abs(ab[1]).copy()
        r[:-1] = np.maximum(r[:-1], np.abs(ab[0, 1:]))
        r[1:] = np.maximum(r[1:], np.abs(ab[2, :-1]))
        r = np.maximum(r, 1e-300)
        ab[1] /= r
        ab[0, 1:] /= r[:-1]
        ab[2, :-1] /= r[1:]
        try:
            delta = solve_banded((1, 1), ab, -R / r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"linear solve failed: {exc}", {"iteration": it}) from exc
        lam = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            u_try = u + lam * delta
            if np.any(u_try < 0.0):
                info["projections"] += 1
                u_try = np.maximum(u_try, 0.0)
            R_try, scale_try = disc.residual(u_try, weight=weight, f=f, fp=fp,
                                             source=source, mass_coef=mass_coef,
                                             u_prev=u_prev, dirichlet_val=dirichlet_val,
                                             eps=eps)
            merit_try = float(np.linalg.norm(R_try * wts))
            if np.isfinite(merit_try) and merit_try < ls_merit * (1.0 - 1e-3 * lam) + 1e-16:
                u, R, scale = u_try, R_try, scale_try
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise SolverError(
                "Newton stalled: no descent direction accepted",
                {"iteration": it, "merit": merit, "history": merit_hist[-6:]},
            )
    raise SolverError(
        f"Newton did not converge in {max_iter} iterations",
        {"merit": merit_hist[-1], "history": merit_hist[-6:]},
    )
