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

Each Newton system is tridiagonal and is held as its three diagonals.  It is
solved by LAPACK ``gtsv`` called directly, without scipy's validation layer
(the routine ``scipy.linalg.solve_banded`` dispatches to for one lower and
one upper band, so iterates are the same to the bit); the solver checks the
system itself and reports a non-finite one as a ``SolverError``.

``gtsv`` is taken from scipy's compiled ``_flapack`` extension, loaded by
``scipyext.load_extension`` without ``scipy.linalg``'s package init, which
clones numpy's namespace (pulling in ``numpy.f2py``, ``numpy.testing``,
``numpy.random`` and ``numpy.ma``) and, with scipy 1.17 on a 2-core x86-64
machine, costs about 0.3 s and 20 MB per run.  A later ``import scipy.linalg``
reuses that module; a build without the extension file (editable or meson)
imports it through ``scipy.linalg``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SolverError
from .geometry import Mesh
from .scipyext import load_extension

logger = logging.getLogger(__name__)

dgtsv = load_extension("scipy.linalg._flapack").dgtsv

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

    @cached_property
    def _dirichlet_bands(self) -> tuple[np.ndarray, np.ndarray]:
        # off-diagonal entries of the Dirichlet rows: lower[i-1] and upper[i]
        idx, n = self.dirichlet_idx, self.mesh.nodes.size
        return idx[idx > 0] - 1, idx[idx < n - 1]

    @cached_property
    def _linear_conductances(self) -> tuple[np.ndarray, np.ndarray]:
        # p = 2: the face conductances over the volumes below and above each
        # face do not depend on u
        c = self.m_face / self.h_face
        c_lo, c_up = c / self.volumes[1:], c / self.volumes[:-1]
        for a in (c_lo, c_up):
            a.setflags(write=False)
        return c_lo, c_up

    def _gradient(self, u: np.ndarray, eps: float):
        """Face gradients du and, for p != 2, the regularized du**2 + eps**2."""
        du = (u[1:] - u[:-1]) / self.h_face
        if self.p == 2.0:
            return du, None
        return du, du * du + eps * eps

    def _flux(self, u: np.ndarray, eps: float) -> np.ndarray:
        du, w = self._gradient(u, eps)
        if w is None:
            return du
        return w ** ((self.p - 2.0) / 2.0) * du

    def residual(self, u, *, weight, f, fp, source=None, mass_coef=0.0, u_prev=None,
                 dirichlet_val=None, eps: float | None = None):
        """Residual of  mass*(u-u_prev) - div flux + weight*f(u) - source  and its scale.

        Dirichlet rows are replaced by u - value.  Returns (R, scale) where
        scale bounds the magnitude of the row's individual terms.
        """
        eps = self.eps_reg if eps is None else eps
        flux = self.m_face * self._flux(u, eps)
        vol = self.volumes
        div = np.empty_like(u)
        div[1:-1] = (flux[1:] - flux[:-1]) / vol[1:-1]
        div[0] = flux[0] / vol[0]
        div[-1] = -flux[-1] / vol[-1]
        absorb = weight * f(u)
        R = -div + absorb
        # scale by pre-cancellation term magnitudes: the flux difference loses
        # digits in the boundary layer and would otherwise set a false floor
        div_mag = np.abs(div)
        div_mag[1:-1] = (np.abs(flux[1:]) + np.abs(flux[:-1])) / vol[1:-1]
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
            dv = dirichlet_val[idx] if isinstance(dirichlet_val, np.ndarray) else dirichlet_val
            R[idx] = u[idx] - dv
            scale[idx] = np.abs(dv) + np.abs(u[idx])
        return R, scale

    def _jacobian_banded(self, u, *, weight, fp, mass_coef=0.0, dirichlet: bool,
                         eps: float | None = None):
        """The residual's Jacobian as its (lower, diag, upper) diagonals, each a
        fresh array (the equilibration and ``gtsv`` overwrite them)."""
        eps = self.eps_reg if eps is None else eps
        if self.p == 2.0:
            c_lo, c_up = self._linear_conductances
        else:
            du, w = self._gradient(u, eps)
            dq = w ** ((self.p - 4.0) / 2.0) * ((self.p - 1.0) * du * du + eps * eps)
            c = self.m_face * dq / self.h_face  # face conductances
            c_lo = c / self.volumes[1:]
            c_up = c / self.volumes[:-1]
        diag = np.empty(u.size)
        diag[:-1] = c_up
        diag[-1] = 0.0
        diag[1:] += c_lo
        diag += weight * fp(u) + mass_coef
        lower = -c_lo
        upper = -c_up
        if dirichlet:
            lo, up = self._dirichlet_bands
            diag[self.dirichlet_idx] = 1.0
            lower[lo] = 0.0
            upper[up] = 0.0
        return lower, diag, upper


def solve_banded(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system with the given sub-, main and super-diagonals.

    LAPACK ``gtsv`` (Gaussian elimination with partial pivoting) overwrites
    all four arrays; the solution is returned in the storage of ``rhs``.
    The arrays must be finite, contiguous float64.
    """
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix (zero pivot in row {info})")
    return x


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
        merit = float((np.abs(R) * wts).max())
        merit_hist.append(merit)
        if merit <= rtol:
            info["iterations"] += it
            return u
        # backtracking uses a smooth l2 merit (the Newton direction is always
        # a descent direction for it); convergence stays in the max norm
        scaled = R * wts
        ls_merit = math.sqrt(scaled.dot(scaled))
        lower, diag, upper = disc._jacobian_banded(u, weight=weight, fp=fp,
                                                   mass_coef=mass_coef,
                                                   dirichlet=dirichlet, eps=eps)
        # row equilibration guards the factorization across blow-up magnitudes;
        # row i owns diag[i], upper[i] and lower[i-1]
        r = np.abs(diag)
        np.maximum(r[:-1], np.abs(upper), out=r[:-1])
        np.maximum(r[1:], np.abs(lower), out=r[1:])
        np.maximum(r, 1e-300, out=r)
        diag /= r
        upper /= r[:-1]
        lower /= r[1:]
        rhs = -R / r
        # an equilibrated row is finite exactly when its r is
        if not (np.isfinite(r).all() and np.isfinite(rhs).all()):
            raise SolverError("non-finite Newton system", {"iteration": it, "merit": merit})
        try:
            delta = solve_banded(lower, diag, upper, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"linear solve failed: {exc}", {"iteration": it}) from exc
        lam = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            u_try = u + lam * delta
            if (u_try < 0.0).any():
                info["projections"] += 1
                u_try = np.maximum(u_try, 0.0)
            R_try, scale_try = disc.residual(u_try, weight=weight, f=f, fp=fp,
                                             source=source, mass_coef=mass_coef,
                                             u_prev=u_prev, dirichlet_val=dirichlet_val,
                                             eps=eps)
            scaled = R_try * wts
            merit_try = math.sqrt(scaled.dot(scaled))
            if math.isfinite(merit_try) and merit_try < ls_merit * (1.0 - 1e-3 * lam) + 1e-16:
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
