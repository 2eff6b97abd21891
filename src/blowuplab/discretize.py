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

Each Newton system is tridiagonal and is held as its three diagonals.  For
p = 2 the face conductances do not depend on u, so a ``Discretization``
computes the off-diagonals and the conductance part of the diagonal once and
keeps them read-only, one set with the Dirichlet rows' zero off-diagonals and
one without; each Newton iteration copies the off-diagonals and adds the
absorption and mass terms to the diagonal.  The residual and the Jacobian
are assembled with few numpy temporaries, but with the floating-point
operations, and their order, of the plain formulas, so iterates do not
change in any bit.

A Newton system is solved by LAPACK ``gtsv`` called directly, without
scipy's validation layer (the routine ``scipy.linalg.solve_banded``
dispatches to for one lower and one upper band, so iterates are the same to
the bit); the solver checks the system itself and reports a non-finite one
as a ``SolverError``.

``gtsv`` is taken from scipy's compiled ``_flapack`` extension, loaded by
``scipyext.load_extension`` without ``scipy.linalg``'s package init, which
clones numpy's namespace (pulling in ``numpy.f2py``, ``numpy.testing``,
``numpy.random`` and ``numpy.ma``) and, with scipy 1.17 on a 2-core x86-64
machine, costs about 0.3 s and 20 MB per run, and without ``scipy``'s own
init (13-16 ms and 1.3 MB more), so a solver session that never integrates
leaves ``scipy`` unloaded.  A later ``import scipy.linalg`` reuses that
module; a build without the extension file (editable or meson), or one whose
file loads only after scipy's init, imports it through ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SolverError
from .geometry import Mesh
from .scipyext import load_extension

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
    def build(cls, mesh: Mesh, p: float, dirichlet_idx=None) -> "Discretization":
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
        for a in (h, m, vol, dirichlet_idx):
            a.setflags(write=False)
        return cls(mesh=mesh, p=p, eps_reg=float(mesh.h_min), h_face=h, m_face=m,
                   volumes=vol, dirichlet_idx=dirichlet_idx)

    @cached_property
    def _dirichlet_nodes(self) -> tuple[int, ...]:
        # at most the two ends: indexing them one by one beats fancy indexing
        return tuple(self.dirichlet_idx.tolist())

    @cached_property
    def _linear_bands(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # p = 2: the u-independent (lower, conductance diag, upper), read-only,
        # indexed by the Dirichlet flag
        c = self.m_face / self.h_face
        c_lo, c_up = c / self.volumes[1:], c / self.volumes[:-1]
        bands = tuple(self._conductance_bands(c_lo, c_up, dirichlet)
                      for dirichlet in (False, True))
        for band in bands:
            for a in band:
                a.setflags(write=False)
        return bands

    def _conductance_bands(self, c_lo, c_up, dirichlet: bool):
        """The off-diagonals and the conductance part of the diagonal for the
        face conductances over the volumes below (c_lo) and above (c_up) each
        face, as fresh (lower, diag, upper); Dirichlet rows get zero off-diagonals."""
        diag = np.empty(self.volumes.size)
        diag[:-1] = c_up
        diag[-1] = 0.0
        diag[1:] += c_lo
        lower, upper = np.negative(c_lo), np.negative(c_up)
        if dirichlet:
            # row i owns lower[i-1] and upper[i]
            for i in self._dirichlet_nodes:
                if i > 0:
                    lower[i - 1] = 0.0
                if i < upper.size:
                    upper[i] = 0.0
        return lower, diag, upper

    def _gradient(self, u: np.ndarray, eps: float):
        """Face gradients du and, for p != 2, the regularized du**2 + eps**2."""
        du = u[1:] - u[:-1]
        du /= self.h_face
        if self.p == 2.0:
            return du, None
        w = du * du
        w += eps * eps
        return du, w

    def residual(self, u, *, weight, f, source=None, mass_coef=0.0, u_prev=None,
                 dirichlet_val=None, eps: float | None = None):
        """Residual of  mass*(u-u_prev) - div flux + weight*f(u) - source  and its scale.

        Dirichlet rows are replaced by u - value.  Returns (R, scale) where
        scale bounds the magnitude of the row's individual terms.
        """
        eps = self.eps_reg if eps is None else eps
        flux, w = self._gradient(u, eps)
        if w is not None:
            w **= (self.p - 2.0) / 2.0
            flux *= w
        if self.mesh.domain.metric_power:  # the face weights are all ones on an interval
            flux *= self.m_face
        vol = self.volumes
        # R holds div flux until the absorption is in
        R = np.empty_like(u)
        np.subtract(flux[1:], flux[:-1], out=R[1:-1])
        R[1:-1] /= vol[1:-1]
        R[0] = flux[0] / vol[0]
        R[-1] = -flux[-1] / vol[-1]
        # scale by pre-cancellation term magnitudes: the flux difference loses
        # digits in the boundary layer and would otherwise set a false floor
        scale = np.abs(R)
        np.abs(flux, out=flux)
        np.add(flux[1:], flux[:-1], out=scale[1:-1])
        scale[1:-1] /= vol[1:-1]
        absorb = weight * f(u)
        np.subtract(absorb, R, out=R)
        scale += np.abs(absorb, out=absorb)
        if mass_coef:
            t = u - u_prev
            t *= mass_coef
            R += t
            np.abs(u, out=t)
            t += np.abs(u_prev)
            t *= mass_coef
            scale += t
        if source is not None:
            R -= source
            scale += np.abs(source)
        if dirichlet_val is not None:
            values = isinstance(dirichlet_val, np.ndarray)
            for i in self._dirichlet_nodes:
                dv = dirichlet_val[i] if values else dirichlet_val
                R[i] = u[i] - dv
                scale[i] = abs(dv) + abs(u[i])
        return R, scale

    def _jacobian_banded(self, u, *, weight, fp, mass_coef=0.0, dirichlet: bool,
                         eps: float | None = None):
        """The residual's Jacobian as its (lower, diag, upper) diagonals, each a
        fresh array (the equilibration and ``gtsv`` overwrite them)."""
        if self.p == 2.0:
            lower, diag, upper = self._linear_bands[dirichlet]
            lower, upper = lower.copy(), upper.copy()
        else:
            eps = self.eps_reg if eps is None else eps
            du, c = self._gradient(u, eps)
            # face conductances m * w**((p-4)/2) * ((p-1) du**2 + eps**2) / h
            c **= (self.p - 4.0) / 2.0
            t = (self.p - 1.0) * du
            t *= du
            t += eps * eps
            c *= t
            if self.mesh.domain.metric_power:
                c *= self.m_face
            c /= self.h_face
            lower, diag, upper = self._conductance_bands(
                c / self.volumes[1:], c / self.volumes[:-1], dirichlet)
        t = weight * fp(u)
        t += mass_coef
        t += diag
        if dirichlet:
            for i in self._dirichlet_nodes:
                t[i] = 1.0
        return lower, t, upper


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
                 mass_coef=0.0, u_prev=None, dirichlet_val=None) -> tuple[np.ndarray, dict]:
    """Damped Newton iteration for one nonlinear FV system.

    For p != 2 the solve runs in three stages, at 100, 10 and 1 times the
    regularization ``disc.eps_reg``, each warm-started from the last; the
    first two stop at a scaled residual of 1e-6, the last at ``NEWTON_RTOL``.
    A failing stage's ``SolverError`` ends the solve.  Negative entries of a
    line-search trial point are set to zero, and each trial point so
    projected adds one to ``projections``.
    """
    u = np.array(u0, dtype=float)
    info: dict = {"iterations": 0, "projections": 0}
    for factor in (100.0, 10.0, 1.0) if disc.p != 2.0 else (1.0,):
        u = _newton_single(disc, u, weight=weight, f=f, fp=fp, source=source,
                           mass_coef=mass_coef, u_prev=u_prev, dirichlet_val=dirichlet_val,
                           rtol=NEWTON_RTOL if factor == 1.0 else 1e-6,
                           eps=disc.eps_reg * factor, info=info)
    return u, info


def _newton_single(disc, u, *, weight, f, fp, source, mass_coef, u_prev,
                   dirichlet_val, rtol, eps, info) -> np.ndarray:
    # u is never written in place: each accepted iterate is a new array
    dirichlet = dirichlet_val is not None
    merit_hist = []
    # residual is a pure function of u and the frozen arguments, so the
    # (R, scale) of an accepted line-search point is carried over, not recomputed
    R, scale = disc.residual(u, weight=weight, f=f, source=source, mass_coef=mass_coef,
                             u_prev=u_prev, dirichlet_val=dirichlet_val, eps=eps)
    for it in range(MAX_NEWTON):
        # the scaling weights are frozen per iteration: re-scaling inside the
        # line search would hide genuine residual decrease
        wts = 1.0 / (1.0 + scale)
        scaled = R * wts
        merit = float(np.abs(scaled).max())  # |R| * wts, as wts > 0
        merit_hist.append(merit)
        if merit <= rtol:
            info["iterations"] += it
            return u
        # backtracking uses a smooth l2 merit (the Newton direction is always
        # a descent direction for it); convergence stays in the max norm
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
            u_try = u + delta if lam == 1.0 else u + lam * delta
            if (u_try < 0.0).any():
                info["projections"] += 1
                np.maximum(u_try, 0.0, out=u_try)
            R_try, scale_try = disc.residual(u_try, weight=weight, f=f, source=source,
                                             mass_coef=mass_coef, u_prev=u_prev,
                                             dirichlet_val=dirichlet_val, eps=eps)
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
        f"Newton did not converge in {MAX_NEWTON} iterations",
        {"merit": merit_hist[-1], "history": merit_hist[-6:]},
    )
