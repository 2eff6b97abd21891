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

A ``Discretization`` keeps the four rows of its Newton systems (the three
diagonals and the right-hand side) as one ``Tridiagonal``, allocated on
first use.  Every iteration writes the Jacobian, its row equilibration and
the right-hand side into those rows, and LAPACK ``gtsv`` (the routine ``scipy.linalg.solve_banded`` dispatches to for one
lower and one upper band, so iterates are the same to the bit) solves the
system in place.  The solver checks the system itself and reports a
non-finite one as a ``SolverError``.

``gtsv`` is the ``dgtsv`` of the OpenBLAS that numpy's wheels bundle
(``numpy.libs``, or ``numpy/.dylibs`` on macOS), which ``import numpy`` has
already mapped.  It is called through ``ctypes`` with the rows' addresses,
taken once per ``Tridiagonal``.  So a solver session maps no second
OpenBLAS and imports no scipy module: ``scipy.linalg._flapack`` links
scipy's own copy of OpenBLAS, and loading it took 4-6 ms and 2.7 MB of
resident memory on a 2-core x86-64 machine (numpy 2.4, scipy 1.17).  A
numpy build that bundles no OpenBLAS (conda with MKL, a system BLAS, macOS
Accelerate) takes ``dgtsv`` from ``scipy.linalg._flapack`` instead, loaded
by ``scipyext.load_extension`` without the package inits of
``scipy.linalg`` and ``scipy``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import SolverError
from .geometry import Mesh
from .scipyext import load_extension

NEWTON_RTOL = 1e-10
MAX_NEWTON = 200
MAX_BACKTRACK = 30

# dgtsv's symbol in the OpenBLAS of numpy's wheels, and its Fortran integer:
# scipy-openblas64 (ILP64) and scipy-openblas32
_GTSV_SYMBOLS = (("scipy_dgtsv_64_", ctypes.c_int64), ("scipy_dgtsv_", ctypes.c_int32))


class BundledGtsv(NamedTuple):
    """``dgtsv`` of a bundled OpenBLAS, bound through ``ctypes``."""

    function: Callable[..., None]
    fortran_int: type  # the ctypes type of LAPACK's INTEGER
    library: Path


def bundled_gtsv(directories=None) -> BundledGtsv | None:
    """``dgtsv`` from the OpenBLAS that numpy's wheel bundles, or None.

    The library is looked for in ``directories``, by default the folders in
    which numpy's wheels keep their bundled libraries.  None for a numpy
    build that bundles no OpenBLAS.
    """
    if directories is None:
        numpy_dir = Path(np.__file__).parent
        directories = (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
    for directory in directories:
        for library in sorted(Path(directory).glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(library))  # numpy's mapping, already loaded
            except OSError:
                continue
            for symbol, fortran_int in _GTSV_SYMBOLS:
                function = getattr(lib, symbol, None)
                if function is not None:
                    # N, NRHS, DL, D, DU, B, LDB, INFO, all by reference
                    function.argtypes = (ctypes.c_void_p,) * 8
                    function.restype = None
                    return BundledGtsv(function, fortran_int, library)
    return None


GTSV = bundled_gtsv()


class Tridiagonal:
    """One n-row tridiagonal system, held for LAPACK ``gtsv`` to solve in place.

    The rows are the sub-, main and super-diagonals ``lower``, ``diag``,
    ``upper`` and the right-hand side ``rhs``, of lengths n-1, n, n-1 and n,
    end to end in one float64 buffer that the system allocates itself: the
    ``ctypes`` call checks nothing, so ``gtsv`` is only ever handed memory
    of the lengths it was told.  The buffer's address is taken once, so
    Newton iterations that refill the same rows pay for it once.
    """

    __slots__ = ("lower", "diag", "upper", "rhs", "_buf", "_gtsv")

    def __init__(self, n: int):
        """An n-row system, its rows uninitialized."""
        self._buf = buf = np.empty(4 * n - 2)
        rows = self.lower, self.diag, self.upper, self.rhs = (
            buf[:n - 1], buf[n - 1:2 * n - 1], buf[2 * n - 1:3 * n - 2], buf[3 * n - 2:])
        if GTSV is None:
            dgtsv = load_extension("scipy.linalg._flapack").dgtsv
            self._gtsv = lambda: dgtsv(*rows, 1, 1, 1, 1)[4]
            return
        base = buf.ctypes.data
        size, nrhs, info = GTSV.fortran_int(n), GTSV.fortran_int(1), GTSV.fortran_int(0)
        # self holds the buffer, and the by-reference arguments their integers
        call = partial(GTSV.function, ctypes.byref(size), ctypes.byref(nrhs),
                       *(base + k * buf.itemsize for k in (0, n - 1, 2 * n - 1, 3 * n - 2)),
                       ctypes.byref(size), ctypes.byref(info))

        def gtsv():
            call()
            return info.value

        self._gtsv = gtsv

    @classmethod
    def of(cls, lower, diag, upper, rhs) -> "Tridiagonal":
        """The system with copies of the given rows, which must be 1-d float64
        arrays of lengths n-1, n, n-1 and n; anything else raises ``ValueError``."""
        rows = (lower, diag, upper, rhs)
        if not all(isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
                   for a in rows):
            raise ValueError("the rows must be 1-d float64 arrays")
        n = diag.size
        if n == 0 or (lower.size, upper.size, rhs.size) != (n - 1, n - 1, n):
            raise ValueError(f"row lengths {lower.size}, {n}, {upper.size}, {rhs.size}: "
                             "need n-1, n, n-1, n with n >= 1")
        system = cls(n)
        for row, a in zip((system.lower, system.diag, system.upper, system.rhs), rows):
            row[...] = a
        return system

    def equilibrate(self) -> np.ndarray:
        """Divide each row of the matrix by its largest magnitude, at least
        1e-300, and return those magnitudes; row i owns diag[i], upper[i]
        and lower[i-1]."""
        n = self.diag.size
        mag = np.abs(self._buf[:3 * n - 2])  # |lower|, |diag|, |upper|
        r = mag[n - 1:2 * n - 1]
        np.maximum(r[:-1], mag[2 * n - 1:], out=r[:-1])
        np.maximum(r[1:], mag[:n - 1], out=r[1:])
        np.maximum(r, 1e-300, out=r)
        self.diag /= r
        self.upper /= r[:-1]
        self.lower /= r[1:]
        return r

    def isfinite(self) -> bool:
        """Whether every entry of the four rows is finite."""
        return bool(np.isfinite(self._buf).all())


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
    def _newton_rows(self) -> Tridiagonal:
        # the rows of every Newton system on this mesh, refilled at each
        # iteration: solves on one Discretization must not overlap
        return Tridiagonal(self.volumes.size)

    @cached_property
    def _linear_bands(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        # p = 2: the u-independent (lower, conductance diag, upper), read-only,
        # indexed by the Dirichlet flag
        n = self.volumes.size
        c = self.m_face / self.h_face
        bands = []
        for dirichlet in (False, True):
            band = np.empty(n - 1), np.empty(n), np.empty(n - 1)
            self._conductance_bands(c, dirichlet, *band)
            for a in band:
                a.setflags(write=False)
            bands.append(band)
        return tuple(bands)

    def _conductance_bands(self, c, dirichlet: bool, lower, diag, upper) -> None:
        """Write the off-diagonals and the conductance part of the diagonal for
        the face conductances ``c`` into (lower, diag, upper); Dirichlet rows
        get zero off-diagonals."""
        np.divide(c, self.volumes[1:], out=lower)  # face i's share in row i + 1
        np.divide(c, self.volumes[:-1], out=upper)  # and in row i
        diag[:-1] = upper
        diag[-1] = 0.0
        diag[1:] += lower
        np.negative(lower, out=lower)
        np.negative(upper, out=upper)
        if dirichlet:
            # row i owns lower[i-1] and upper[i]
            for i in self._dirichlet_nodes:
                if i > 0:
                    lower[i - 1] = 0.0
                if i < upper.size:
                    upper[i] = 0.0

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

    def _jacobian_banded(self, u, system: Tridiagonal, *, weight, fp, mass_coef=0.0,
                         dirichlet: bool, eps: float | None = None) -> None:
        """Write the residual's Jacobian into the (lower, diag, upper) rows of
        ``system``."""
        lower, diag, upper = system.lower, system.diag, system.upper
        if self.p == 2.0:
            lin_lower, lin_diag, lin_upper = self._linear_bands[dirichlet]
            np.copyto(lower, lin_lower)
            np.copyto(upper, lin_upper)
            np.multiply(weight, fp(u), out=diag)
            diag += mass_coef
            diag += lin_diag
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
            self._conductance_bands(c, dirichlet, lower, diag, upper)
            t = weight * fp(u)
            t += mass_coef
            diag += t  # the same bits as t + diag
        if dirichlet:
            for i in self._dirichlet_nodes:
                diag[i] = 1.0


def solve_banded(system: Tridiagonal) -> np.ndarray:
    """Solve the tridiagonal ``system`` by LAPACK ``gtsv``.

    ``gtsv`` (Gaussian elimination with partial pivoting) overwrites all four
    rows; the solution is returned in the storage of ``system.rhs``.  The
    rows must be finite.
    """
    info = system._gtsv()
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix (zero pivot in row {info})")
    if info < 0:
        raise ValueError(f"gtsv: argument {-info} has an illegal value")
    return system.rhs


def newton_solve(disc: Discretization, u0, *, weight, f, fp, source=None,
                 mass_coef=0.0, u_prev=None, dirichlet_val=None) -> tuple[np.ndarray, dict]:
    """Damped Newton iteration for one nonlinear FV system.

    For p != 2 the solve runs in three stages, at 100, 10 and 1 times the
    regularization ``disc.eps_reg``, each warm-started from the last; the
    first two stop at a scaled residual of 1e-6, the last at ``NEWTON_RTOL``.
    A failing stage's ``SolverError`` ends the solve.  Negative entries of a
    line-search trial point are set to zero, and each trial point so
    projected adds one to ``projections``.  Solves on one ``disc`` share its
    Newton rows, so they must not run concurrently.
    """
    u = np.array(u0, dtype=float)
    info: dict = {"iterations": 0, "projections": 0}
    system = disc._newton_rows
    for factor in (100.0, 10.0, 1.0) if disc.p != 2.0 else (1.0,):
        u = _newton_single(disc, u, system, weight=weight, f=f, fp=fp, source=source,
                           mass_coef=mass_coef, u_prev=u_prev, dirichlet_val=dirichlet_val,
                           rtol=NEWTON_RTOL if factor == 1.0 else 1e-6,
                           eps=disc.eps_reg * factor, info=info)
    return u, info


def _newton_single(disc, u, system, *, weight, f, fp, source, mass_coef, u_prev,
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
        disc._jacobian_banded(u, system, weight=weight, fp=fp, mass_coef=mass_coef,
                              dirichlet=dirichlet, eps=eps)
        # row equilibration guards the factorization across blow-up magnitudes;
        # an equilibrated row is finite exactly when its scale r is
        r = system.equilibrate()
        np.divide(R, r, out=system.rhs)
        if not system.isfinite():
            raise SolverError("non-finite Newton system", {"iteration": it, "merit": merit})
        # gtsv is odd in the right-hand side, bit for bit: solved for R / r,
        # the system returns minus the step that -R / r would give
        try:
            neg_delta = solve_banded(system)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"linear solve failed: {exc}", {"iteration": it}) from exc
        lam = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            u_try = u - neg_delta if lam == 1.0 else u - lam * neg_delta
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
