import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import solve_banded

from blowuplab import discretize
from blowuplab.discretize import (
    MAX_BACKTRACK,
    MAX_NEWTON,
    NEWTON_RTOL,
    Discretization,
    Tridiagonal,
    newton_solve,
)
from blowuplab.errors import SolverError
from blowuplab.geometry import ball, build_graded_mesh, interval
from blowuplab.nonlinearity import power
from blowuplab.scipyext import load_extension


def test_newton_evaluates_one_residual_per_iteration(monkeypatch):
    # one backward-Euler step of u_t - u'' + u^2 = 0: full Newton steps, no backtracking
    mesh = build_graded_mesh(interval(0.0, 1.0), 32, 1.0)
    disc = Discretization.build(mesh, 2.0)
    nl = power(2)
    x = mesh.nodes
    u_prev = 10.0 * (1.0 + 4.0 * x * (1.0 - x))
    kw = dict(weight=np.ones_like(x), f=nl.func, mass_coef=1.0 / 0.05,
              u_prev=u_prev, dirichlet_val=u_prev)
    calls = []
    real = Discretization.residual
    monkeypatch.setattr(Discretization, "residual",
                        lambda self, u, **k: calls.append(1) or real(self, u, **k))
    u, info = newton_solve(disc, u_prev, fp=nl.deriv, **kw)
    k = info["iterations"]
    assert k >= 2 and info["projections"] == 0
    # the residual at each accepted point is reused by the next iteration
    assert len(calls) == k + 1
    R, scale = real(disc, u, **kw)
    assert np.max(np.abs(R) / (1.0 + scale)) <= NEWTON_RTOL


# -- reference kernel: the 3 x n band matrix solved by scipy.linalg.solve_banded --

def _reference_residual(disc, u, *, weight, f, source=None, mass_coef=0.0,
                        u_prev=None, dirichlet_val=None, eps):
    du = np.diff(u) / disc.h_face
    if disc.p == 2.0:
        q = du
    else:
        q = (du * du + eps * eps) ** ((disc.p - 2.0) / 2.0) * du
    flux = disc.m_face * q
    div = np.zeros_like(u)
    div[1:-1] = (flux[1:] - flux[:-1]) / disc.volumes[1:-1]
    div[0] = flux[0] / disc.volumes[0]
    div[-1] = -flux[-1] / disc.volumes[-1]
    absorb = weight * f(u)
    R = -div + absorb
    div_mag = np.abs(div)
    div_mag[1:-1] = (np.abs(flux[1:]) + np.abs(flux[:-1])) / disc.volumes[1:-1]
    scale = div_mag + np.abs(absorb)
    if mass_coef:
        R += mass_coef * (u - u_prev)
        scale += mass_coef * (np.abs(u) + np.abs(u_prev))
    if source is not None:
        R -= source
        scale += np.abs(source)
    if dirichlet_val is not None:
        idx = disc.dirichlet_idx
        dv = dirichlet_val[idx] if np.ndim(dirichlet_val) else dirichlet_val
        R[idx] = u[idx] - dv
        scale[idx] = np.abs(dv) + np.abs(u[idx])
    return R, scale


def _reference_band_matrix(disc, u, *, weight, fp, mass_coef, dirichlet, eps):
    du = np.diff(u) / disc.h_face
    if disc.p == 2.0:
        dq = np.ones_like(du)
    else:
        w = du * du + eps * eps
        dq = w ** ((disc.p - 4.0) / 2.0) * ((disc.p - 1.0) * du * du + eps * eps)
    c = disc.m_face * dq / disc.h_face
    n = u.size
    diag = np.zeros(n)
    diag[:-1] += c / disc.volumes[:-1]
    diag[1:] += c / disc.volumes[1:]
    lower = -c / disc.volumes[1:]
    upper = -c / disc.volumes[:-1]
    diag += weight * fp(u) + mass_coef
    if dirichlet:
        for i in disc.dirichlet_idx:
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


def _reference_newton_single(disc, u0, *, weight, f, fp, source, mass_coef, u_prev,
                             dirichlet_val, rtol, eps, info):
    u = np.array(u0, dtype=float)
    kw = dict(weight=weight, f=f, source=source, mass_coef=mass_coef, u_prev=u_prev,
              dirichlet_val=dirichlet_val, eps=eps)
    R, scale = _reference_residual(disc, u, **kw)
    for it in range(MAX_NEWTON):
        wts = 1.0 / (1.0 + scale)
        if float(np.max(np.abs(R) * wts)) <= rtol:
            info["iterations"] += it
            return u
        ls_merit = float(np.linalg.norm(R * wts))
        ab = _reference_band_matrix(disc, u, weight=weight, fp=fp, mass_coef=mass_coef,
                                    dirichlet=dirichlet_val is not None, eps=eps)
        r = np.abs(ab[1]).copy()
        r[:-1] = np.maximum(r[:-1], np.abs(ab[0, 1:]))
        r[1:] = np.maximum(r[1:], np.abs(ab[2, :-1]))
        r = np.maximum(r, 1e-300)
        ab[1] /= r
        ab[0, 1:] /= r[:-1]
        ab[2, :-1] /= r[1:]
        delta = solve_banded((1, 1), ab, -R / r)
        lam = 1.0
        for _ in range(MAX_BACKTRACK):
            u_try = u + lam * delta
            if np.any(u_try < 0.0):
                info["projections"] += 1
                u_try = np.maximum(u_try, 0.0)
            R_try, scale_try = _reference_residual(disc, u_try, **kw)
            merit_try = float(np.linalg.norm(R_try * wts))
            if np.isfinite(merit_try) and merit_try < ls_merit * (1.0 - 1e-3 * lam) + 1e-16:
                u, R, scale = u_try, R_try, scale_try
                break
            lam *= 0.5
        else:
            raise SolverError("stalled")
    raise SolverError("no convergence")


def _reference_newton_solve(disc, u0, *, weight, f, fp, source=None, mass_coef=0.0,
                            u_prev=None, dirichlet_val=None):
    eps_stages = [disc.eps_reg]
    if disc.p != 2.0:
        eps_stages = [disc.eps_reg * 100.0, disc.eps_reg * 10.0, disc.eps_reg]
    u = np.array(u0, dtype=float)
    info = {"iterations": 0, "projections": 0}
    for eps in eps_stages:
        u = _reference_newton_single(disc, u, weight=weight, f=f, fp=fp, source=source,
                                     mass_coef=mass_coef, u_prev=u_prev,
                                     dirichlet_val=dirichlet_val,
                                     rtol=NEWTON_RTOL if eps == disc.eps_reg else 1e-6,
                                     eps=eps, info=info)
    return u, info


def _kernel_cases():
    nl2, nl3 = power(2), power(3)
    # p = 2 on an interval, Dirichlet data as an array
    mesh = build_graded_mesh(interval(0.0, 1.0), 40, 2.0)
    x = mesh.nodes
    u_prev = 10.0 * (1.0 + 4.0 * x * (1.0 - x))
    yield "p2-interval", Discretization.build(mesh, 2.0), u_prev, dict(
        weight=np.ones_like(x), f=nl2.func, fp=nl2.deriv, mass_coef=1.0 / 0.05,
        u_prev=u_prev, dirichlet_val=u_prev)
    # p = 3 on an interval: the three regularization stages, a scalar cap
    u_prev = np.full(x.size, 20.0)
    yield "p3-interval", Discretization.build(mesh, 3.0), u_prev, dict(
        weight=1.0 + x, f=nl3.func, fp=nl3.deriv, mass_coef=1.0 / 0.01,
        u_prev=u_prev, dirichlet_val=20.0)
    # a disc (N = 2): face weights r and a single Dirichlet node
    mesh = build_graded_mesh(ball(1.0, 2), 40, 2.0)
    r = mesh.nodes
    u_prev = 5.0 + 5.0 * r * r
    yield "ball2", Discretization.build(mesh, 2.0), u_prev, dict(
        weight=np.ones_like(r), f=nl2.func, fp=nl2.deriv, mass_coef=1.0 / 0.02,
        u_prev=u_prev, dirichlet_val=10.0)
    # p = 3 on the disc: the face-weighted p != 2 Jacobian
    u_prev = np.full(r.size, 20.0)
    yield "p3-ball2", Discretization.build(mesh, 3.0), u_prev, dict(
        weight=1.0 + r, f=nl3.func, fp=nl3.deriv, mass_coef=1.0 / 0.01,
        u_prev=u_prev, dirichlet_val=20.0)
    # zero-flux ends: no Dirichlet rows at all
    mesh = build_graded_mesh(interval(0.0, 1.0), 40, 1.0)
    x = mesh.nodes
    u_prev = 3.0 + np.sin(np.pi * x)
    yield "no-flux", Discretization.build(mesh, 2.0, dirichlet_idx=[]), u_prev, dict(
        weight=np.ones_like(x), f=nl2.func, fp=nl2.deriv, source=np.full(x.size, 2.0),
        mass_coef=1.0 / 0.05, u_prev=u_prev)
    # p = 2 from a start that dips far below zero: the line search halves the
    # step and projects negative iterates
    mesh = build_graded_mesh(interval(0.0, 1.0), 40, 2.0)
    x = mesh.nodes
    u_prev = 10.0 * (1.0 + 4.0 * x * (1.0 - x))
    yield "p2-far-start", Discretization.build(mesh, 2.0), 10.0 - 200.0 * np.sin(np.pi * x) ** 8, dict(
        weight=np.ones_like(x), f=nl2.func, fp=nl2.deriv, mass_coef=1.0, u_prev=u_prev,
        dirichlet_val=u_prev)
    # one Discretization solved with Dirichlet data, then without: the p = 2
    # Jacobian bands it keeps must not carry the Dirichlet rows into the second
    disc = Discretization.build(mesh, 2.0)
    kw = dict(weight=np.ones_like(x), f=nl2.func, fp=nl2.deriv, mass_coef=1.0 / 0.05,
              u_prev=u_prev)
    newton_solve(disc, u_prev, dirichlet_val=u_prev, **kw)
    yield "p2-free-after-dirichlet", disc, u_prev, kw


@pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda c: c[0])
def test_newton_matches_band_matrix_reference_bit_for_bit(case):
    _, disc, u0, kw = case
    u, info = newton_solve(disc, u0, **kw)
    u_ref, info_ref = _reference_newton_solve(disc, u0, **kw)
    assert np.array_equal(u, u_ref)
    assert info == info_ref
    assert info["iterations"] >= 2
    # the residual, its scale and the Jacobian diagonals, off the solve's path too
    eps = 10.0 * disc.eps_reg
    res_kw = {k: val for k, val in kw.items() if k != "fp"}  # the residual has no Jacobian input
    for v in (u0, 0.5 * (u0 + u)):
        for got, ref in zip(disc.residual(v, eps=eps, **res_kw),
                            _reference_residual(disc, v, eps=eps, **res_kw)):
            assert np.array_equal(got, ref)
        ab = _reference_band_matrix(disc, v, weight=kw["weight"], fp=kw["fp"],
                                    mass_coef=kw["mass_coef"],
                                    dirichlet="dirichlet_val" in kw, eps=eps)
        system = Tridiagonal(v.size)
        disc._jacobian_banded(v, system, weight=kw["weight"], fp=kw["fp"],
                              mass_coef=kw["mass_coef"], dirichlet="dirichlet_val" in kw, eps=eps)
        assert np.array_equal(system.lower, ab[2, :-1])
        assert np.array_equal(system.diag, ab[1])
        assert np.array_equal(system.upper, ab[0, 1:])


def test_far_start_backtracks_and_projects(monkeypatch):
    _, disc, u0, kw = next(c for c in _kernel_cases() if c[0] == "p2-far-start")
    calls = []
    real = Discretization.residual
    monkeypatch.setattr(Discretization, "residual",
                        lambda self, u, **k: calls.append(1) or real(self, u, **k))
    _, info = newton_solve(disc, u0, **kw)
    assert info["projections"] > 0
    # one residual per iteration and one at the start, plus one per halving
    assert len(calls) > info["iterations"] + 1


def test_non_finite_newton_system_is_a_solver_error(monkeypatch):
    mesh = build_graded_mesh(interval(0.0, 1.0), 40, 1.0)
    nl = power(2)
    u0 = np.full(mesh.nodes.size, 1e200)  # f(u0) overflows
    calls = []
    real = Discretization.residual
    monkeypatch.setattr(Discretization, "residual",
                        lambda self, u, **k: calls.append(1) or real(self, u, **k))
    for p in (2.0, 3.0):
        calls.clear()
        with pytest.raises(SolverError, match="non-finite") as exc_info, \
                np.errstate(over="ignore", invalid="ignore"):
            newton_solve(Discretization.build(mesh, p), u0, weight=np.ones_like(u0),
                         f=nl.func, fp=nl.deriv, dirichlet_val=1.0)
        assert set(exc_info.value.diagnostics) == {"iteration", "merit"}
        assert exc_info.value.diagnostics["iteration"] == 0
        # a failing stage ends the solve: for p = 3 the later stages do not
        # start over from u0
        assert len(calls) == 1


def test_singular_newton_system_is_a_solver_error():
    # zero-flux Laplacian without absorption or mass: constants span its kernel
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 1.0)
    disc = Discretization.build(mesh, 2.0, dirichlet_idx=[])
    u0 = mesh.nodes ** 2
    zero = lambda u: 0.0 * u  # noqa: E731
    with pytest.raises(SolverError, match="^linear solve failed: singular matrix"):
        newton_solve(disc, u0, weight=np.ones_like(u0), f=zero, fp=zero)


def _first_pivot(lower, diag, upper):
    """The first column where ``gtsv`` swaps rows, or None: the elimination
    without swaps runs until a sub-diagonal entry outweighs its pivot."""
    d = diag.copy()
    for k in range(lower.size):
        if abs(d[k]) < abs(lower[k]):
            return k
        d[k + 1] -= lower[k] / d[k] * upper[k]
    return None


def _pivoting_system():
    # on a graded mesh the Jacobian is not symmetric: past the middle each
    # dual cell is smaller than the one before, and the sub-diagonal outweighs
    # the pivot there
    mesh = build_graded_mesh(interval(0.0, 1.0), 60, 2.0)
    disc = Discretization.build(mesh, 2.0, dirichlet_idx=[])
    x = mesh.nodes
    system = Tridiagonal(x.size)
    disc._jacobian_banded(x, system, weight=np.ones_like(x),
                          fp=lambda u: np.full_like(u, 1e-3), dirichlet=False)
    system.rhs[...] = np.cos(7.0 * x)
    return system


def test_solve_banded_matches_scipy_bit_for_bit_when_gtsv_pivots():
    system = _pivoting_system()
    lower, diag, upper, rhs = (a.copy() for a in (system.lower, system.diag, system.upper,
                                                  system.rhs))
    assert _first_pivot(lower, diag, upper) is not None
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    expected = solve_banded((1, 1), ab, rhs)
    assert np.array_equal(discretize.solve_banded(system), expected)
    # the caller's rows are copied, and left as they were
    rows = (lower, diag, upper, rhs)
    before = [a.copy() for a in rows]
    assert np.array_equal(discretize.solve_banded(Tridiagonal.of(*rows)), expected)
    assert all(np.array_equal(a, b) for a, b in zip(rows, before))


@pytest.mark.parametrize("rows", [
    (np.zeros(4), np.ones(4), np.zeros(3), np.ones(4)),  # lower one too long
    (np.zeros(3), np.ones(4), np.zeros(3), np.ones(5)),  # rhs one too long
    (np.zeros(3), np.ones(4), np.zeros(2), np.ones(4)),  # upper one too short
    (np.zeros(0), np.ones(0), np.zeros(0), np.ones(0)),  # no rows
    (np.zeros(3), np.ones(4, dtype=np.float32), np.zeros(3), np.ones(4)),
    (np.zeros(3), np.ones((4, 1)), np.zeros(3), np.ones(4)),
    ([0.0] * 3, np.ones(4), np.zeros(3), np.ones(4)),
], ids=["long-lower", "long-rhs", "short-upper", "empty", "float32", "2-d", "list"])
def test_rows_of_the_wrong_length_or_type_are_refused_before_gtsv(rows):
    with pytest.raises(ValueError, match="rows must be|row lengths"):
        Tridiagonal.of(*rows)


def test_gtsv_error_codes_are_never_ignored():
    system = Tridiagonal.of(np.zeros(3), np.ones(4), np.zeros(3), np.ones(4))
    system._gtsv = lambda: -2  # LAPACK's report of an illegal second argument
    with pytest.raises(ValueError, match="argument 2"):
        discretize.solve_banded(system)
    system._gtsv = lambda: 3
    with pytest.raises(np.linalg.LinAlgError, match="zero pivot in row 3"):
        discretize.solve_banded(system)


def test_scipy_flapack_fallback_is_bit_identical_to_numpys_lapack(tmp_path, monkeypatch):
    def solve_all():
        out = [newton_solve(disc, u0, **kw) for _, disc, u0, kw in _kernel_cases()]
        return out, discretize.solve_banded(_pivoting_system()).copy()

    primary, primary_pivoting = solve_all()
    # a build without a bundled OpenBLAS: the locator finds nothing
    assert discretize.bundled_gtsv([tmp_path]) is None
    monkeypatch.setattr(discretize, "GTSV", discretize.bundled_gtsv([tmp_path]))
    loaded = []
    monkeypatch.setattr(discretize, "load_extension", lambda name: loaded.append(name)
                        or load_extension(name))
    fallback, fallback_pivoting = solve_all()
    assert set(loaded) == {"scipy.linalg._flapack"}
    for (u, info), (u_ref, info_ref) in zip(fallback, primary, strict=True):
        assert np.array_equal(u, u_ref)
        assert info == info_ref
    assert np.array_equal(fallback_pivoting, primary_pivoting)


def test_a_numpy_that_bundles_openblas_serves_gtsv():
    # pip wheels of numpy 2 bundle scipy-openblas; only builds without it may
    # fall back to scipy's _flapack
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    if lapack["name"] != "scipy-openblas":
        pytest.skip(f"numpy is built against {lapack['name']}, not a bundled OpenBLAS")
    assert discretize.GTSV is not None
    assert "openblas" in discretize.GTSV.library.name


def test_gtsv_falls_back_to_scipy_linalg_without_the_extension_file(tmp_path):
    # an editable or meson build keeps no _flapack file beside the package
    assert load_extension("scipy.linalg._flapack", tmp_path).dgtsv is scipy.linalg.lapack.dgtsv
