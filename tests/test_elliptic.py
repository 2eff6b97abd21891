import numpy as np
import pytest

from blowuplab import elliptic
from blowuplab.elliptic import (
    EllipticProblem,
    elliptic_comparison_check,
    solve_elliptic_blowup,
    solve_elliptic_capped,
)
from blowuplab.errors import ConfigError, DomainError
from blowuplab.geometry import ball, build_graded_mesh, interval
from blowuplab.karamata import power_kernel
from blowuplab.nonlinearity import power
from blowuplab.rates import boundary_rate


def quadratic_problem(mesh, amplitude=1.0, source=None):
    return EllipticProblem(mesh=mesh, p=2.0, nl=power(2), amplitude=amplitude, source=source)


def test_manufactured_quadratic_is_reproduced_exactly():
    # z = 1 + x(1-x) is in the scheme's exactness class on a uniform mesh:
    # -z'' + z^2 = 2 + z^2 =: source, boundary value 1
    dom = interval(0.0, 1.0)
    z_ex = lambda x: 1.0 + x * (1.0 - x)
    src = lambda x: 2.0 + z_ex(x) ** 2
    mesh = build_graded_mesh(dom, 64, 1.0)
    g = solve_elliptic_capped(quadratic_problem(mesh, source=src), cap=1.0)
    assert np.max(np.abs(g.values - z_ex(mesh.nodes))) < 1e-9


@pytest.mark.parametrize("domain,lap_coef", [(interval(0.0, 1.0), 1.0),
                                             (ball(1.0, 2), 2.0),
                                             (ball(1.0, 3), 3.0)])
def test_manufactured_sine_second_order(domain, lap_coef):
    # z = 1 + cos(pi x / 2 R)-type profile, second-order recovery
    R = domain.b if domain.kind == "interval" else domain.radius

    def z_ex(x):
        return 1.0 + np.cos(np.pi * x / (2 * R)) if domain.kind == "ball" else 1.0 + np.sin(np.pi * x)

    def lap(x):
        if domain.kind == "ball":
            # (1/r^{N-1}) (r^{N-1} z')' for z = 1 + cos(a r), a = pi/(2R):
            # z'' + (N-1)/r z' = -a^2 cos(a r) - (N-1) a sin(a r)/r
            a = np.pi / (2 * R)
            x = np.asarray(x, dtype=float)
            out = -a * a * np.cos(a * x)
            with np.errstate(invalid="ignore", divide="ignore"):
                extra = np.where(x > 0, np.sin(a * x) / np.maximum(x, 1e-300), a)
            return out - (lap_coef - 1.0) * a * extra
        return -np.pi ** 2 * np.sin(np.pi * np.asarray(x))

    def src(x):
        return -lap(x) + z_ex(x) ** 2

    errs = []
    for n in (32, 64, 128):
        mesh = build_graded_mesh(domain, n, 1.0)
        g = solve_elliptic_capped(quadratic_problem(mesh, source=src),
                                  cap=float(z_ex(mesh.nodes[-1])))
        errs.append(np.max(np.abs(g.values - z_ex(mesh.nodes))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) > 1.7


def test_degenerate_diffusion_manufactured():
    # p = 3 flux |z'| z'; z = 1 + x(1-x), z' = 1-2x, (|z'|z')' = -4|1-2x|
    dom = interval(0.0, 1.0)
    z_ex = lambda x: 1.0 + x * (1.0 - x)
    src = lambda x: 4.0 * np.abs(1.0 - 2.0 * np.asarray(x)) + z_ex(x) ** 2
    errs = []
    for n in (64, 128, 256):
        mesh = build_graded_mesh(dom, n, 1.0)
        prob = EllipticProblem(mesh=mesh, p=3.0, nl=power(2), source=src)
        g = solve_elliptic_capped(prob, cap=1.0)
        errs.append(np.max(np.abs(g.values - z_ex(mesh.nodes))))
    assert errs[-1] < 5e-4
    assert errs[-1] < errs[0] / 4.0  # at least first order once eps_reg shrinks


def test_maximum_principle_and_cap_monotonicity():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    prob = quadratic_problem(mesh)
    g10 = solve_elliptic_capped(prob, 10.0)
    g20 = solve_elliptic_capped(prob, 20.0)
    assert g10.values.max() <= 10.0 + 1e-8
    assert np.all(g20.values >= g10.values - 1e-8 * np.abs(g20.values))
    verdict = elliptic_comparison_check(g20, g10, prob)
    assert verdict.passed and verdict.max_violation <= 1e-8


def test_comparison_same_field_trivial():
    mesh = build_graded_mesh(interval(0.0, 1.0), 32, 1.0)
    prob = quadratic_problem(mesh)
    g = solve_elliptic_capped(prob, 5.0)
    verdict = elliptic_comparison_check(g, g, prob)
    assert verdict.passed
    assert verdict.max_violation == 0.0


def test_comparison_ordered_weights():
    # stronger absorption gives the smaller solution; check against context beta=1
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    weak = quadratic_problem(mesh, amplitude=1.0)
    strong = quadratic_problem(mesh, amplitude=4.0)
    g1 = solve_elliptic_capped(weak, 50.0)
    g4 = solve_elliptic_capped(strong, 50.0)
    assert np.all(g1.values >= g4.values - 1e-8 * np.abs(g1.values))
    # g1 is an upper solution for the beta=4 problem, g4 solves it
    verdict = elliptic_comparison_check(g1, g4, strong)
    assert verdict.passed


def test_comparison_detects_wrong_order():
    mesh = build_graded_mesh(interval(0.0, 1.0), 32, 2.0)
    prob = quadratic_problem(mesh)
    g10 = solve_elliptic_capped(prob, 10.0)
    g20 = solve_elliptic_capped(prob, 20.0)
    verdict = elliptic_comparison_check(g10, g20, prob)  # upper/lower swapped
    assert not verdict.ordered
    assert verdict.max_violation > 1e-3


def test_blowup_ladder_interior_cauchy():
    # the ladder solves once, cold, at the first cap past the ceiling
    mesh = build_graded_mesh(interval(0.0, 1.0), 200, 2.0)
    prob = quadratic_problem(mesh)
    z = solve_elliptic_blowup(prob)
    assert z.blowup
    assert z.meta["cap_rungs"] == 1
    assert "interior_delta" not in z.meta
    cap = 20.0
    while cap < z.meta["cap_ceiling"]:
        cap *= 2.0
    assert z.meta["final_cap"] == cap
    cold = solve_elliptic_capped(prob, cap)
    assert np.array_equal(z.values, cold.values)


def test_blowup_makes_one_newton_solve(monkeypatch):
    calls = []
    real = elliptic.newton_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptic, "newton_solve", counting)
    solve_elliptic_blowup(quadratic_problem(build_graded_mesh(interval(0.0, 1.0), 64, 2.0)))
    assert len(calls) == 1


def test_blowup_field_sandwiched_by_profile():
    mesh = build_graded_mesh(interval(0.0, 1.0), 300, 2.0)
    prob = quadratic_problem(mesh)
    z = solve_elliptic_blowup(prob)
    d = mesh.boundary_distance()
    interior = mesh.interior_idx
    prof = 6.0 / d[interior] ** 2  # phi(K(d)) for f = u^2, p = 2, unit kernel
    ratio = z.values[interior] / prof
    assert 0.05 < ratio.min() and ratio.max() < 20.0


def test_blowup_boundary_constant_coarse():
    mesh = build_graded_mesh(interval(0.0, 1.0), 300, 2.0)
    prob = quadratic_problem(mesh)
    z = solve_elliptic_blowup(prob)
    rep = boundary_rate(z, prob, side="right", rtol=0.10)
    assert rep.passed
    assert rep.extrapolated == pytest.approx(1.0, abs=0.05)


def test_blowup_with_linear_kernel_runs():
    mesh = build_graded_mesh(interval(0.0, 1.0), 120, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2), kernel=power_kernel(1.0))
    z = solve_elliptic_blowup(prob)
    assert z.blowup
    assert np.all(z.values[mesh.interior_idx] > 0.0)


@pytest.mark.parametrize("amplitude", [-1.0, 0.0, float("nan"), float("inf")])
def test_problem_rejects_an_amplitude_that_is_not_positive_and_finite(amplitude):
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 2.0)
    with pytest.raises(ConfigError, match=f"must be positive and finite, got {amplitude:g}"):
        quadratic_problem(mesh, amplitude=amplitude)


def test_problem_weight_is_the_amplitude_times_the_kernel_power():
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2), kernel=power_kernel(1.0), amplitude=4)
    assert prob.weight.kernel is prob.kernel and prob.weight.amplitude == 4.0
    d = mesh.boundary_distance()
    np.testing.assert_array_equal(prob.weight_values(), 4.0 * np.maximum(d, 1e-300) ** 2)


def test_capped_rejects_bad_cap():
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 1.0)
    with pytest.raises(DomainError):
        solve_elliptic_capped(quadratic_problem(mesh), -1.0)


def test_degenerate_blowup_needs_the_regularization_stages():
    # p = 3, f = u^3 on 400 graded cells: Newton converges only because the
    # first stage, at 100 eps_reg, stops at 1e-6 and warm-starts the others;
    # a single stage at eps_reg needs more than MAX_NEWTON iterations
    mesh = build_graded_mesh(interval(0.0, 1.0), 400, 2.0)
    prob = EllipticProblem(mesh=mesh, p=3.0, nl=power(3))
    z = solve_elliptic_blowup(prob)
    interior = z.values[mesh.interior_idx]
    assert np.all(np.isfinite(interior)) and np.all(interior > 0.0)
    assert np.all(interior <= z.cap)
