import numpy as np
import pytest

import blowuplab.parabolic as pb
from blowuplab.elliptic import EllipticProblem, solve_elliptic_blowup, solve_elliptic_capped
from blowuplab.errors import DomainError, SolverError
from blowuplab.geometry import build_graded_mesh, interval
from blowuplab.karamata import const_kernel, constant_weight, power_kernel
from blowuplab.nonlinearity import power
from blowuplab.parabolic import (
    ParabolicProblem,
    SpaceTimeField,
    CompactTestField,
    build_time_grid,
    maximal_solution,
    minimal_solution,
    parabolic_comparison_check,
    solve_capped,
    step_implicit,
    weak_form_residual,
)

UNIT_WEIGHT = constant_weight(const_kernel(), 1.0)


def unit_problem(mesh, **kw):
    return ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=UNIT_WEIGHT,
                            horizon=0.5, **kw)


def test_time_grid():
    t = build_time_grid(1.0, 4, 2.0)
    np.testing.assert_allclose(t, [0.0, 1 / 16, 1 / 4, 9 / 16, 1.0])
    with pytest.raises(DomainError):
        build_time_grid(0.0, 4)


def test_scalar_backward_euler_step():
    # spatially constant state in zero-flux mode follows the scalar equation
    # u + dt u^2 = u0, whose root is (-1 + sqrt(1 + 4 dt u0)) / (2 dt)
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 1.0)
    prob = unit_problem(mesh, no_flux=True, initial=lambda x: np.full_like(x, 5.0))
    dt = 0.01
    u1 = step_implicit(prob, np.full(mesh.nodes.size, 5.0), dt, dt)
    root = (-1.0 + np.sqrt(1.0 + 4.0 * dt * 5.0)) / (2.0 * dt)
    assert np.max(np.abs(u1 - root)) < 1e-10
    # agrees with u0/(1 + dt u0) to second order in dt
    assert abs(root - 5.0 / (1.0 + dt * 5.0)) < 2.0 * dt ** 2 * 125.0


def test_zero_absorption_constant_fixed_point():
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 1.0)
    w0 = constant_weight(const_kernel(), 1e-300)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w0, horizon=0.5,
                            no_flux=True, initial=lambda x: np.full_like(x, 3.0))
    u1 = step_implicit(prob, np.full(mesh.nodes.size, 3.0), 0.05, 0.05)
    assert np.max(np.abs(u1 - 3.0)) < 1e-12


def test_step_from_elliptic_steady_state_is_fixed():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    eprob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2))
    steady = solve_elliptic_capped(eprob, 25.0)
    prob = unit_problem(mesh)
    u1 = step_implicit(prob, steady.values, 0.01, 0.2, cap=25.0)
    rel = np.abs(u1 - steady.values) / np.maximum(np.abs(steady.values), 1.0)
    assert np.max(rel) < 1e-8


def test_step_halving_recovers_from_newton_failure(monkeypatch):
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 1.0)
    prob = unit_problem(mesh)
    state = np.full(mesh.nodes.size, 10.0)
    reference = step_implicit(prob, state, 0.02, 0.02, cap=10.0)

    calls = {"n": 0}
    real = pb.newton_solve

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SolverError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(pb, "newton_solve", flaky)
    out = step_implicit(prob, state, 0.02, 0.02, cap=10.0)
    assert calls["n"] == 3  # one rejection, two half steps
    # two half steps differ from one full step by local truncation only
    assert np.max(np.abs(out - reference)) < 0.02 ** 2 * np.max(reference) ** 3
    assert np.all(out > 0.0) and out.max() <= 10.0 + 1e-9


def test_capped_trajectory_monotonicities():
    mesh = build_graded_mesh(interval(0.0, 1.0), 80, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.25, 60, 2.0)
    f100 = solve_capped(prob, times, 100.0)
    f200 = solve_capped(prob, times, 200.0)
    assert np.all(f100.values[0] == 100.0)
    assert np.max(f100.values[1:] - f100.values[:-1]) <= 1e-8 * np.max(f100.values)
    assert f100.values.max() <= 100.0 + 1e-6
    scale = np.maximum(np.abs(f200.values), 1.0)
    assert np.max((f100.values - f200.values) / scale) <= 1e-8


def test_capped_below_fitted_envelope():
    # u_n stays below a fitted multiple of (space-free curve + steady profile)
    mesh = build_graded_mesh(interval(0.0, 1.0), 80, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.25, 60, 2.0)
    f = solve_capped(prob, times, 200.0)
    eprob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2))
    z = solve_elliptic_capped(eprob, 200.0).values
    xi = 1.0 / times[1:]  # curve for w' = -w^2
    env = xi[:, None] + z[None, :]
    lam = 1.05 * np.max(f.values[1:] / env)
    f2 = solve_capped(prob, times, 400.0)
    z2 = solve_elliptic_capped(eprob, 400.0).values
    env2 = xi[:, None] + z2[None, :]
    assert np.all(f2.values[1:] <= lam * env2)


def test_minimal_solution_time_monotone_and_rate():
    mesh = build_graded_mesh(interval(0.0, 1.0), 120, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.2, 150, 2.0)
    mn = minimal_solution(prob, times)
    assert np.max(mn.values[1:] - mn.values[:-1]) <= 1e-7 * np.max(mn.values[1:])
    # midpoint value times t approaches 1 (coarse check; tight one in acceptance)
    i0 = mn.node_index(0.5)
    j = int(np.argmin(np.abs(times - 0.01)))
    assert mn.values[j, i0] * times[j] == pytest.approx(1.0, abs=0.15)


def test_maximal_dominates_minimal_and_eps_monotone():
    mesh = build_graded_mesh(interval(0.0, 1.0), 100, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.2, 80, 2.0)
    mn = minimal_solution(prob, times)
    mx1 = maximal_solution(prob, times, [0.08, 0.04])
    mx2 = maximal_solution(prob, times, [0.08, 0.04, 0.02, 0.01])
    both = np.isfinite(mx2.values) & mx2.meta["trusted_region"]
    scale = np.maximum(np.abs(mx2.values), 1.0)
    assert np.max(np.where(both, (mn.values - mx2.values) / scale, -np.inf)) <= 1e-8
    # a larger collar dominates a smaller one on the shared region
    shared = np.isfinite(mx1.values) & np.isfinite(mx2.values) & mx1.meta["trusted_region"]
    assert np.max(np.where(shared, (mx2.values - mx1.values) / scale, -np.inf)) <= 1e-8


def test_parabolic_comparison_check():
    mesh = build_graded_mesh(interval(0.0, 1.0), 60, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.2, 40, 2.0)
    f_lo = solve_capped(prob, times, 50.0)
    f_hi = solve_capped(prob, times, 100.0)
    same = parabolic_comparison_check(f_lo, f_lo, prob)
    assert same.passed and same.max_violation == 0.0
    verdict = parabolic_comparison_check(f_hi, f_lo, prob)
    assert verdict.passed and verdict.max_violation <= 1e-8
    swapped = parabolic_comparison_check(f_lo, f_hi, prob)
    assert not swapped.passed


def test_comparison_ordered_weights():
    mesh = build_graded_mesh(interval(0.0, 1.0), 60, 2.0)
    times = build_time_grid(0.2, 40, 2.0)
    weak = unit_problem(mesh)
    strong = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2),
                              weight=constant_weight(const_kernel(), 4.0), horizon=0.5)
    f1 = solve_capped(weak, times, 80.0)
    f4 = solve_capped(strong, times, 80.0)
    verdict = parabolic_comparison_check(f1, f4, strong)
    assert verdict.passed


def _bump(x):
    return np.maximum((np.asarray(x) - 0.15) * (0.85 - np.asarray(x)), 0.0) ** 3


def make_mms_problem(mesh, T):
    u_ex = lambda x, t: 1.0 + x * (1.0 - x) * (1.0 + t)
    src = lambda x, t: x * (1.0 - x) + 2.0 * (1.0 + t) + u_ex(x, t) ** 2
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=UNIT_WEIGHT,
                            horizon=T, source=src,
                            dirichlet=lambda xb, t: u_ex(xb, t),
                            initial=lambda x: u_ex(x, 0.0))
    return prob, u_ex


def test_weak_residual_zero_test_function():
    mesh = build_graded_mesh(interval(0.0, 1.0), 32, 1.0)
    T = 0.4
    prob, u_ex = make_mms_problem(mesh, T)
    times = np.linspace(0.0, T, 17)
    fld = SpaceTimeField(mesh=mesh, times=times,
                         values=np.array([u_ex(mesh.nodes, t) for t in times]))
    zero = CompactTestField(phi=lambda x, t: 0.0, phi_t=lambda x, t: 0.0)
    assert weak_form_residual(fld, prob, zero) == 0.0


def test_weak_residual_support_violation():
    mesh = build_graded_mesh(interval(0.0, 1.0), 32, 1.0)
    T = 0.4
    prob, u_ex = make_mms_problem(mesh, T)
    times = np.linspace(0.0, T, 9)
    fld = SpaceTimeField(mesh=mesh, times=times,
                         values=np.array([u_ex(mesh.nodes, t) for t in times]))
    bad = CompactTestField(phi=lambda x, t: 1.0 + 0 * np.asarray(x), phi_t=lambda x, t: 0.0)
    with pytest.raises(DomainError, match="vanish"):
        weak_form_residual(fld, prob, bad)


def test_weak_residual_decays_for_exact_solution():
    T = 0.4
    test = CompactTestField(phi=lambda x, t: _bump(x) * (t / T) ** 2,
                     phi_t=lambda x, t: _bump(x) * 2.0 * t / T ** 2)
    res = []
    for n, m in ((32, 16), (64, 64)):
        mesh = build_graded_mesh(interval(0.0, 1.0), n, 1.0)
        prob, u_ex = make_mms_problem(mesh, T)
        times = np.linspace(0.0, T, m + 1)
        fld = SpaceTimeField(mesh=mesh, times=times,
                             values=np.array([u_ex(mesh.nodes, t) for t in times]))
        res.append(abs(weak_form_residual(fld, prob, test)))
    assert res[1] < res[0] / 3.0


def test_weak_residual_of_solved_field_tracks_discretization_error():
    T = 0.4
    test = CompactTestField(phi=lambda x, t: _bump(x) * (t / T) ** 2,
                     phi_t=lambda x, t: _bump(x) * 2.0 * t / T ** 2)
    mesh = build_graded_mesh(interval(0.0, 1.0), 48, 1.0)
    prob, u_ex = make_mms_problem(mesh, T)
    times = np.linspace(0.0, T, 25)
    fld = solve_capped(prob, times, 1.0)
    exact = SpaceTimeField(mesh=mesh, times=times,
                           values=np.array([u_ex(mesh.nodes, t) for t in times]))
    r_solved = abs(weak_form_residual(fld, prob, test))
    r_exact = abs(weak_form_residual(exact, prob, test))
    assert r_solved <= 10.0 * max(r_exact, 1e-12)


def test_mms_solve_second_order_with_dt_tied_to_h2():
    dom = interval(0.0, 1.0)
    T = 0.4
    u_ex = lambda x, t: 1.0 + np.sin(np.pi * x) * (1.0 + t)
    src = lambda x, t: (np.sin(np.pi * x)
                        + np.pi ** 2 * np.sin(np.pi * x) * (1.0 + t)
                        + u_ex(x, t) ** 2)
    errs = []
    for n, m in ((24, 12), (48, 48), (96, 192)):
        mesh = build_graded_mesh(dom, n, 1.0)
        prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=UNIT_WEIGHT,
                                horizon=T, source=src,
                                dirichlet=lambda xb, t: u_ex(xb, t),
                                initial=lambda x: u_ex(x, 0.0))
        times = np.linspace(0.0, T, m + 1)
        fld = solve_capped(prob, times, 1.0)
        errs.append(np.max(np.abs(fld.values - np.array([u_ex(mesh.nodes, t) for t in times]))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) > 1.6


def test_refinement_stability_of_minimal_solution():
    # halving h and dt moves interior values by no more than the
    # discretization-error budget; graded nodes and times are nested
    fields = []
    for n, m in ((60, 40), (120, 80)):
        mesh = build_graded_mesh(interval(0.0, 1.0), n, 2.0)
        prob = unit_problem(mesh)
        times = build_time_grid(0.2, m, 2.0)
        fields.append(minimal_solution(prob, times))
    coarse, fine = fields
    d = coarse.mesh.boundary_distance()
    core = np.nonzero(d >= 0.05)[0]
    m_coarse, t_star = 40, 0.2
    for jc, t in enumerate(coarse.times):
        if t < 0.02:
            continue
        jf = int(np.argmin(np.abs(fine.times - t)))
        assert abs(fine.times[jf] - t) < 1e-12
        # declared model: backward Euler carries ~ dt/t relative error near the
        # blow-down layer (dt/t = 2/j on the quadratically graded grid),
        # plus a small spatial floor
        budget = 2.0 * 2.0 / (m_coarse * np.sqrt(t / t_star)) + 0.01
        for ic in core:
            i_f = fine.node_index(coarse.mesh.nodes[ic])
            assert abs(fine.mesh.nodes[i_f] - coarse.mesh.nodes[ic]) < 1e-12
            rel = abs(coarse.values[jc, ic] - fine.values[jf, i_f]) \
                / max(abs(fine.values[jf, i_f]), 1e-30)
            assert rel <= budget, (t, coarse.mesh.nodes[ic], rel, budget)


def test_linear_kernel_weight_minimal_runs():
    mesh = build_graded_mesh(interval(0.0, 1.0), 80, 2.0)
    wk = constant_weight(power_kernel(1.0), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=wk, horizon=0.5)
    times = build_time_grid(0.2, 60, 2.0)
    mn = minimal_solution(prob, times)
    assert np.all(mn.values[1:][:, mesh.interior_idx] > 0.0)


def _first_cap_past(ceiling, base, factor):
    cap = base * factor
    while cap < ceiling:
        cap *= factor
    return cap


def test_minimal_solution_is_the_capped_solution_at_its_final_cap(monkeypatch):
    mesh = build_graded_mesh(interval(0.0, 1.0), 80, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.2, 40, 2.0)
    caps = []
    march = pb._march

    def counting(prob, mesh, times, cap):
        caps.append(cap)
        return march(prob, mesh, times, cap)

    monkeypatch.setattr(pb, "_march", counting)
    mn = minimal_solution(prob, times)
    # each evolution cap ladder marches once, at its final cap
    assert caps == [mn.meta["final_cap"]]
    assert mn.meta["cap_rungs"] == 1
    capped = solve_capped(prob, times, mn.meta["final_cap"])
    assert np.array_equal(mn.values, capped.values)
    caps.clear()
    mx = maximal_solution(prob, times, [0.08, 0.04])
    assert len(caps) == len(mx.meta["eps_ladder"])
    assert all(rungs == 1 for _, rungs in mx.meta["eps_ladder"])


def _counting_marches(monkeypatch):
    calls = []
    march = pb._march

    def counting(prob, mesh, times, cap):
        calls.append(mesh.nodes.size)
        return march(prob, mesh, times, cap)

    monkeypatch.setattr(pb, "_march", counting)
    return calls


COLLAR_LADDERS = [[0.08, 0.04], [0.08, 0.04, 0.02], [0.08, 0.04, 0.02, 0.01]]


def _collar_problem():
    return unit_problem(build_graded_mesh(interval(0.0, 1.0), 80, 2.0)), build_time_grid(0.2, 40, 2.0)


@pytest.mark.parametrize("ladder", COLLAR_LADDERS, ids=lambda ladder: f"{len(ladder)}-collars")
def test_maximal_solution_marches_only_its_last_collar(monkeypatch, ladder):
    prob, times = _collar_problem()
    calls = _counting_marches(monkeypatch)
    mx = maximal_solution(prob, times, ladder)
    assert len(calls) == 1
    assert mx.meta["eps_ladder"] == [(ladder[-1], 1)] and mx.meta["eps_final"] == ladder[-1]


@pytest.mark.parametrize("ladder", COLLAR_LADDERS, ids=lambda ladder: f"{len(ladder)}-collars")
def test_earlier_collars_set_only_the_trusted_region(ladder):
    prob, times = _collar_problem()
    mx = maximal_solution(prob, times, ladder)
    last = maximal_solution(prob, times, ladder[-1:])
    assert np.array_equal(mx.values, last.values, equal_nan=True)
    # the previous collar's region, less its first time level and end nodes
    sl = pb._shrunken_slice(prob.mesh, ladder[-2])
    j0 = int(np.searchsorted(times, ladder[-2], side="left"))
    trusted = np.zeros(mx.values.shape, dtype=bool)
    trusted[j0 + 1:, sl.start + 1:sl.stop - 1] = True
    assert np.array_equal(mx.meta["trusted_region"], trusted)


def test_too_wide_first_collar_fails_before_any_march(monkeypatch):
    prob = unit_problem(build_graded_mesh(interval(0.0, 1.0), 8, 2.0))
    calls = _counting_marches(monkeypatch)
    with pytest.raises(DomainError, match="collar eps = 0.3"):
        maximal_solution(prob, build_time_grid(0.2, 40, 2.0), [0.3, 0.01])
    assert calls == []


def _ladder_mesh():
    return build_graded_mesh(interval(0.0, 1.0), 60, 2.0)


def _minimal_ladder(**kw):
    return minimal_solution(unit_problem(_ladder_mesh()), build_time_grid(0.2, 30, 2.0), **kw)


def _maximal_ladder(**kw):
    return maximal_solution(unit_problem(_ladder_mesh()), build_time_grid(0.2, 30, 2.0),
                            [0.08, 0.04], **kw)


def _steady_ladder(**kw):
    return solve_elliptic_blowup(EllipticProblem(mesh=_ladder_mesh(), p=2.0, nl=power(2)), **kw)


LADDER_CAPS = [(10.0, 2.0), (7.0, 3.0), (1e30, 2.0)]


@pytest.mark.parametrize("solve, cap_base, cap_factor", [
    pytest.param(solve, base, factor, id=f"{prefix}{base}-{factor}")
    for prefix, solve in (("", _minimal_ladder), ("steady-", _steady_ladder))
    for base, factor in LADDER_CAPS
])
def test_final_cap_is_first_ladder_cap_past_ceiling(solve, cap_base, cap_factor):
    meta = solve(cap_base=cap_base, cap_factor=cap_factor).meta
    ceiling = meta["cap_ceiling"]
    assert meta["final_cap"] == _first_cap_past(ceiling, cap_base, cap_factor)
    assert meta["final_cap"] >= max(ceiling, cap_base * cap_factor)


@pytest.mark.parametrize("solve", [_minimal_ladder, _maximal_ladder, _steady_ladder],
                         ids=["minimal", "maximal", "steady"])
def test_cap_ladder_too_short_for_ceiling_raises(solve):
    with pytest.raises(SolverError) as err:
        solve(max_rungs=3)
    diag = err.value.diagnostics
    assert diag["rungs"] == 3
    assert diag["last_cap"] == 40.0
    assert diag["ceiling"] > 40.0


def test_minimal_solution_on_fine_mesh_with_coarse_steps():
    # 2000 graded cells against 40 steps: at small caps Newton spins to its
    # iteration limit on this grid, so no small cap may be marched
    mesh = build_graded_mesh(interval(0.0, 1.0), 2000, 2.0)
    prob = unit_problem(mesh)
    times = build_time_grid(0.25, 40, 2.0)
    mn = minimal_solution(prob, times)
    u = mn.values
    assert np.all(u[1:] - u[:-1] <= 1e-12 * np.abs(u[:-1]))
    np.testing.assert_allclose(u[:, ::-1], u, rtol=1e-8)
    # above the space-free curve 1/t everywhere after t = 0
    assert np.min(u[1:] * times[1:, None]) >= 1.0
