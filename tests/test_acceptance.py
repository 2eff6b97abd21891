"""Acceptance suite: one test per verification target, printed as PASS/FAIL lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary.  The long experiments (initial rate, boundary rate at scale,
uniqueness refinement) are marked slow but run by default.
"""

import math

import numpy as np
import pytest

import blowuplab as bl
from blowuplab.extrapolation import log_slope_limit
from blowuplab.rates import space_free_values

ROOT6 = math.sqrt(6.0)
QUARTIC_CONST = math.sqrt(10.0 / 3.0) * 1.5 ** 1.5
UNIT = bl.constant_weight(bl.const_kernel(), 1.0)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_profile_closed_forms():
    ts = np.geomspace(1e-3, 10.0, 50)
    f2 = bl.power(2)
    err2 = max(abs(bl.profile_value(f2, 2.0, t) * t ** 2 / 6.0 - 1.0) for t in ts)
    f4 = bl.power(4)
    err4 = max(abs(bl.profile_value(f4, 3.0, t) * t ** 1.5 / QUARTIC_CONST - 1.0) for t in ts)
    ok = err2 <= 1e-6 and err4 <= 1e-6
    _report(1, ok, f"profile closed forms: quadratic err {err2:.2e}, quartic err {err4:.2e} (tol 1e-6)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_index_identities():
    fails = []
    suite = [(bl.power(2), 2.0, bl.const_kernel()),
             (bl.power(2), 2.0, bl.power_kernel(1.0)),
             (bl.power(4), 3.0, bl.const_kernel())]
    for nl, p, kern in suite:
        q = bl.effective_index(nl.index, p, kern.limit)
        est = bl.rv_index_estimate(lambda s: bl.effective_absorption(nl, kern, p, s),
                                   2.0, np.geomspace(10.0, 1e7, 16))
        if abs(est - q) > 1e-2:
            fails.append(f"effective index {est:.4f} vs {q:.4f}")
    for nl, p in ((bl.power(2), 2.0), (bl.power(4), 3.0)):
        r = bl.blowup_order(nl.index, p)
        slope = log_slope_limit(lambda t: bl.profile_value(nl, p, t), 1e-2,
                                toward="zero", rungs=10).value
        if abs(slope - (1.0 - r)) > 0.02 * abs(1.0 - r):
            fails.append(f"profile slope {slope:.4f} vs {1 - r:.4f}")
    for kern in (bl.const_kernel(), bl.power_kernel(1.0), bl.power_kernel(-0.5)):
        ell = kern.limit
        sK = log_slope_limit(lambda s: bl.kernel_primitive(kern, s), 1e-2,
                             toward="zero", rungs=10).value
        sk = log_slope_limit(lambda s: float(kern.func(s)) + 0.0, 1e-2,
                             toward="zero", rungs=10).value
        if abs(sK - 1.0 / ell) > 0.02 * max(1.0, 1.0 / ell):
            fails.append(f"primitive slope {sK:.4f} vs {1 / ell:.4f}")
        if abs(sk - (1.0 - ell) / ell) > 0.02 * max(1.0, abs(1.0 - ell) / ell):
            fails.append(f"kernel slope {sk:.4f} vs {(1 - ell) / ell:.4f}")
    _report(2, not fails, "index identities (q within 1e-2, local slopes within 2%)"
            + (": " + "; ".join(fails) if fails else ""))


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_blowdown_closed_forms():
    worst = 0.0
    for gamma in (1.5, 2.0, 3.0):
        curve = bl.BlowdownCurve(lambda w, g=gamma: w ** g, index=gamma)
        for t in (1e-3, 0.1, 1.0, 10.0):
            exact = ((gamma - 1.0) * t) ** (-1.0 / (gamma - 1.0))
            worst = max(worst, abs(curve.value(t) / exact - 1.0))
    ev = bl.equivalence_check(lambda w: w * w * (1 + 1 / w), lambda w: w * w,
                              np.geomspace(1e-1, 1e-5, 9), g_index=2, h_index=2)
    eq_err = abs(ev.limit.value - 1.0)
    ok = worst <= 1e-8 and eq_err <= 1e-3
    _report(3, ok, f"blow-down curves: power-family err {worst:.2e} (tol 1e-8), "
                   f"equivalence limit err {eq_err:.2e} (tol 1e-3)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_steady_boundary_rate():
    results = {}
    for label, dom, amp in (("interval-b1", bl.interval(0.0, 1.0), 1.0),
                            ("interval-b4", bl.interval(0.0, 1.0), 4.0),
                            ("ball2d-b1", bl.ball(1.0, 2), 1.0)):
        mesh = bl.build_graded_mesh(dom, 2000, 2.0)
        prob = bl.EllipticProblem(mesh=mesh, p=2.0, nl=bl.power(2), amplitude=amp)
        z = bl.solve_elliptic_blowup(prob)
        rep = bl.boundary_rate(z, prob, side="right", rtol=0.02)
        results[label] = rep
    fails = [f"{k}: {r.extrapolated:.5f} vs {r.predicted:.5f}"
             for k, r in results.items() if not r.passed]
    ratio = results["interval-b4"].extrapolated / results["interval-b1"].extrapolated
    scaling_err = abs(ratio / 0.25 - 1.0)
    if scaling_err > 0.04:
        fails.append(f"amplitude scaling {ratio:.4f} vs 0.25")
    detail = (f"steady rates within 2% "
              f"(b1 {results['interval-b1'].extrapolated:.5f}, "
              f"b4 {results['interval-b4'].extrapolated:.5f}, "
              f"ball {results['ball2d-b1'].extrapolated:.5f}); "
              f"scaling err {scaling_err:.2e} (tol 4e-2)")
    _report(4, not fails, detail + (": " + "; ".join(fails) if fails else ""))


# ---------------------------------------------------------------- criterion 5

@pytest.mark.slow
def test_criterion_5_initial_rate():
    mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), 400, 2.0)
    prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2), weight=UNIT, horizon=0.5)
    times = bl.build_time_grid(0.12, 2000, 2.0)
    mn = bl.minimal_solution(prob, times)
    rep = bl.initial_rate(mn, prob, t_window=(1e-3, 1e-1), rtol=0.05,
                          ladder_ratio=math.sqrt(2.0))
    ok = rep.passed and abs(rep.extrapolated - 1.0) <= 0.05
    _report(5, ok, f"initial rate at the midpoint: {rep.extrapolated:.5f} vs 1 "
                   f"(tol 5%), converged={rep.converged}")


# ---------------------------------------------------------------- criterion 6

@pytest.mark.slow
def test_criterion_6_boundary_rate_in_time():
    mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), 2000, 2.0)
    prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2), weight=UNIT, horizon=0.5)
    times = bl.build_time_grid(0.25, 400, 2.0)
    mn = bl.minimal_solution(prob, times)
    reps = [bl.boundary_rate(mn, prob, t0=t0, rtol=0.05) for t0 in (0.1, 0.2)]
    drift = abs(reps[0].extrapolated - reps[1].extrapolated) / abs(reps[0].extrapolated)
    ok = all(r.passed for r in reps) and drift <= 0.05
    _report(6, ok, f"boundary rate at t0=0.1/0.2: {reps[0].extrapolated:.5f}, "
                   f"{reps[1].extrapolated:.5f} vs 1 (tol 5%), drift {drift:.2e}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_structure_and_envelopes():
    fails = []
    dom = bl.interval(0.0, 1.0)
    mesh = bl.build_graded_mesh(dom, 200, 2.0)
    times = bl.build_time_grid(0.25, 150, 2.0)  # horizon 0.5, t* = 0.5 T

    prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2), weight=UNIT, horizon=0.5)
    f100 = bl.solve_capped(prob, times, 100.0)
    f200 = bl.solve_capped(prob, times, 200.0)
    scale = np.maximum(np.abs(f200.values), 1.0)
    cap_viol = float(np.max((f100.values - f200.values) / scale))
    if cap_viol > 1e-8:
        fails.append(f"cap monotonicity violated by {cap_viol:.2e}")

    mn = bl.minimal_solution(prob, times)
    t_inc = float(np.max((mn.values[1:] - mn.values[:-1])
                         / np.maximum(np.abs(mn.values[1:]), 1.0)))
    if t_inc > 1e-8:
        fails.append(f"time monotonicity violated by {t_inc:.2e}")

    mx = bl.maximal_solution(prob, times, 0.04 * 0.5 ** np.arange(4))
    both = np.isfinite(mx.values) & mx.meta["trusted_region"]
    order_viol = float(np.max(np.where(both, (mn.values - mx.values)
                                       / np.maximum(np.abs(mx.values), 1.0), -np.inf)))
    if order_viol > 1e-8:
        fails.append(f"minimal exceeds maximal by {order_viol:.2e}")
    sw = bl.sandwich_check(mn, mx, prob, t_star=0.25)
    if not sw.passed:
        fails.append(f"constant-kernel envelope ratios [{sw.inf_lower:.3g}, {sw.sup_upper:.3g}]")

    probk = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2),
                                weight=bl.constant_weight(bl.power_kernel(1.0), 1.0),
                                horizon=0.5)
    t_probe = np.array([0.05, 0.1, 0.2])
    _, effective = space_free_values(probk, t_probe)
    for t, value in zip(t_probe, effective):
        if abs(value * 6.0 * t ** 2 - 1.0) > 1e-3:
            fails.append(f"effective curve at {t:g} differs from 1/(6 t^2)")
    mnk = bl.minimal_solution(probk, times)
    mxk = bl.maximal_solution(probk, times, 0.04 * 0.5 ** np.arange(4))
    swk = bl.sandwich_check(mnk, mxk, probk, t_star=0.25)
    if not swk.passed:
        fails.append(f"linear-kernel envelope ratios [{swk.inf_lower:.3g}, {swk.sup_upper:.3g}]")

    detail = (f"cap viol {max(cap_viol, 0):.1e}, time viol {max(t_inc, 0):.1e}, "
              f"order viol {max(order_viol, 0):.1e}; "
              f"envelopes const [{sw.inf_lower:.3g}, {sw.sup_upper:.3g}] / "
              f"linear [{swk.inf_lower:.3g}, {swk.sup_upper:.3g}] within [1e-3, 1e3]")
    _report(7, not fails, detail + (": " + "; ".join(fails) if fails else ""))


# ---------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_8_uniqueness_witness():
    gaps = []
    for lvl in range(3):
        mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), 100 * 2 ** lvl, 2.0)
        prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2), weight=UNIT,
                                   horizon=0.5)
        times = bl.build_time_grid(0.25, 100 * 2 ** lvl, 2.0)
        mn = bl.minimal_solution(prob, times)
        mx = bl.maximal_solution(prob, times, 0.04 * 0.5 ** np.arange(5 + lvl))
        gap = bl.uniqueness_gap(mn, mx, prob, t_min=0.05)
        assert gap.asserted
        gaps.append(gap.gap)
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ok = monotone and gaps[-1] < 0.02
    _report(8, ok, "uniqueness gap under (n, eps, h, dt) refinement: "
                   + " -> ".join(f"{g:.4f}" for g in gaps) + " (final tol 2e-2)")


# ---------------------------------------------------------------- criterion 9

def _random_elliptic_pair(rng):
    p = rng.uniform(1.6, 3.0)
    rho = max(1.0, p - 1.0) + rng.uniform(0.3, 2.0)
    n_cells = int(rng.choice([24, 32, 48]))
    grading = float(rng.choice([1.0, 2.0]))
    mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), n_cells, grading)
    if rng.random() < 0.5:
        kern = bl.const_kernel()
    else:
        kern = bl.power_kernel(float(rng.uniform(-0.4, 1.5)))
    nl = bl.power(round(rho, 3))
    if rng.random() < 0.5:  # ordered caps, same weight
        amp = float(rng.uniform(0.5, 3.0))
        cap_lo = float(rng.uniform(2.0, 20.0))
        cap_hi = cap_lo * float(rng.uniform(1.5, 4.0))
        prob = bl.EllipticProblem(mesh=mesh, p=p, nl=nl, kernel=kern, amplitude=amp)
        lower = bl.solve_elliptic_capped(prob, cap_lo)
        upper = bl.solve_elliptic_capped(prob, cap_hi)
        return upper, lower, prob
    # ordered weights, same cap: stronger absorption gives the smaller field
    cap = float(rng.uniform(5.0, 30.0))
    a_lo = float(rng.uniform(0.3, 1.5))
    a_hi = a_lo * float(rng.uniform(1.5, 4.0))
    weak = bl.EllipticProblem(mesh=mesh, p=p, nl=nl, kernel=kern, amplitude=a_lo)
    strong = bl.EllipticProblem(mesh=mesh, p=p, nl=nl, kernel=kern, amplitude=a_hi)
    upper = bl.solve_elliptic_capped(weak, cap)
    lower = bl.solve_elliptic_capped(strong, cap)
    return upper, lower, strong


def _random_parabolic_pair(rng):
    p = rng.uniform(1.6, 3.0)
    rho = max(1.0, p - 1.0) + rng.uniform(0.3, 2.0)
    n_cells = int(rng.choice([24, 32, 40]))
    mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), n_cells, float(rng.choice([1.0, 2.0])))
    kern = bl.const_kernel() if rng.random() < 0.5 else bl.power_kernel(float(rng.uniform(-0.4, 1.5)))
    nl = bl.power(round(rho, 3))
    times = bl.build_time_grid(float(rng.uniform(0.05, 0.3)), 12, 2.0)
    if rng.random() < 0.5:
        amp = float(rng.uniform(0.5, 3.0))
        prob = bl.ParabolicProblem(mesh=mesh, p=p, nl=nl,
                                   weight=bl.constant_weight(kern, amp), horizon=1.0)
        cap_lo = float(rng.uniform(2.0, 20.0))
        cap_hi = cap_lo * float(rng.uniform(1.5, 4.0))
        return (bl.solve_capped(prob, times, cap_hi),
                bl.solve_capped(prob, times, cap_lo), prob)
    cap = float(rng.uniform(5.0, 30.0))
    a_lo = float(rng.uniform(0.3, 1.5))
    a_hi = a_lo * float(rng.uniform(1.5, 4.0))
    weak = bl.ParabolicProblem(mesh=mesh, p=p, nl=nl,
                               weight=bl.constant_weight(kern, a_lo), horizon=1.0)
    strong = bl.ParabolicProblem(mesh=mesh, p=p, nl=nl,
                                 weight=bl.constant_weight(kern, a_hi), horizon=1.0)
    return bl.solve_capped(weak, times, cap), bl.solve_capped(strong, times, cap), strong


def test_criterion_9_comparison_property_suites():
    rng = np.random.default_rng(20240817)
    worst_e = worst_p = 0.0
    for _ in range(100):
        upper, lower, prob = _random_elliptic_pair(rng)
        verdict = bl.elliptic_comparison_check(upper, lower, prob)
        worst_e = max(worst_e, verdict.max_violation)
    rng = np.random.default_rng(911)
    for _ in range(100):
        upper, lower, prob = _random_parabolic_pair(rng)
        verdict = bl.parabolic_comparison_check(upper, lower, prob)
        worst_p = max(worst_p, verdict.max_violation)
    ok = worst_e <= 1e-8 and worst_p <= 1e-8
    _report(9, ok, f"100+100 seeded ordered pairs: worst violations "
                   f"steady {worst_e:.2e}, evolution {worst_p:.2e} (tol 1e-8)")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_weak_form_residual_order():
    T = 0.4

    def bump(x):
        return np.maximum((np.asarray(x) - 0.15) * (0.85 - np.asarray(x)), 0.0) ** 3

    test = bl.CompactTestField(phi=lambda x, t: bump(x) * (t / T) ** 2,
                               phi_t=lambda x, t: bump(x) * 2.0 * t / T ** 2)
    u_ex = lambda x, t: 1.0 + x * (1.0 - x) * (1.0 + t)
    src = lambda x, t: x * (1.0 - x) + 2.0 * (1.0 + t) + u_ex(x, t) ** 2
    res = []
    # dt tied to h^2, so the documented O(h^2 + dt) model predicts order 2 in h
    for n, m in ((40, 20), (80, 80), (160, 320)):
        mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), n, 1.0)
        prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2), weight=UNIT,
                                   horizon=T, source=src,
                                   dirichlet=lambda xb, t: u_ex(xb, t),
                                   initial=lambda x: u_ex(x, 0.0))
        times = np.linspace(0.0, T, m + 1)
        fld = bl.SpaceTimeField(mesh=mesh, times=times,
                                values=np.array([u_ex(mesh.nodes, t) for t in times]))
        res.append(abs(bl.weak_form_residual(fld, prob, test)))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    ok = all(0.8 * 2.0 <= o <= 1.2 * 2.0 for o in orders)
    _report(10, ok, "weak-form residual orders across refinements: "
                    + ", ".join(f"{o:.2f}" for o in orders) + " (predicted 2 +- 20%)")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_profile_weight_decay():
    suite = [(bl.power(2), 2.0, bl.const_kernel(), 0.5),
             (bl.power(2), 2.0, bl.power_kernel(1.0), 0.8),
             (bl.power(4), 3.0, bl.const_kernel(), 1.5)]
    ladder = np.geomspace(1e-1, 1e-5, 5)  # one rung per decade
    worst = np.inf
    fails = []
    for nl, p, kern, exponent in suite:
        ev = bl.profile_decay_ratio(kern, nl, p, exponent, ladder)
        factors = ev.ratios[:-1] / ev.ratios[1:]
        worst = min(worst, float(np.min(factors)))
        if not ev.decreasing or np.any(factors < 5.0):
            fails.append(f"{nl.name}/{kern.name}: min decade factor {np.min(factors):.2f}")
    _report(11, not fails, f"profile/kernel ratio decays >= 5x per decade "
                           f"(worst factor {worst:.1f})"
            + (": " + "; ".join(fails) if fails else ""))
