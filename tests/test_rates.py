import csv

import numpy as np
import pytest

from blowuplab import blowdown, rates
from blowuplab.blowdown import BlowdownCurve
from blowuplab.elliptic import EllipticProblem, GridFunction
from blowuplab.errors import DomainError
from blowuplab.cli import SUITES
from blowuplab.experiment import _build_problem, _fmt, _write_trajectory_csv
from blowuplab.geometry import ball, build_graded_mesh, interval
from blowuplab.karamata import BlowupProfile, const_kernel, constant_weight, power_kernel
from blowuplab.nonlinearity import power, power_log
from blowuplab.parabolic import (ParabolicProblem, SpaceTimeField, build_time_grid, maximal_solution,
                                 minimal_solution)
from blowuplab.rates import (
    _by_branch,
    _space_free_curves,
    boundary_rate,
    initial_rate,
    predicted_boundary_constant,
    profile_of_distance,
    sandwich_check,
    space_free_values,
    uniqueness_gap,
)


def test_predicted_constants():
    # r = 3 for quadratic absorption at p = 2
    assert predicted_boundary_constant(2.0, 2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert predicted_boundary_constant(2.0, 2.0, 1.0, 4.0) == pytest.approx(0.25)
    # r = 2.5 for quartic absorption at p = 3; beta = ell = 1 collapses to 1
    assert predicted_boundary_constant(4.0, 3.0, 1.0, 1.0) == pytest.approx(1.0)


def test_scaling_relation_of_predictions():
    r = 3.0
    lam = 4.0
    c1 = predicted_boundary_constant(2.0, 2.0, 1.0, 1.0)
    c4 = predicted_boundary_constant(2.0, 2.0, 1.0, lam)
    assert c4 / c1 == pytest.approx(lam ** (-(r - 1.0) / 2.0))


def test_profile_of_distance_matches_closed_form():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    d = mesh.boundary_distance()[mesh.interior_idx]
    prof = profile_of_distance(power(2), 2.0, const_kernel(), d)
    np.testing.assert_allclose(prof, 6.0 / d ** 2, rtol=1e-9)
    # linear kernel: K = d^2/2, phi(K) = 24/d^4
    prof2 = profile_of_distance(power(2), 2.0, power_kernel(1.0), d)
    np.testing.assert_allclose(prof2, 24.0 / d ** 4, rtol=1e-9)


def test_profile_of_distance_evaluated_once_per_distance_set(monkeypatch):
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 3.0)
    d = mesh.boundary_distance()[mesh.interior_idx]
    calls = []
    real = rates.profile_value
    monkeypatch.setattr(rates, "profile_value",
                        lambda nl, p, K: calls.append(np.size(K)) or real(nl, p, K))
    nl, kern = power(2), const_kernel()
    rates._profile_of_distance.cache_clear()
    first = profile_of_distance(nl, 2.0, kern, d)
    again = profile_of_distance(nl, 2.0, kern, d.copy())
    assert calls == [d.size]
    assert again is first and not first.flags.writeable
    # another distance set or another p is a separate evaluation
    profile_of_distance(nl, 2.0, kern, d[1:])
    profile_of_distance(nl, 1.5, kern, d)
    assert calls == [d.size, d.size - 1, d.size]


def synthetic_steady(mesh, constant):
    d = mesh.boundary_distance()
    vals = np.empty(mesh.nodes.size)
    inner = d > 0
    vals[inner] = constant * 6.0 / d[inner] ** 2
    vals[~inner] = 1e300
    return GridFunction(mesh=mesh, values=vals, blowup=True)


def test_boundary_rate_recovers_exact_constant():
    mesh = build_graded_mesh(interval(0.0, 1.0), 400, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2), amplitude=1.0)
    fld = synthetic_steady(mesh, 1.0)
    rep = boundary_rate(fld, prob, side="right", rtol=0.02)
    assert rep.passed and rep.converged
    assert rep.extrapolated == pytest.approx(1.0, abs=1e-9)
    left = boundary_rate(fld, prob, side="left", rtol=0.02)
    assert left.extrapolated == pytest.approx(1.0, abs=1e-9)


def test_boundary_rate_flags_wrong_constant():
    mesh = build_graded_mesh(interval(0.0, 1.0), 400, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2), amplitude=1.0)
    fld = synthetic_steady(mesh, 1.25)
    rep = boundary_rate(fld, prob, side="right", rtol=0.05)
    assert rep.converged and not rep.passed
    assert rep.extrapolated == pytest.approx(1.25, abs=1e-9)


def test_boundary_rate_noise_is_mostly_flagged_and_bias_never_passes():
    mesh = build_graded_mesh(interval(0.0, 1.0), 400, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2), amplitude=1.0)
    flagged = 0
    biased_passes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noise = 1.0 + 0.2 * rng.standard_normal(mesh.nodes.size)
        fld = synthetic_steady(mesh, 1.0)
        fld.values *= noise
        rep = boundary_rate(fld, prob, side="right", rtol=0.05)
        flagged += not rep.converged
        wrong = synthetic_steady(mesh, 1.25)
        wrong.values *= noise
        rep_wrong = boundary_rate(wrong, prob, side="right", rtol=0.05)
        biased_passes += rep_wrong.passed
    # unstructured ladders are usually marked non-converged, and a constant
    # that is 25% off never slips through the tolerance
    assert flagged >= 12
    assert biased_passes == 0


def test_boundary_rate_needs_enough_rungs():
    mesh = build_graded_mesh(interval(0.0, 1.0), 8, 1.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2))
    fld = synthetic_steady(mesh, 1.0)
    with pytest.raises(DomainError, match="refine"):
        boundary_rate(fld, prob, side="right")


def test_boundary_rate_requires_time_for_trajectories():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    fld = SpaceTimeField(mesh=mesh, times=np.array([0.0, 0.1]),
                         values=np.ones((2, mesh.nodes.size)))
    with pytest.raises(DomainError, match="t0"):
        boundary_rate(fld, prob)


def synthetic_trajectory(mesh, times, curve, spatial=None):
    vals = np.empty((times.size, mesh.nodes.size))
    for j, t in enumerate(times):
        base = curve(t) if t > 0 else 1e300
        vals[j] = base if spatial is None else base * spatial(mesh.nodes)
    return SpaceTimeField(mesh=mesh, times=times, values=vals)


def test_initial_rate_exact_curve():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = build_time_grid(0.2, 400, 2.0)
    fld = synthetic_trajectory(mesh, times, lambda t: (1.0 + t) / t)
    rep = initial_rate(fld, prob, rtol=0.05)
    assert rep.passed and rep.details["two_sided"]
    assert rep.extrapolated == pytest.approx(1.0, abs=1e-3)


def test_initial_rate_respects_frozen_coefficient():
    # weight amplitude 2 at the midpoint freezes tau = 1/(2t)
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    w = constant_weight(const_kernel(), 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = build_time_grid(0.2, 400, 2.0)
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / (2.0 * t))
    rep = initial_rate(fld, prob, rtol=0.05)
    assert rep.details["frozen_coefficient"] == pytest.approx(2.0)
    assert rep.extrapolated == pytest.approx(1.0, abs=1e-6)


def test_initial_rate_gate_upper_bound_only():
    # ball with N = 4 at p = 4/3 sits exactly on the gate threshold,
    # so only the upper bound is asserted
    mesh = build_graded_mesh(ball(1.0, 4), 64, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=4.0 / 3.0, nl=power(2), weight=w, horizon=0.5)
    times = build_time_grid(0.2, 400, 2.0)
    fld = synthetic_trajectory(mesh, times, lambda t: 0.8 / t)
    rep = initial_rate(fld, prob, rtol=0.05)
    assert rep.details["upper_bound_only"]
    assert rep.passed  # 0.8 <= 1 + tol
    high = synthetic_trajectory(mesh, times, lambda t: 1.5 / t)
    rep2 = initial_rate(high, prob, rtol=0.05)
    assert not rep2.passed


def test_initial_rate_two_sidedness_comes_from_the_quotient_test(monkeypatch):
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = build_time_grid(0.2, 400, 2.0)
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / t)
    assert initial_rate(fld, prob, rtol=0.05).details["two_sided"]
    monkeypatch.setattr(rates, "quotient_increasing", lambda nl, exponent, grid=None: False)
    rep = initial_rate(fld, prob, rtol=0.05)
    assert not rep.details["two_sided"] and rep.details["upper_bound_only"]


def test_initial_rate_rejects_boundary_layer_point():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = build_time_grid(0.2, 100, 2.0)
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / t)
    with pytest.raises(DomainError, match="boundary layer"):
        initial_rate(fld, prob, x0=0.01)


def test_uniqueness_gap_trivial_and_gating():
    mesh = build_graded_mesh(interval(0.0, 1.0), 64, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    times = build_time_grid(0.2, 50, 2.0)
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / t,
                               spatial=lambda x: 1.0 + x * (1 - x))
    prob2 = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    gap = uniqueness_gap(fld, fld, prob2)
    assert gap.gap == 0.0 and gap.asserted
    prob3 = ParabolicProblem(mesh=mesh, p=3.0, nl=power(2), weight=w, horizon=0.5)
    gap3 = uniqueness_gap(fld, fld, prob3)
    assert not gap3.asserted and "not asserted" in gap3.note
    # non-constant kernel also blocks the assertion
    probk = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2),
                             weight=constant_weight(power_kernel(1.0), 1.0), horizon=0.5)
    assert not uniqueness_gap(fld, fld, probk).asserted
    # nor does a concave absorption
    probc = ParabolicProblem(mesh=mesh, p=2.0, nl=power(0.5), weight=w, horizon=0.5)
    assert not uniqueness_gap(fld, fld, probc).asserted


def test_sandwich_on_synthetic_fields():
    mesh = build_graded_mesh(interval(0.0, 1.0), 80, 2.0)
    w = constant_weight(const_kernel(), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = build_time_grid(0.2, 60, 2.0)
    d = mesh.boundary_distance()
    prof = np.full(mesh.nodes.size, 1e300)
    prof[d > 0] = 6.0 / d[d > 0] ** 2
    env = lambda t: 1.0 / t + prof
    vals = np.array([0.5 * env(t) if t > 0 else np.full(mesh.nodes.size, 1e300)
                     for t in times])
    fld = SpaceTimeField(mesh=mesh, times=times, values=vals)
    rep = sandwich_check(fld, fld, prob, t_star=0.1)
    assert rep.passed
    assert rep.sup_upper == pytest.approx(0.5, rel=1e-9)
    assert rep.inf_lower == pytest.approx(0.5, rel=1e-9)
    # either field without a finite, trusted node below t_star is refused
    untrusted = SpaceTimeField(mesh=mesh, times=times, values=vals,
                               meta={"trusted_region": np.zeros(vals.shape, dtype=bool)})
    blank = SpaceTimeField(mesh=mesh, times=times, values=np.full(vals.shape, np.nan))
    for lower, upper in ((fld, untrusted), (blank, fld)):
        with pytest.raises(DomainError, match="no trusted nodes"):
            sandwich_check(lower, upper, prob, t_star=0.1)


def test_rate_report_row_schema():
    mesh = build_graded_mesh(interval(0.0, 1.0), 400, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2))
    rep = boundary_rate(synthetic_steady(mesh, 1.0), prob, side="right")
    row = rep.row()
    assert set(row) == {"name", "predicted", "extrapolated", "rel_error",
                        "tolerance", "converged", "passed", "rungs"}
    assert row["passed"] == 1


def test_trajectory_curves_come_from_the_envelope_branches(tmp_path):
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 2.0)
    w = constant_weight(power_kernel(1.0), 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = np.array([0.0, 0.05, 0.1, 0.2])
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / t)
    path = tmp_path / "trajectory.csv"
    _write_trajectory_csv(path, prob, fld)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    t = times[1:]
    assert len(rows) == t.size * mesh.nodes.size

    def column(name):
        # one value per time, repeated over the nodes
        vals = np.array([r[name] for r in rows]).reshape(t.size, mesh.nodes.size)
        assert np.all(vals == vals[:, :1])
        return list(vals[:, 0])

    def fmt(values):
        return [_fmt(v) for v in values]

    # a non-decreasing kernel: (upper, lower) = (effective, plain)
    upper, lower = _by_branch(prob, *_space_free_curves(prob.nl, prob.weight.kernel, prob.p))
    assert column("curve_effective") == fmt(upper.value(t))
    assert column("curve_plain") == fmt(lower.value(t))
    b0 = 2.0 * 0.5 ** 2  # amplitude * k(d)**p at the midpoint
    assert column("curve_frozen") == fmt(lower.value(b0 * t))
    assert column("curve_effective") != column("curve_plain")


def test_trajectory_and_sandwich_invert_the_effective_curve_once(tmp_path, monkeypatch):
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 2.0)
    w = constant_weight(power_kernel(1.0), 1.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = np.array([0.0, 0.05, 0.1, 0.2])
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / t)
    calls = []
    invert = blowdown.invert_decreasing
    monkeypatch.setattr(blowdown, "invert_decreasing",
                        lambda func, t: calls.extend(np.ravel(t)) or invert(func, t))
    _write_trajectory_csv(tmp_path / "trajectory.csv", prob, fld)
    sandwich_check(fld, fld, prob, t_star=0.2)
    # the plain curve of power(2) is closed-form; the effective one is inverted per time
    assert sorted(calls) == list(times[1:])


def _reference_trajectory_csv(path, prob, fld):
    """The trajectory CSV written field by field, one ``_fmt`` per entry."""
    mesh = fld.mesh
    d = mesh.boundary_distance()
    inner = d > 0.0
    prof = np.full(mesh.nodes.size, np.nan)
    prof[inner] = profile_of_distance(prob.nl, prob.p, prob.weight.kernel, d[inner])
    i0 = int(np.argmin(np.abs(mesh.nodes - 0.5 * (mesh.domain.a + mesh.domain.b))))
    b0 = float(prob.weight.values(d[i0], prob.p))
    rows = np.nonzero(fld.times > 0.0)[0]
    t = fld.times[rows]
    xi, xis = space_free_values(prob, t)
    tau = BlowdownCurve(prob.nl).value(b0 * t)
    with open(path, "w") as fh:
        fh.write("t,x,d,value,curve_plain,curve_effective,curve_frozen,profile\n")
        for k, j in enumerate(rows):
            for i, x in enumerate(mesh.nodes):
                row = (t[k], x, d[i], fld.values[j, i], xi[k], xis[k], tau[k], prof[i])
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def test_trajectory_csv_matches_the_field_by_field_reference(tmp_path):
    mesh = build_graded_mesh(interval(0.0, 1.0), 16, 2.0)
    w = constant_weight(power_kernel(1.0), 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2), weight=w, horizon=0.5)
    times = np.array([0.0, 0.05, 0.1, 0.2])
    vals = np.geomspace(1e-300, 1e300, times.size * mesh.nodes.size).reshape(times.size, -1)
    vals[2, 5] = 0.0
    vals[1, 3] = -2.5
    fld = SpaceTimeField(mesh=mesh, times=times, values=vals)
    _write_trajectory_csv(tmp_path / "new.csv", prob, fld)
    _reference_trajectory_csv(tmp_path / "ref.csv", prob, fld)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    # the boundary nodes carry a NaN profile; the zero value is written too
    assert new.count(b",nan\n") == 2 * (times.size - 1)
    assert b",0.00000000000e+00," in new


def _template_trajectory_csv(path, prob, fld):
    """The trajectory CSV written through one %-template per step, into which
    the node pieces are formatted once and each value goes through "%.11e"."""
    mesh = fld.mesh
    d = mesh.boundary_distance()
    inner = d > 0.0
    prof = np.full(mesh.nodes.size, np.nan)
    prof[inner] = profile_of_distance(prob.nl, prob.p, prob.weight.kernel, d[inner])
    x0 = 0.5 * (mesh.domain.a + mesh.domain.b) if mesh.domain.kind == "interval" else 0.0
    i0 = int(np.argmin(np.abs(mesh.nodes - x0)))
    b0 = float(prob.weight.values(d[i0], prob.p))
    rows = np.nonzero(fld.times > 0.0)[0]
    t = fld.times[rows]
    xi, xis = space_free_values(prob, t)
    tau = xi if b0 == 1.0 else BlowdownCurve(prob.nl).value(b0 * t)
    n = mesh.nodes.size
    tmpl = "".join([f"%s{_fmt(x)},{_fmt(dv)},%.11e%s,{_fmt(pv)}\n"
                    for x, dv, pv in zip(mesh.nodes, d, prof)])
    args = [None] * (3 * n)
    with open(path, "w") as fh:
        fh.write("t,x,d,value,curve_plain,curve_effective,curve_frozen,profile\n")
        for k, j in enumerate(rows):
            args[0::3] = [f"{_fmt(t[k])},"] * n
            args[1::3] = fld.values[j].tolist()
            args[2::3] = [f",{_fmt(xi[k])},{_fmt(xis[k])},{_fmt(tau[k])}"] * n
            fh.write(tmpl % tuple(args))


@pytest.mark.parametrize("suite", ["power", "ball2d"])
def test_trajectory_csv_matches_the_template_writer_on_suite_fields(suite, tmp_path):
    (cfg,) = SUITES[suite]
    prob = _build_problem(cfg)[-1]
    fld = minimal_solution(prob, build_time_grid(cfg.t_star, cfg.n_steps, cfg.time_grading),
                           cap_base=cfg.cap_base, cap_factor=cfg.cap_factor,
                           max_rungs=cfg.max_cap_rungs, margin=cfg.cap_margin)
    _write_trajectory_csv(tmp_path / "new.csv", prob, fld)
    _template_trajectory_csv(tmp_path / "ref.csv", prob, fld)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _reference_sandwich_ratios(lower_fld, upper_fld, prob, t_star):
    """sup(upper/envelope) and inf(lower/envelope) with both envelopes, both
    double-indexed field copies and both quotients held at once."""
    mesh = lower_fld.mesh
    tmask = (lower_fld.times > 0.0) & (lower_fld.times <= t_star)
    interior = mesh.interior_idx
    prof = profile_of_distance(prob.nl, prob.p, prob.weight.kernel,
                               mesh.boundary_distance()[interior])
    up_vals, lo_vals = _by_branch(prob, *space_free_values(prob, lower_fld.times[tmask]))
    up_env = up_vals[:, None] + prof[None, :]
    lo_env = lo_vals[:, None] + prof[None, :]
    u_up = upper_fld.values[tmask][:, interior]
    u_lo = lower_fld.values[tmask][:, interior]
    ok_up = np.isfinite(u_up)
    ok_lo = np.isfinite(u_lo)
    for ok, fld in ((ok_up, upper_fld), (ok_lo, lower_fld)):
        trusted = fld.meta.get("trusted_region")
        if trusted is not None:
            ok &= trusted[tmask][:, interior]
    return (float(np.max(np.where(ok_up, u_up / up_env, -np.inf))),
            float(np.min(np.where(ok_lo, u_lo / lo_env, np.inf))))


@pytest.mark.parametrize("suite", ["power", "kernel-linear"])
def test_sandwich_matches_the_reference_on_suite_fields(suite):
    (cfg,) = SUITES[suite]
    prob = _build_problem(cfg)[-1]
    times = build_time_grid(cfg.t_star, cfg.n_steps, cfg.time_grading)
    caps = dict(cap_base=cfg.cap_base, cap_factor=cfg.cap_factor,
                max_rungs=cfg.max_cap_rungs, margin=cfg.cap_margin)
    mn = minimal_solution(prob, times, **caps)
    mx = maximal_solution(prob, times, cfg.eps_start * cfg.eps_factor ** np.arange(cfg.eps_rungs),
                          **caps)
    # both masks bite on the interior nodes below t_star
    below = (times > 0.0) & (times <= cfg.t_star)
    grid = np.ix_(below, prob.mesh.interior_idx)
    assert np.isnan(mx.values[grid]).any()
    assert not mx.meta["trusted_region"][grid][np.isfinite(mx.values[grid])].all()
    before = mx.values.copy(), mn.values.copy()
    rep = sandwich_check(mn, mx, prob, t_star=cfg.t_star, bounds=cfg.sandwich_bounds)
    assert (rep.sup_upper, rep.inf_lower) == _reference_sandwich_ratios(mn, mx, prob, cfg.t_star)
    assert rep.passed
    # the fields themselves are left as they were
    assert np.array_equal(mx.values, before[0], equal_nan=True)
    assert np.array_equal(mn.values, before[1], equal_nan=True)


def test_trajectory_reuses_the_plain_curve_for_a_unit_frozen_weight(tmp_path, monkeypatch):
    # b0 = 1: the frozen column is the plain curve, inverted once per time
    mesh = build_graded_mesh(interval(0.0, 1.0), 6, 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power_log(2),
                            weight=constant_weight(const_kernel(), 1.0), horizon=0.5)
    times = np.array([0.0, 0.05, 0.1, 0.2])
    fld = synthetic_trajectory(mesh, times, lambda t: 1.0 / t)
    rates._space_free_values.cache_clear()
    calls = []
    invert = blowdown.invert_decreasing

    def counting(func, t):
        # the profile column inverts phi through the same routine; count the curves only
        if not isinstance(func.__self__, BlowupProfile):
            calls.extend(np.ravel(t))
        return invert(func, t)

    monkeypatch.setattr(blowdown, "invert_decreasing", counting)
    _write_trajectory_csv(tmp_path / "trajectory.csv", prob, fld)
    assert sorted(calls) == list(times[1:])
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["curve_frozen"] == row["curve_plain"] for row in rows)
