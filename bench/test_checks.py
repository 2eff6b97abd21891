"""Every output check of the benchmark can fail: each test feeds a check a
correct input, then a deliberately wrong one, and expects it caught.

    python3 -m pytest bench
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing
import workloads


def _nodes(n_half: int = 20) -> np.ndarray:
    """Symmetric mesh of [0, 1], graded toward both ends."""
    h = 0.5 * np.linspace(0.0, 1.0, n_half + 1) ** 2
    return np.concatenate((h, 1.0 - h[-2::-1]))


def _field(nodes, times):
    """max(6/d^2, 1.1/t): nonincreasing, symmetric, above 1/t, and 6/d^2 in the band."""
    d = np.minimum(nodes, 1.0 - nodes)
    with np.errstate(divide="ignore"):
        prof = np.where(d > 0.0, 6.0 / d ** 2, np.nan)
    u = np.empty((times.size, nodes.size))
    u[0] = 1e14
    u[1:] = np.maximum(np.nan_to_num(prof, nan=1e8)[None, :], 1.1 / times[1:, None])
    return d, prof, u


def _fmt(row) -> str:
    return ",".join(f"{v:.11e}" for v in row) + "\n"


def _suite_artifacts() -> dict[str, bytes]:
    x = _nodes()
    t = 0.2 * np.linspace(0.0, 1.0, 21) ** 2
    d, prof, u = _field(x, t)
    traj = "t,x,d,value,curve_plain,curve_effective,curve_frozen,profile\n"
    for j in range(1, t.size):
        for i in range(x.size):
            traj += _fmt((t[j], x[i], d[i], u[j, i], 1 / t[j], 1 / t[j], 1 / t[j], prof[i]))
    sol = "x,d,value,profile,ratio\n" + "".join(
        _fmt((x[i], d[i], u[-1, i], prof[i], u[-1, i] / prof[i])) for i in range(x.size))
    rates = "name,predicted,extrapolated,rel_error,tolerance,converged,passed,rungs\n"
    for name in ("steady-boundary-rate[right]", "boundary-rate[right, t=0.1]", "initial-rate[x0=0.5]"):
        rates += name + "," + _fmt((1.0, 1.02, 0.02, 0.1))[:-1] + ",1,1,6\n"
    return {"trajectory.csv": traj.encode(), "solutions.csv": sol.encode(),
            "rates.csv": rates.encode(), "summary.txt": b"experiment power-interval\n"}


def _replace_column(text: bytes, column: str, change) -> bytes:
    lines = text.decode().splitlines()
    k = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[k] = f"{change(float(cells[k])):.11e}"
        out.append(",".join(cells))
    return ("\n".join(out) + "\n").encode()


def test_correct_suite_artifacts_pass():
    assert workloads.check_suite(_suite_artifacts(), 0.1) == []


def test_curve_column_off_by_1e6_is_caught():
    arts = _suite_artifacts()
    arts["trajectory.csv"] = _replace_column(arts["trajectory.csv"], "curve_plain",
                                             lambda v: v * (1.0 + 1e-6))
    fails = workloads.check_suite(arts, 0.1)
    assert fails and all("curve_plain" in f for f in fails)


def test_profile_column_off_is_caught():
    arts = _suite_artifacts()
    arts["solutions.csv"] = _replace_column(arts["solutions.csv"], "profile",
                                            lambda v: v * (1.0 + 1e-6))
    fails = workloads.check_suite(arts, 0.1)
    assert fails and all("solutions.csv profile" in f for f in fails)


def test_rates_row_not_passed_is_caught():
    arts = _suite_artifacts()
    lines = arts["rates.csv"].decode().splitlines()
    lines[2] = lines[2][: lines[2].rindex(",1,")] + ",0,6"
    arts["rates.csv"] = ("\n".join(lines) + "\n").encode()
    assert workloads.check_suite(arts, 0.1) == ["rates.csv boundary-rate[right, t=0.1]: passed = 0"]


def test_rates_extrapolation_outside_tolerance_is_caught():
    fails = workloads.check_suite(_suite_artifacts(), 0.01)
    assert len(fails) == 3 and all("extrapolated" in f for f in fails)


def test_changed_byte_in_artifact_is_caught():
    first = _suite_artifacts()
    other = dict(first)
    body = bytearray(other["summary.txt"])
    body[3] ^= 1
    other["summary.txt"] = bytes(body)
    assert checks.identical(first, dict(first)) == []
    assert checks.identical(first, other) == ["artifact summary.txt differs from the first round's"]


def test_asymmetric_or_increasing_trajectory_is_caught():
    x = _nodes()
    t = 0.2 * np.linspace(0.0, 1.0, 21) ** 2
    _, _, u = _field(x, t)
    assert checks.monotone_symmetric("u", x, u) == []
    skew = u.copy()
    skew[:, 3] *= 1.0 - 1e-6
    assert "not symmetric" in checks.monotone_symmetric("u", x, skew)[0]
    rise = u.copy()
    rise[6] = rise[5] * (1.0 + 1e-9)
    assert "increases in t" in checks.monotone_symmetric("u", x, rise)[0]


def test_minimal_checks_pass_on_correct_field():
    x = _nodes(400)
    t = 0.25 * np.linspace(0.0, 1.0, 101) ** 2
    _, _, u = _field(x, t)
    assert workloads.check_minimal(x, t, u) == []


def test_trajectory_scaled_by_3_percent_is_caught():
    x = _nodes(400)
    t = 0.25 * np.linspace(0.0, 1.0, 101) ** 2
    _, _, u = _field(x, t)
    fails = workloads.check_minimal(x, t, 1.03 * u)
    assert len(fails) == 1 and "d^2/6" in fails[0]


def test_field_below_blowdown_curve_is_caught():
    x = _nodes(400)
    t = 0.25 * np.linspace(0.0, 1.0, 101) ** 2
    _, _, u = _field(x, t)
    u[1:] = np.minimum(u[1:], 0.9 / t[1:, None])
    assert any("below the blow-down curve" in f for f in workloads.check_minimal(x, t, u))


def test_closed_forms_agree_with_each_other():
    t = np.geomspace(1e-4, 10.0, 9)
    for rho, p in workloads.KaramataCurves.POWER_PROFILES:
        phi = checks.power_profile(rho, p, t)
        assert checks.close("T(phi)", checks.power_tail_time(rho, p, phi), t, 1e-13) == []
        assert checks.decreasing("phi", t, phi) == []
    assert checks.close("1/t", checks.power_curve(2.0, t), 1.0 / t, 1e-15) == []
    assert checks.boundary_constant(2.0, 2.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_close_and_decreasing_catch_small_errors():
    t = np.geomspace(1e-3, 1.0, 8)
    w = checks.power_curve(3.0, t)
    assert checks.close("w", w * (1.0 + 1e-6), w, 1e-9)
    assert checks.close("w", np.where(t > 0.5, np.nan, w), w, 1e-9)
    bumped = w.copy()
    bumped[4] = bumped[3]
    assert checks.decreasing("w", t, bumped)


def test_mpmath_references_resolve_a_1e6_error():
    # power_log(2): G(w) and T(y) by mpmath, against the same integrals in a
    # crude independent form (midpoint rule on a log grid) to 1e-4
    for w in (0.5, 20.0):
        s = np.geomspace(w, w * 1e12, 200001)
        mid = np.sqrt(s[1:] * s[:-1])
        crude = np.sum(np.diff(s) / (mid ** 2 * np.log1p(mid)))
        g = checks.power_log_first_integral(w)
        assert g == pytest.approx(crude, rel=1e-4)
        assert checks.close("G", [checks.power_log_first_integral(w * (1 + 1e-6))], [g], 1e-8)
    y = 7.0
    tail = checks.power_log_tail_time(y, 2.0)
    assert checks.close("T", [checks.power_log_tail_time(y * (1 + 1e-6), 2.0)], [tail], 1e-8)


def test_tracer_self_time_and_absent_metrics():
    def leaf():
        time.sleep(0.01)

    def outer():
        leaf()
        leaf()

    fake = SimpleNamespace(
        parabolic=SimpleNamespace(newton_solve=lambda: (None, {"iterations": 7})),
        cli=SimpleNamespace(run_experiment=outer),
        discretize=SimpleNamespace(solve_banded=leaf),
    )
    tr = tracing.Tracer()
    tr.install(fake)
    fake.parabolic.newton_solve()
    fake.cli.run_experiment()
    tr.uninstall()
    assert fake.cli.run_experiment is outer
    summ = tr.summary()
    # leaf() inside outer() is not wrapped there (outer calls the local name)
    assert summ["experiment.run_experiment"]["calls"] == 1
    assert summ["experiment.run_experiment"]["self_s"] == pytest.approx(
        summ["experiment.run_experiment"]["inclusive_s"])
    metrics = tr.metrics(artifact_bytes=123)
    # elliptic.newton_solve is missing, so every Newton metric is absent
    assert "discretize.newton_calls" not in metrics
    assert metrics["parabolic.step_solves"]["value"] == 1
    assert metrics["experiment.self_s"]["value"] > 0.015
    assert metrics["experiment.artifact_bytes"] == {"value": 123, "unit": "bytes"}
    assert "karamata.profile_s" not in metrics


def test_tracer_nested_spans():
    tr = tracing.Tracer()
    inner = tr._wrap("blowdown.first_integral", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tr._wrap("rates.sandwich_check", body)()
    summ = tr.summary()
    assert summ["blowdown.first_integral"]["calls"] == 2
    curve = summ["rates.sandwich_check"]
    assert curve["inclusive_s"] >= 0.03
    assert 0.01 <= curve["self_s"] < curve["inclusive_s"] - 0.015
