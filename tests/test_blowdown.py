import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from blowuplab.blowdown import (
    BlowdownCurve,
    equivalence_check,
    solve_blowdown,
    two_scale_equivalence,
)
from blowuplab import blowdown, quadutil
from blowuplab.errors import ConfigError, DomainError, NumericsError
from blowuplab.karamata import BlowupProfile, effective_absorption, power_kernel
from blowuplab.nonlinearity import power, power_log
from blowuplab.quadutil import TailTable, invert_decreasing, upper_tail_integral

ROOT6 = math.sqrt(6.0)


def closed_power_curve(gamma, t, coef=1.0):
    # separation of variables for w' = -coef * w^gamma:
    # w(t) = ((gamma-1) * coef * t)^(-1/(gamma-1))
    return ((gamma - 1.0) * coef * t) ** (-1.0 / (gamma - 1.0))


def test_quadratic_curve():
    assert solve_blowdown(lambda w: w * w, 0.5, index=2) == pytest.approx(2.0, rel=1e-10)


def test_scaled_quadratic_curve():
    assert solve_blowdown(lambda w: 2.0 * w * w, 0.25, index=2) == pytest.approx(2.0, rel=1e-10)


def test_three_halves_curve():
    # the effective absorption of the linear kernel: g = 2 sqrt(6) w^{3/2}
    g = lambda w: 2.0 * ROOT6 * w ** 1.5
    assert solve_blowdown(g, 1.0, index=1.5) == pytest.approx(1.0 / 6.0, rel=1e-9)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_power_family_closed_form(gamma):
    curve = BlowdownCurve(lambda w, gamma=gamma: w ** gamma, index=gamma)
    for t in (1e-3, 0.1, 1.0, 10.0):
        assert curve.value(t) == pytest.approx(closed_power_curve(gamma, t), rel=1e-8)


@pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
def test_closed_form_matches_quadrature_path(rho):
    t = np.geomspace(1e-5, 10.0, 25)
    closed = BlowdownCurve(power(rho)).value(t)
    quadrature = BlowdownCurve(lambda w, rho=rho: w ** rho, index=rho).value(t)
    np.testing.assert_allclose(closed, quadrature, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("b0", [0.25, 4.0])
def test_time_rescaling_equals_scaled_absorption(b0):
    # G of b0 * f is G of f over b0, so the curve of b0 * f at t is the curve of f at b0 * t
    nl = power_log(2)
    t = np.geomspace(1e-4, 1.0, 5)
    rescaled = BlowdownCurve(nl).value(b0 * t)
    scaled = BlowdownCurve(lambda u: b0 * float(nl.func(u)), index=2).value(t)
    np.testing.assert_allclose(rescaled, scaled, rtol=1e-10, atol=0.0)


def test_one_inversion_per_point(monkeypatch):
    # one inversion call per value call, against the object's own first
    # integral, and one root per time
    owners, roots = [], []
    invert_one = quadutil._invert_one

    def counting(func, t):
        owners.append(func.__self__)
        return invert_decreasing(func, t)

    def one_root(func, t):
        roots.append(t)
        return invert_one(func, t)

    monkeypatch.setattr(blowdown, "invert_decreasing", counting)
    monkeypatch.setattr(quadutil, "_invert_one", one_root)
    quad_power = dataclasses.replace(power(2), primitive_power=None)
    t = np.array([0.05, 0.1, 0.5, 1.0, 3.0])
    for obj in (BlowdownCurve(lambda w: w * w, index=2), BlowupProfile(quad_power, 2.0)):
        for arg in (0.3, t, t.reshape(5, 1)):
            owners.clear()
            roots.clear()
            obj.value(arg)
            assert len(owners) == 1 and owners[0] is obj
            assert roots == np.ravel(arg).tolist()
    owners.clear()
    roots.clear()
    BlowdownCurve(power(2)).value(t)  # closed form: nothing to invert
    assert owners == [] and roots == []


def test_invert_decreasing_paths():
    assert invert_decreasing(lambda x: 1.0 / x, 1.0) == 1.0
    assert invert_decreasing(lambda x: 1.0 / x, 1.0 / 64.0) == 64.0  # a bracket end
    assert invert_decreasing(lambda x: x ** -2.0, 0.3) == pytest.approx(0.3 ** -0.5, rel=1e-13)
    assert invert_decreasing(lambda x: x ** -2.0, 1e5) == pytest.approx(10 ** -2.5, rel=1e-13)
    with pytest.raises(DomainError):
        invert_decreasing(lambda x: 1.0 / (1.0 + x), 2.0)  # beyond func(0+) = 1


def _effective_curve():
    args = (power(2), power_kernel(1.0), 2.0)
    return BlowdownCurve(lambda s: float(effective_absorption(*args, s)), name="effective")


# times that share bracket points and Brent's first points, a bracket end hit
# exactly (1/64 for 1/x), repeats, and times on both sides of x = 1
SHARED_TIMES = np.array([1e-4, 3e-4, 1.1e-4, 0.05, 1.0 / 64.0, 0.3, 0.3, 1.0, 7.0])


@pytest.mark.parametrize("case", ["curve", "profile", "callable-curve", "plain-callable"])
def test_array_inversion_equals_per_element_inversions_bit_for_bit(case):
    if case == "plain-callable":
        func = lambda x: 1.0 / x + 1e-3 * x ** -1.5
        whole = invert_decreasing(func, SHARED_TIMES)
        single = [invert_decreasing(func, float(t)) for t in SHARED_TIMES]
    else:
        obj = {"curve": lambda: BlowdownCurve(power_log(2)),
               "profile": lambda: BlowupProfile(power_log(2), 2.0),
               "callable-curve": lambda: BlowdownCurve(lambda w: w * w * math.log(2.0 + w),
                                                       index=2)}[case]()
        whole = obj.value(SHARED_TIMES)
        single = [obj.value(float(t)) for t in SHARED_TIMES]
    assert isinstance(single[0], float)
    assert whole.shape == SHARED_TIMES.shape
    assert whole.tobytes() == np.array(single).tobytes()
    assert whole[-2] > whole[-1]  # decreasing, not a copy of one value


def test_inversion_keeps_the_shape_of_t():
    func = lambda x: x ** -2.0
    grid = SHARED_TIMES[:8].reshape(2, 4)
    out = invert_decreasing(func, grid)
    assert out.shape == (2, 4)
    assert out.tobytes() == np.array([invert_decreasing(func, t) for t in grid.ravel()]).tobytes()
    assert isinstance(invert_decreasing(func, np.float64(0.3)), float)
    assert isinstance(invert_decreasing(func, np.array(0.3)), float)
    assert invert_decreasing(func, np.array([])).shape == (0,)


def test_each_abscissa_is_evaluated_once_per_call():
    xs = []

    def func(x):
        xs.append(x)
        return 1.0 / x + 1e-3 * x ** -1.5

    invert_decreasing(func, SHARED_TIMES)
    assert len(xs) == len(set(xs))
    first = list(xs)
    per_element = 0
    for t in SHARED_TIMES:
        xs.clear()
        invert_decreasing(func, float(t))
        per_element += len(xs)
    assert len(first) < per_element  # the times share points
    xs.clear()
    invert_decreasing(func, SHARED_TIMES)  # a second call: nothing kept from the first
    assert xs == first


def test_each_first_integral_is_evaluated_once_per_curve_call(monkeypatch):
    ws = []
    first_integral = BlowdownCurve.first_integral

    def counting(self, w):
        ws.append(w)
        return first_integral(self, w)

    monkeypatch.setattr(BlowdownCurve, "first_integral", counting)
    curve = BlowdownCurve(power_log(2))
    curve.value(SHARED_TIMES)
    assert len(ws) == len(set(ws)) > 0
    first = list(ws)
    ws.clear()
    curve.value(SHARED_TIMES)  # no state on the curve: the same work again
    assert ws == first


def test_a_failing_point_inside_an_array_still_raises():
    with pytest.raises(DomainError, match="exceeds the range"):
        invert_decreasing(lambda x: 1.0 / (1.0 + x), np.array([0.5, 2.0, 0.3]))
    with pytest.raises(NumericsError, match="failed to bracket"):
        invert_decreasing(lambda x: 1.0 + 1.0 / x, np.array([2.0, 0.5]))
    with pytest.raises(NumericsError, match="underflows to 0"):
        BlowdownCurve(power_log(2)).value(np.array([0.1, 1e300, 0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", ["power_log-curve", "power-curve", "power_log-profile",
                                  "effective-curve"])
def test_non_finite_time_is_refused_before_any_quadrature(case, bad, monkeypatch):
    obj = {"power_log-curve": lambda: BlowdownCurve(power_log(2)),
           "power-curve": lambda: BlowdownCurve(power(2)),
           "power_log-profile": lambda: BlowupProfile(power_log(2), 2.0),
           "effective-curve": _effective_curve}[case]()
    monkeypatch.setattr(blowdown, "invert_decreasing",
                        lambda func, t: pytest.fail("a non-finite time reached the inversion"))
    for arg in (bad, np.array([0.1, bad, 0.2])):
        with pytest.raises(DomainError, match=f"got {bad:g}"):
            obj.value(arg)


def test_underflowing_g_is_an_error_naming_s():
    curve = BlowdownCurve(power_log(2))
    assert float(curve.g(1e-200)) == 0.0
    with pytest.raises(NumericsError, match=r"underflows to 0 at s = 1e-200"):
        curve._integrand(1e-200)
    with pytest.raises(NumericsError, match="underflows to 0 at s = "):
        curve.value(1e300)


def test_tail_table_of_a_pure_power_is_exact():
    # the closed top tail X h(X) / (decay - 1) is exact for h = s**-2, so
    # every entry, and every value between them, is the exact tail 1/y
    table = TailTable(lambda s: s ** -2.0, 2.0, -30, 300)
    for y in np.geomspace(2.0 ** -30, 2.0 ** 259, 200):
        assert table(y) == pytest.approx(1.0 / y, rel=1e-14, abs=0.0)
    # below the first node, and above the trusted top 2**(300 - 40)
    assert table(2.0 ** -31) is None and table(2.0 ** 260) is None


def _counting(monkeypatch, module):
    calls = []

    def counting(func, lower, decay, **kwargs):
        calls.append(lower)
        return upper_tail_integral(func, lower, decay, **kwargs)

    monkeypatch.setattr(module, "upper_tail_integral", counting)
    return calls


@pytest.mark.parametrize("rho", [2.0, 3.0])
def test_first_integral_table_matches_quadrature(rho, monkeypatch):
    curve = BlowdownCurve(power_log(rho))
    w = np.geomspace(1e-8, 1e70, 40)
    t = np.geomspace(1e-4, 10.0, 6)
    calls = _counting(monkeypatch, blowdown)
    table = np.array([curve.first_integral(v) for v in w])
    from_table = curve.value(t)
    assert calls == []  # every G above came from the table
    monkeypatch.setattr(blowdown, "_first_integral_table", lambda nl, index: lambda w: None)
    quadrature = np.array([curve.first_integral(v) for v in w])
    assert len(calls) == w.size
    np.testing.assert_allclose(table, quadrature, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(from_table, curve.value(t), rtol=1e-10, atol=0.0)


def test_first_integral_outside_the_table_is_the_quadrature(monkeypatch):
    # below the first node 2**-30; above the trusted top (2**260 for power_log(2))
    nl = power_log(2)
    curve = BlowdownCurve(nl)
    curve.first_integral(1.0)  # builds the table
    calls = _counting(monkeypatch, blowdown)
    for w in (1e-12, 2.0 ** 290):
        assert curve.first_integral(w) == upper_tail_integral(
            lambda s: 1.0 / float(nl.func(s)), w, nl.index)
    assert calls == [1e-12, 2.0 ** 290]


def test_plain_callable_curve_keeps_the_quadrature(monkeypatch):
    calls = _counting(monkeypatch, blowdown)
    nl = power_log(2)
    BlowdownCurve(lambda u: float(nl.func(u)), index=2.0).first_integral(1.0)
    assert calls == [1.0]


def test_round_trip_first_integral():
    curve = BlowdownCurve(power(2))
    for t in (1e-3, 0.05, 1.0):
        assert curve.first_integral(curve.value(t)) == pytest.approx(t, rel=1e-8)


def test_ode_residual():
    curve = BlowdownCurve(power(2))
    for t in (0.1, 1.0):
        assert curve.ode_residual(t) < 1e-6


@settings(max_examples=30, deadline=None)
@given(t1=st.floats(1e-3, 1.0), t2=st.floats(1e-3, 1.0))
@example(t1=1.0, t2=math.nextafter(1.0, 0.0))  # both values round to 1.0
def test_monotone_decreasing(t1, t2):
    # the curve is 1/t: for t's a few ulps apart its values can round to the
    # same float, so the decrease is strict only past a relative gap of 2**-40
    curve = BlowdownCurve(power(2))
    t1, t2 = sorted((t1, t2))
    w1, w2 = curve.value(t1), curve.value(t2)
    assert w1 >= w2
    if t2 >= t1 * (1.0 + 2.0 ** -40):
        assert w1 > w2


@settings(max_examples=30, deadline=None)
@given(t1=st.floats(1e-3, 1.0), k=st.integers(1, 8))
def test_strictly_decreasing_between_close_times(t1, k):
    # independent draws lie far apart, so a curve that is flat on short runs
    # of t (one rounded to a few decimals, say) would pass the test above
    curve = BlowdownCurve(power(2))
    t2 = t1 * (1.0 + 2.0 ** -30 * k)
    assert curve.value(t1) > curve.value(t2)


def test_pointwise_comparison():
    # g1 >= g2 pointwise implies w1 <= w2; closed forms 1/(exp(t)-1) vs 1/t
    g1 = lambda w: w * w * (1.0 + 1.0 / w)
    g2 = lambda w: w * w
    c1 = BlowdownCurve(g1, index=2)
    c2 = BlowdownCurve(g2, index=2)
    for t in (0.01, 0.1, 1.0):
        v1, v2 = c1.value(t), c2.value(t)
        assert v1 <= v2
        assert v1 == pytest.approx(1.0 / math.expm1(t), rel=1e-8)
        assert v2 == pytest.approx(1.0 / t, rel=1e-8)


def test_forward_integration_consistency():
    # independent oracle: march the ODE forward from our own early value
    curve = BlowdownCurve(lambda w: w ** 1.7, index=1.7)
    t0, t1 = 1e-3, 1.0
    w0 = curve.value(t0)
    sol = solve_ivp(lambda t, y: [-y[0] ** 1.7], (t0, t1), [w0], rtol=1e-11, atol=1e-13)
    assert curve.value(t1) == pytest.approx(sol.y[0][-1], rel=1e-7)


def test_equivalence_identical():
    ev = equivalence_check(lambda w: w * w, lambda w: w * w,
                           np.geomspace(0.1, 1e-4, 7), g_index=2, h_index=2)
    np.testing.assert_allclose(ev.ratios, 1.0, rtol=1e-9)
    assert ev.limit.value == pytest.approx(1.0, abs=1e-9)


def test_equivalence_perturbed_power():
    ev = equivalence_check(lambda w: w * w * (1 + 1 / w), lambda w: w * w,
                           np.geomspace(1e-1, 1e-5, 9), g_index=2, h_index=2)
    assert abs(ev.ratios[-1] - 1.0) < 1e-3
    assert ev.limit.value == pytest.approx(1.0, abs=1e-3)


def test_equivalence_constant_factor_band():
    # g = 4 w^2 vs h = w^2: curves 1/(4t) and 1/t, ratio h-curve/g-curve = 4,
    # inside the band [1, 4^{1/nu}] for nu = 0.5
    ev = equivalence_check(lambda w: w * w, lambda w: 4 * w * w,
                           np.geomspace(0.1, 1e-4, 7), g_index=2, h_index=2)
    np.testing.assert_allclose(ev.ratios, 4.0, rtol=1e-9)
    assert 1.0 <= ev.sup <= 4.0 ** (1.0 / 0.5)


def test_two_scale_trivial():
    ev = two_scale_equivalence(lambda u: u, lambda u: u, 1.0,
                               np.geomspace(1.0, 1e-3, 6), g_index=1, h_index=1)
    np.testing.assert_allclose(ev.ratios, 1.0, rtol=1e-9)


def test_two_scale_linear_closed_form():
    # v' = -2v^2 and w' = -w^2: v = 1/(2t), w = 1/t, ratio w/v = 2
    ev = two_scale_equivalence(lambda u: u, lambda u: u, 2.0,
                               np.geomspace(1.0, 1e-3, 6), g_index=1, h_index=1)
    np.testing.assert_allclose(ev.ratios, 2.0, rtol=1e-8)


def test_two_scale_sqrt_linear_bounded():
    # v' = -g(4v)h(v) = -2 v^{3/2}, w' = -w^{3/2}: closed forms 1/t^2 and 4/t^2
    ev = two_scale_equivalence(lambda u: u ** 0.5, lambda u: u, 4.0,
                               np.geomspace(1.0, 1e-4, 9), g_index=0.5, h_index=1)
    assert np.all(ev.ratios >= 1.0 - 1e-9)
    assert np.all(ev.ratios <= 4.0 + 1e-9)
    np.testing.assert_allclose(ev.ratios, 4.0, rtol=1e-8)


def test_blowdown_error_paths():
    with pytest.raises(ConfigError):
        BlowdownCurve(lambda w: w, index=1.0)  # tail of 1/g not integrable
    curve = BlowdownCurve(power(2))
    with pytest.raises(DomainError):
        curve.value(-1.0)
    with pytest.raises(NumericsError):
        BlowdownCurve(power(1.5)).value(np.array([1e-300, 1.0]))  # w would overflow
    with pytest.raises(DomainError):
        equivalence_check(lambda w: w * w, lambda w: w * w, [1e-4, 1e-3],
                          g_index=2, h_index=2)
    with pytest.raises(ConfigError):
        two_scale_equivalence(lambda u: u ** 0.2, lambda u: u ** 0.5, 1.0,
                              np.geomspace(1.0, 1e-2, 4), g_index=0.2, h_index=0.5)
