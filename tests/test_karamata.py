import math

import numpy as np
import pytest

from blowuplab import karamata
from blowuplab.blowdown import BlowdownCurve
from blowuplab.errors import ConfigError, DomainError, NumericsError
from blowuplab.extrapolation import log_slope_limit
from blowuplab.geometry import build_graded_mesh, interval
from blowuplab.karamata import (
    AbsorptionWeight,
    BlowupProfile,
    WeightKernel,
    cap_ceiling,
    const_kernel,
    constant_weight,
    effective_absorption,
    effective_index,
    index_gate_bound,
    kernel_primitive,
    kernel_primitive_inverse,
    limit_estimate,
    make_kernel,
    power_kernel,
    profile_decay_ratio,
    profile_inverse,
    profile_value,
)
from blowuplab.nonlinearity import power, power_log, primitive, rv_index_estimate
from blowuplab.quadutil import upper_tail_integral

ROOT6 = math.sqrt(6.0)
# closed form for f = u^4, p = 3: phi(t) = (10/3)^(1/2) (3/2)^(3/2) t^(-3/2)
QUARTIC_CONST = math.sqrt(10.0 / 3.0) * 1.5 ** 1.5


def test_kernel_primitives():
    assert kernel_primitive(const_kernel(), 0.4) == pytest.approx(0.4)
    assert kernel_primitive(power_kernel(1.0), 0.4) == pytest.approx(0.08)  # s^2/2
    assert kernel_primitive(power_kernel(-0.5), 0.25) == pytest.approx(1.0)  # 2 sqrt(s)


def test_kernel_primitive_respects_finite_support():
    k = power_kernel(1.0, support=2.0)
    with pytest.raises(DomainError):
        kernel_primitive(k, 2.5)
    with pytest.raises(DomainError):
        kernel_primitive(k, 0.0)
    # an array is checked at once, and the error names its first offending value
    with pytest.raises(DomainError, match=r"got 2\.5$"):
        kernel_primitive(k, np.array([0.5, 2.5, 0.0, np.nan]))
    with pytest.raises(DomainError, match=r"got nan$"):
        kernel_primitive(k, np.array([0.5, np.nan]))


def _quadrature_kernel():
    k = power_kernel(0.5)
    return WeightKernel(name="quad-path", func=k.func, monotonicity=k.monotonicity,
                        limit=k.limit, support=k.support)


@pytest.mark.parametrize("kernel", [const_kernel(), power_kernel(1.0), power_kernel(-0.5),
                                    power_kernel(0.7), _quadrature_kernel()],
                         ids=lambda k: k.name)
def test_kernel_primitive_of_an_array_is_the_scalar_loop_bit_for_bit(kernel):
    # distances to the boundary of a graded mesh, as the cap ceiling reads them
    x = build_graded_mesh(interval(0.0, 1.0), 41, 2.0).nodes[1:-1]
    d = np.minimum(x, 1.0 - x).reshape(2, -1)
    K = kernel_primitive(kernel, d)
    assert isinstance(K, np.ndarray) and K.shape == d.shape
    assert np.array_equal(K, [[kernel_primitive(kernel, float(v)) for v in row] for row in d])
    assert isinstance(kernel_primitive(kernel, 0.25), float)


def test_kernel_primitive_inverse_round_trip():
    for k in (const_kernel(), power_kernel(1.0), power_kernel(-0.5)):
        for s in (0.01, 0.4, 1.7):
            y = kernel_primitive(k, s)
            assert kernel_primitive_inverse(k, y) == pytest.approx(s, rel=1e-12)


def test_limit_estimates():
    assert limit_estimate(const_kernel()).value == pytest.approx(1.0, abs=1e-3)
    assert limit_estimate(power_kernel(1.0)).value == pytest.approx(0.5, abs=1e-3)
    assert limit_estimate(power_kernel(-0.5)).value == pytest.approx(2.0, abs=1e-3)


def test_kernel_class_invariants():
    with pytest.raises(ConfigError):
        WeightKernel(name="bad", func=lambda s: s, monotonicity="non-decreasing",
                     limit=1.5, support=2.0)
    with pytest.raises(ConfigError):
        WeightKernel(name="bad", func=lambda s: 1 / s, monotonicity="non-increasing",
                     limit=0.5, support=2.0)
    with pytest.raises(ConfigError):
        power_kernel(-1.5)


def test_kernel_registry():
    assert make_kernel("const").name == "const"
    assert make_kernel("power(1)").limit == pytest.approx(0.5)
    assert make_kernel("power(0)").monotonicity == "constant"
    with pytest.raises(ConfigError, match="unknown kernel"):
        make_kernel("cubic")


def test_profile_quadratic_closed_form():
    nl = power(2)
    assert profile_value(nl, 2.0, 1.0) == pytest.approx(6.0, rel=1e-10)
    assert profile_value(nl, 2.0, 2.0) == pytest.approx(1.5, rel=1e-10)


def test_profile_quartic_closed_form():
    assert profile_value(power(4), 3.0, 1.0) == pytest.approx(QUARTIC_CONST, rel=1e-10)


def test_profile_quadrature_path_matches_closed_form():
    # strip the closed-form primitive so the tail is integrated numerically
    nl = power(2)
    bare = nl.__class__(name="quad-path", index=2.0, func=nl.func, deriv=nl.deriv,
                        primitive_closed=nl.primitive_closed, primitive_power=None)
    prof = BlowupProfile(bare, 2.0)
    for t in (1e-3, 0.1, 1.0, 10.0):
        assert prof.value(t) == pytest.approx(6.0 / t ** 2, rel=1e-6)
    assert prof.tail_time(6.0) == pytest.approx(1.0, rel=1e-9)


def _counting_tail_integrals(monkeypatch):
    calls = []

    def counting(func, lower, decay, **kwargs):
        calls.append(lower)
        return upper_tail_integral(func, lower, decay, **kwargs)

    monkeypatch.setattr(karamata, "upper_tail_integral", counting)
    return calls


@pytest.mark.parametrize("rho,p", [(2.0, 2.0), (3.0, 3.0)])
def test_tail_time_table_matches_quadrature(rho, p, monkeypatch):
    prof = BlowupProfile(power_log(rho), p)
    y = np.geomspace(1e-8, 1e35, 16)
    t = np.array([0.05, 0.5])
    calls = _counting_tail_integrals(monkeypatch)
    table = np.array([prof.tail_time(v) for v in y])
    from_table = prof.value(t)
    assert calls == []  # every T above came from the table
    monkeypatch.setattr(karamata, "_tail_time_table", lambda nl, p: lambda y: None)
    quadrature = np.array([prof.tail_time(v) for v in y])
    assert len(calls) == y.size
    np.testing.assert_allclose(table, quadrature, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(from_table, prof.value(t), rtol=1e-10, atol=0.0)


def test_tail_time_outside_the_table_is_the_quadrature(monkeypatch):
    # below the first node 2**-30; above the trusted tops, where the integral
    # above has damped the top closure's error by 2**-40: 2**219 for
    # power_log(2) at p = 2 and 2**132 for power_log(3) at p = 3
    cases = [(power_log(2), 2.0, 1e-12), (power_log(2), 2.0, 2.0 ** 250),
             (power_log(3), 3.0, 2.0 ** 150)]
    for nl, p, y in cases:
        prof = BlowupProfile(nl, p)
        prof.tail_time(1.0)  # builds the table
        calls = _counting_tail_integrals(monkeypatch)
        assert prof.tail_time(y) == upper_tail_integral(prof._integrand, y, prof.decay)
        assert calls == [y]
        monkeypatch.undo()


def test_tail_time_above_where_the_primitive_overflows():
    # for power_log(3) F overflows near 2**255; far enough up, the tail
    # integral's substitution asks for F there, where its integrand is 0
    prof = BlowupProfile(power_log(3), 3.0)
    t = np.array([prof.tail_time(2.0 ** k) for k in range(175, 191)])
    assert np.all(np.isfinite(t)) and np.all(t > 0.0)
    assert np.all(np.diff(t) < 0.0)


def test_profile_inverse_and_round_trip():
    nl = power(2)
    assert profile_inverse(nl, 2.0, 6.0) == pytest.approx(1.0, rel=1e-10)
    assert profile_inverse(nl, 2.0, 1.5) == pytest.approx(2.0, rel=1e-10)
    for t in (0.1, 1.0, 10.0):
        assert profile_inverse(nl, 2.0, profile_value(nl, 2.0, t)) == pytest.approx(t, rel=1e-8)


def test_profile_ode_residual():
    prof = BlowupProfile(power(2), 2.0)
    for t in (0.3, 1.0, 3.0):
        assert prof.ode_residual(t) < 1e-6


@pytest.mark.parametrize("nl", [power_log(2), power_log(3), power(3)], ids=lambda nl: nl.name)
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_profile_is_the_blowdown_curve_of_its_g(nl, p):
    # phi' = -(p' F(phi))**(1/p): phi is the blow-down curve of g = (p' F)**(1/p),
    # here inverted by adaptive quadrature of 1/g, with no closed form or table
    p_conj = p / (p - 1.0)
    g = lambda s: (p_conj * float(primitive(nl, s))) ** (1.0 / p)
    index = (nl.index + 1.0) / p
    if index <= 1.0:  # power_log(2) at p = 3: both refuse the tail
        for build in (lambda: BlowupProfile(nl, p), lambda: BlowdownCurve(g, index=index)):
            with pytest.raises(ConfigError):
                build()
        return
    t = np.array([0.3, 0.4, 0.5])
    np.testing.assert_allclose(BlowupProfile(nl, p).value(t), BlowdownCurve(g, index=index).value(t),
                               rtol=1e-10, atol=0.0)


def test_profile_closed_form_overflow_is_a_numerics_error():
    prof = BlowupProfile(power(2), 2.0)  # phi(t) = 6 / t**2
    with pytest.raises(NumericsError):
        prof.value(1e-200)
    with pytest.raises(NumericsError):
        prof.value(np.array([1e-200, 1.0]))
    assert prof.value(1e-100) == pytest.approx(6e200, rel=1e-12)


def test_profile_rejects_bad_arguments():
    with pytest.raises(DomainError):
        profile_value(power(2), 2.0, -1.0)
    with pytest.raises(ConfigError):
        BlowupProfile(power(0.5), 2.0)  # tail not integrable


def test_profile_local_index_at_zero():
    # phi has local index 1 - r at 0+
    for nl, p in ((power(2), 2.0), (power(4), 3.0)):
        r = (nl.index + 1.0) / (nl.index + 1.0 - p)
        lim = log_slope_limit(lambda t: profile_value(nl, p, t), 1e-2, toward="zero", rungs=10)
        assert lim.value == pytest.approx(1.0 - r, rel=0.02)


def test_kernel_local_indices_at_zero():
    for k in (const_kernel(), power_kernel(1.0), power_kernel(-0.5)):
        ell = k.limit
        limK = log_slope_limit(lambda s: kernel_primitive(k, s), 1e-2, toward="zero", rungs=10)
        assert limK.value == pytest.approx(1.0 / ell, abs=0.02 / ell)
        limk = log_slope_limit(lambda s: float(k.func(s)) + 0.0, 1e-2, toward="zero", rungs=10)
        assert limk.value == pytest.approx((1.0 - ell) / ell, abs=0.03)


def test_slowly_varying_factor_has_index_zero():
    est = rv_index_estimate(lambda u: np.log1p(u), 2.0, np.geomspace(1e2, 1e8, 21))
    assert est == pytest.approx(0.0, abs=1e-2)


def test_effective_absorption_constant_kernel_is_identity():
    nl = power(2)
    assert effective_absorption(nl, const_kernel(), 2.0, 3.0) == pytest.approx(9.0, rel=1e-10)


def test_effective_absorption_linear_kernel_closed_form():
    # K^{-1}(y) = sqrt(2y), phi^{-1}(s) = sqrt(6/s); composition gives 2*sqrt(6)*s^{3/2}
    nl, k = power(2), power_kernel(1.0)
    assert effective_absorption(nl, k, 2.0, 1.0) == pytest.approx(2 * ROOT6, rel=1e-9)
    assert effective_absorption(nl, k, 2.0, 4.0) == pytest.approx(2 * ROOT6 * 8.0, rel=1e-9)


def test_effective_absorption_propagates_domain_errors():
    # with an explicitly finite kernel support the composition runs out of range
    nl, k = power(2), power_kernel(1.0, support=2.0)
    with pytest.raises(DomainError):
        effective_absorption(nl, k, 2.0, 1.0)  # needs K^{-1}(sqrt 6) = 2.21 > 2


def test_effective_index_values():
    assert effective_index(2.0, 2.0, 1.0) == pytest.approx(2.0)
    assert effective_index(2.0, 2.0, 0.5) == pytest.approx(1.5)
    assert effective_index(4.0, 3.0, 1.0) == pytest.approx(4.0)


def test_effective_index_gate():
    # p = 4, ell = 1: bound is max{1, 3, 3} = 3 and rho = 2 fails it
    assert index_gate_bound(2.0, 4.0, 1.0) == pytest.approx(3.0)
    with pytest.raises(ConfigError, match="index gate"):
        effective_index(2.0, 4.0, 1.0)


def test_effective_absorption_measured_index_matches_q():
    suite = [(power(2), 2.0, const_kernel()), (power(2), 2.0, power_kernel(1.0)),
             (power(4), 3.0, const_kernel())]
    for nl, p, k in suite:
        q = effective_index(nl.index, p, k.limit)
        est = rv_index_estimate(lambda s: effective_absorption(nl, k, p, s), 2.0,
                                np.geomspace(10.0, 1e7, 16))
        assert est == pytest.approx(q, abs=1e-2)


def test_decay_ratio_example_values():
    # f = u^2, p = 2, k = 1: ratio = phi(s)^{-1/2} = s / sqrt(6)
    ev = profile_decay_ratio(const_kernel(), power(2), 2.0, 0.5, np.array([0.1, 0.01]))
    np.testing.assert_allclose(ev.ratios, [0.1 / ROOT6, 0.01 / ROOT6], rtol=1e-9)
    assert ev.decreasing


def test_decay_ratio_window_enforced():
    # admissible window for f = u^2, p = 2, k = 1 is (0, 1)
    with pytest.raises(ConfigError, match="window"):
        profile_decay_ratio(const_kernel(), power(2), 2.0, 1.5, np.array([0.1, 0.01]))


def test_decay_ratio_shares_one_inversion_bit_for_bit(monkeypatch):
    """One phi call over the ladder: the tabled profile is inverted against one
    set of tail-time values, and each ratio keeps the bits of its point alone."""
    s = np.geomspace(1e-1, 1e-4, 12)
    calls = []
    tail_time = BlowupProfile.tail_time
    monkeypatch.setattr(BlowupProfile, "tail_time",
                        lambda self, y: calls.append(y) or tail_time(self, y))
    for nl, p, kern, exponent in [(power_log(2), 2.0, power_kernel(1.0), 0.8),
                                  (power_log(2), 2.0, const_kernel(), 0.5),
                                  (power_log(3), 3.0, power_kernel(0.5), 1.0)]:
        prof = karamata._profile(nl, p)
        K = kernel_primitive(kern, s)
        del calls[:]
        ref = np.array([prof.value(Kv) ** (-exponent) / float(kern.func(sv)) ** p
                        for Kv, sv in zip(K, s)])
        per_point = len(calls)
        del calls[:]
        ev = profile_decay_ratio(kern, nl, p, exponent, s)
        np.testing.assert_array_equal(ev.ratios, ref)
        assert len(calls) < per_point
    # a pure power's phi is a closed form, whose numpy power on an array and
    # libm power on one point can differ in the last bit
    kern = power_kernel(0.5)
    ref = [profile_value(power(3), 1.5, Kv) ** -1.0 / float(kern.func(sv)) ** 1.5
           for Kv, sv in zip(kernel_primitive(kern, s), s)]
    ev = profile_decay_ratio(kern, power(3), 1.5, 1.0, s)
    np.testing.assert_array_max_ulp(ev.ratios, np.array(ref), maxulp=2)


def test_constant_weight():
    w = constant_weight(power_kernel(1.0), 4.0)
    assert w == AbsorptionWeight(kernel=w.kernel, amplitude=4.0)
    # b = 4 * d^2 at p = 2
    np.testing.assert_allclose(w.values(np.array([0.25, 0.5]), 2.0), [0.25, 1.0])
    assert w.values(0.25, 2.0) == 0.25
    # a distance 0 counts as 1e-300, so a singular kernel stays finite there
    assert constant_weight(power_kernel(-0.5), 1.0).values(0.0, 2.0) == pytest.approx(1e300)


@pytest.mark.parametrize("amplitude", [-1.0, 0.0, float("nan"), float("inf")])
def test_weight_amplitude_must_be_positive_and_finite(amplitude):
    with pytest.raises(ConfigError, match=f"positive and finite, got {amplitude:g}"):
        constant_weight(const_kernel(), amplitude)


def test_cap_ceiling_scales_with_margin():
    nl = power(2)
    d = np.array([1e-3, 1e-2, 0.1])
    lo = cap_ceiling(nl, 2.0, const_kernel(), 1.0, d, d, margin=1.0)
    hi = cap_ceiling(nl, 2.0, const_kernel(), 1.0, d, d, margin=8.0)
    assert hi == pytest.approx(8.0 * lo)
    # dominated by the finest cell: phi(1e-3) = 6e6
    assert lo == pytest.approx(6e6, rel=1e-6)


def test_cap_ceiling_evaluates_one_profile_point(monkeypatch):
    points = []
    real = BlowupProfile.value
    monkeypatch.setattr(BlowupProfile, "value",
                        lambda self, t: points.append(np.size(t)) or real(self, t))
    d = np.geomspace(1e-4, 0.5, 8)
    for nl in (power(2), power_log(2)):
        points.clear()
        # a unit mesh distance leaves K(d) = d as the profile argument
        top = cap_ceiling(nl, 2.0, const_kernel(), 1.0, d, np.ones_like(d), margin=1.0)
        assert points == [1]
        # still the largest nodal value of phi, up to the last bit
        largest = float(np.max(real(BlowupProfile(nl, 2.0), d)))
        assert top == pytest.approx(largest, rel=1e-15)
