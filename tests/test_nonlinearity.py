import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab import nonlinearity
from blowuplab.errors import ConfigError, DomainError, NumericsError, QuadratureWarning
from blowuplab.nonlinearity import (
    Nonlinearity,
    blowup_order,
    check_conditions,
    make_nonlinearity,
    power,
    power_log,
    primitive,
    quotient_increasing,
    rv_index_estimate,
    validate_declared_index,
)
from blowuplab.quadutil import gauss_legendre, integral_on_interval


def test_primitive_closed_forms():
    assert primitive(power(2), 3.0) == pytest.approx(9.0)  # u^3/3 at 3
    assert primitive(power(2), 0.0) == 0.0
    assert primitive(power(4), 2.0) == pytest.approx(32.0 / 5.0)  # u^5/5 at 2


def test_primitive_quadrature_matches_independent_quad():
    nl = power_log(3)
    for u in (0.5, 2.0, 37.0):
        oracle, _ = quad(nl.func, 0.0, u)
        assert primitive(nl, u) == pytest.approx(oracle, rel=1e-9)


def test_primitive_table_matches_closed_form_of_power_log_2():
    # F(u) = (u^3+1)/3 log1p(u) - u^3/9 + u^2/6 - u/3; near u = 1e-8 its terms
    # cancel over 24 digits, so it is evaluated at 90
    nl = power_log(2)
    with mpmath.workdps(90):
        for u in np.geomspace(1e-8, 1e80, 89):
            m = mpmath.mpf(u)
            exact = (m ** 3 + 1) / 3 * mpmath.log1p(m) - m ** 3 / 9 + m ** 2 / 6 - m / 3
            assert primitive(nl, u) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_primitive_table_matches_quadrature_for_power_log_3():
    nl = power_log(3)
    for u in np.geomspace(1e-8, 1e60, 69):
        assert primitive(nl, u) == pytest.approx(integral_on_interval(nl.func, 0.0, u),
                                                 rel=1e-12, abs=0.0)


def test_primitive_outside_the_table_is_the_quadrature(monkeypatch):
    calls = []

    def counting(func, a, b):
        calls.append(b)
        return integral_on_interval(func, a, b)

    # below 2**-30; above the last node 2**300
    cases = [(power_log(2), 1e-12), (power_log(2), 2.0 ** 301)]
    for nl, u in cases:
        primitive(nl, 1.0)  # builds the table
        monkeypatch.setattr(nonlinearity, "integral_on_interval", counting)
        assert primitive(nl, u) == integral_on_interval(nl.func, 0.0, u)
        monkeypatch.undo()
    assert calls == [u for _, u in cases]


@pytest.mark.parametrize("nl", [power_log(3), power_log(4)], ids=lambda nl: nl.name)
def test_primitive_past_the_last_finite_node_is_one_panel(nl, monkeypatch):
    # for power_log(3) and power_log(4) F overflows in the table after the
    # nodes 2**254 and 2**203; the band up to the next node is read as the
    # last finite entry plus one panel, and agrees with the quadrature from 0
    top = nonlinearity.primitive_table_top(nl)
    assert top in (254, 203)
    u = np.ldexp(1.0, top) * (1.0 + np.arange(512) / 512.0)
    monkeypatch.setattr(nonlinearity, "integral_on_interval", None)
    got = primitive(nl, u)
    monkeypatch.undo()
    expected = []
    with warnings.catch_warnings():  # QUADPACK falls short where F nears overflow
        warnings.simplefilter("ignore", QuadratureWarning)
        for v in u:
            try:
                expected.append(integral_on_interval(nl.func, 0.0, float(v)))
            except NumericsError:
                expected.append(np.inf)
    expected = np.array(expected)
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(got), finite)  # inf exactly where quad overflows
    assert finite.sum() >= 200 and not finite.all()
    assert np.max(np.abs(got[finite] / expected[finite] - 1.0)) <= 1e-12


def test_primitive_is_inf_where_it_overflows(monkeypatch):
    # for power_log(3) the table's last finite node is 2**254; F overflows
    # inside [2**254, 2**255), and from 2**255 up it is inf without quadrature
    nl = power_log(3)
    assert np.isfinite(primitive(nl, 2.0 ** 254))
    assert primitive(nl, 1.99 * 2.0 ** 254) == np.inf
    monkeypatch.setattr(nonlinearity, "integral_on_interval", None)
    assert primitive(nl, 2.0 ** 255) == np.inf
    got = primitive(nl, np.array([2.0 ** 255, 2.0 ** 600, 1.0]))
    assert np.array_equal(got, [np.inf, np.inf, primitive(nl, 1.0)])


def test_primitive_inside_the_table_runs_no_quadrature(monkeypatch):
    nl = power_log(2)
    primitive(nl, 1.0)  # builds the table
    calls = []
    monkeypatch.setattr(nonlinearity, "integral_on_interval",
                        lambda *args, **kwargs: calls.append(args) or integral_on_interval(*args))
    for u in (2.0 ** -30, 1e-6, 0.3, 1.0, 7.5, 1e5, 3e40, 2.0 ** 299 * 1.9):
        primitive(nl, u)
    assert calls == []


def test_primitive_of_an_array_equals_the_scalar_values():
    # inside the table, below it, and above its last node, in one call
    u = np.array([[0.0, 1e-12, 2.0 ** -30], [0.3, 3e40, 2.0 ** 301]])
    for nl in (power_log(2), power(2)):
        got = primitive(nl, u)
        assert got.shape == u.shape
        assert np.array_equal(got, [[primitive(nl, float(v)) for v in row] for row in u])


def test_gauss_legendre_rule_is_exact_to_degree_39():
    x, w = gauss_legendre(20)
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    for k in range(40):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.dot(w, x ** k) == pytest.approx(exact, abs=1e-14)


def test_primitive_rejects_negative():
    with pytest.raises(DomainError):
        primitive(power(2), -1.0)


def test_rv_index_pure_powers_exact_at_single_rung():
    assert rv_index_estimate(power(2), 2.0, [1e4]) == pytest.approx(2.0, abs=1e-6)
    assert rv_index_estimate(power(1.5), 3.0, [1e5]) == pytest.approx(1.5, abs=1e-6)


def test_rv_index_slowly_varying_factor_extrapolates_away():
    nl = power_log(3)
    ladder = np.geomspace(1e2, 1e8, 21)
    est = rv_index_estimate(nl, 2.0, ladder)
    assert est == pytest.approx(3.0, abs=1e-2)
    # the raw rung at u = 1e8 is visibly off; only extrapolation removes it
    u = 1e8
    raw = math.log(nl.func(2 * u) / nl.func(u)) / math.log(2.0)
    expect_raw = 3.0 + math.log(math.log1p(2 * u) / math.log1p(u)) / math.log(2.0)
    assert raw == pytest.approx(expect_raw, abs=1e-12)
    assert abs(raw - 3.0) > 1e-2


def test_rv_index_reports_offending_abscissa():
    def broken(u):
        return u * u if u < 1e6 else float("nan")

    with pytest.raises(NumericsError, match="u ="):
        rv_index_estimate(broken, 2.0, np.geomspace(1e2, 1e8, 13))


def test_rv_index_probe_validation():
    with pytest.raises(DomainError):
        rv_index_estimate(power(2), 1.0)
    with pytest.raises(DomainError):
        rv_index_estimate(power(2), 2.0, [1e4, 1e3])


def test_conditions_quadratic_all_pass():
    rep = check_conditions(power(2), 2.0)
    assert rep.superlinear_index
    assert rep.quotient_increasing
    assert rep.scaling_bound and rep.scaling_exponent == pytest.approx(2.0)
    assert rep.tail_integrable
    assert rep.convex
    assert rep.measured_index == pytest.approx(2.0, abs=1e-6)
    assert rep.all_core


def test_convexity_is_checked_on_slopes():
    # on a geometric grid the second differences of every power are positive,
    # so only the divided-difference slopes tell concave from convex
    log1p = Nonlinearity(name="log1p", index=0.0, func=np.log1p,
                         deriv=lambda u: 1.0 / (1.0 + np.asarray(u)))
    for nl in (power(0.5), log1p):
        assert not check_conditions(nl, 2.0).convex
    for nl in (power(2), power_log(2), power_log(3)):
        assert check_conditions(nl, 2.0).convex


def test_conditions_sublinear_index_fails():
    rep = check_conditions(power(0.5), 2.0)
    assert not rep.superlinear_index
    assert not rep.all_core


def test_conditions_quotient_fails_for_large_p():
    # s^{-(p-1)} f = s^{-1} is decreasing for f = u^2, p = 4
    rep = check_conditions(power(2), 4.0)
    assert not rep.quotient_increasing


def test_quotient_test_sees_a_late_peak():
    # f(s)/s = s / (1 + (s/1e7)^2) rises up to s = 1e7, then falls
    nl = Nonlinearity(name="saturating", index=2.0,
                      func=lambda s: np.asarray(s, dtype=float) ** 2
                      / (1.0 + (np.asarray(s, dtype=float) / 1e7) ** 2),
                      deriv=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    assert not quotient_increasing(nl, 1.0)
    assert quotient_increasing(nl, 1.0, grid=np.geomspace(1e-3, 1e6, 48))  # ends before the peak
    assert quotient_increasing(power(2), 1.0)


def test_scaling_bound_implies_pointwise_inequality():
    nl, l = power(2), 2.0
    rep = check_conditions(nl, 2.0, scaling_exponent=l)
    assert rep.scaling_bound
    grid = np.geomspace(1e-2, 1e4, 32)
    for eps in (0.5, 0.1, 0.01):
        assert np.all(nl.func(eps * grid) <= eps ** l * nl.func(grid) * (1 + 1e-12))


def test_increasing_quotient_grants_scaling_bound():
    # f(u)/u^l increasing on the grid for l = 3 > max{1, p-1}
    nl = power_log(3)
    rep = check_conditions(nl, 2.0, scaling_exponent=3.0)
    assert rep.scaling_bound


def test_primitive_monotone_convex_when_f_increasing():
    nl = power_log(2)
    grid = np.geomspace(0.1, 10.0, 24)
    F = np.array([primitive(nl, u) for u in grid])
    assert np.all(np.diff(F) > 0.0)
    assert np.all(F[2:] - 2 * F[1:-1] + F[:-2] > -1e-12)


def test_declared_index_mismatch_is_config_error():
    bad = Nonlinearity(name="mislabeled", index=2.5,
                       func=lambda u: np.asarray(u) ** 2,
                       deriv=lambda u: 2.0 * np.asarray(u))
    with pytest.raises(ConfigError, match="disagrees"):
        validate_declared_index(bad)


def test_registry_keys():
    assert make_nonlinearity("power(2)").index == 2.0
    assert make_nonlinearity(" power_log(3) ").name == "power_log(3)"
    with pytest.raises(ConfigError, match="unknown nonlinearity"):
        make_nonlinearity("cubic")
    with pytest.raises(ConfigError):
        make_nonlinearity("power(-1)")


def test_blowup_order():
    assert blowup_order(2.0, 2.0) == pytest.approx(3.0)
    assert blowup_order(4.0, 3.0) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        blowup_order(1.0, 2.0)


def test_pure_power_tail_check_is_closed_form(monkeypatch):
    # the quadrature verdict, taken on the same absorption with its pure-power
    # primitive undeclared, before the quadrature is disabled
    grid = [(rho, p) for rho in (0.5, 1.0, 2.0, 3.0, 4.0) for p in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0)]
    assert (2.0, 3.0) in grid  # power(2) at p = 3: (rho + 1)/p = 1, divergent
    expected = {}
    for rho, p in grid:
        nl = power(rho)
        bare = dataclasses.replace(nl, primitive_power=None)
        expected[rho, p] = nonlinearity._tail_integrable(bare, p, rv_index_estimate(nl))
    assert not expected[2.0, 3.0] and expected[2.0, 2.5]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("pure-power tail check ran a quadrature")

    monkeypatch.setattr(nonlinearity, "upper_tail_integral", no_quadrature)
    for rho, p in grid:
        nl = power(rho)
        assert nonlinearity._tail_integrable(nl, p, rv_index_estimate(nl)) == expected[rho, p]
