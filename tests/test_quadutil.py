"""``quadutil.quad`` and ``quadutil.brentq`` call scipy's compiled QUADPACK and
Brent routines directly; for the arguments the program passes they must
return what scipy's public ``quad`` and ``brentq`` return, bit for bit, and
fail where those fail.  ``upper_tail_integral`` sets numpy's error state once
per quadrature; it must return what the per-point wrapper below returns, bit
for bit, let no numpy warning escape, and name its two failure modes."""

import math
import warnings
from importlib import import_module

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import blowuplab as bl
from blowuplab.errors import DomainError, NumericsError, QuadratureWarning
from blowuplab.karamata import BlowupProfile, effective_absorption
from blowuplab.nonlinearity import power_log, primitive, rv_index_estimate
from blowuplab.quadutil import QUAD_LIMIT, brentq, quad, upper_tail_integral
from blowuplab.scipyext import load_extension


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def scipy_quad(func, a, b, epsrel=1e-11):
    return scipy.integrate.quad(func, a, b, epsabs=0.0, epsrel=epsrel, limit=QUAD_LIMIT)


def smooth(x):
    return math.exp(-x) * math.cos(3.0 * x) / (1.0 + x * x)


@pytest.mark.parametrize("a, b", [(0.0, 2.5), (2.5, 0.0), (1.5, 1.5)],
                         ids=["smooth", "reversed", "empty"])
def test_quad_matches_scipy_bit_for_bit(a, b):
    assert bits(quad(smooth, a, b, epsrel=1e-11)) == bits(scipy_quad(smooth, a, b))


def test_quad_warns_where_scipy_warns():
    # power_log(3)'s primitive overflows inside [0, 1.99 * 2**254]: QUADPACK
    # stops on roundoff (ier 2), the case of the primitive's overflow test
    func, b = power_log(3).func, 1.99 * 2.0 ** 254
    with pytest.warns(QuadratureWarning, match=r"\(QUADPACK ier = 2\)"):
        got = quad(func, 0.0, b, epsrel=1e-11)
    with pytest.warns(scipy.integrate.IntegrationWarning, match="roundoff"):
        expected = scipy_quad(func, 0.0, b)
    assert bits(got) == bits(expected)


def test_quad_rejects_what_scipy_rejects():
    # epsrel below 50 machine epsilons with epsabs = 0: QUADPACK's ier 6
    with pytest.raises(ValueError, match="ier = 6"):
        quad(smooth, 0.0, 1.0, epsrel=1e-20)
    with pytest.raises(ValueError):
        scipy_quad(smooth, 0.0, 1.0, epsrel=1e-20)


def test_brentq_matches_scipy_bit_for_bit():
    def func(x):
        return math.log(x) + x * x - 2.0

    got = brentq(func, 1e-3, 10.0, rtol=1e-14)
    assert bits(got) == bits(scipy.optimize.brentq(func, 1e-3, 10.0, rtol=1e-14))
    assert isinstance(got, float) and abs(func(got)) < 1e-13


@pytest.mark.parametrize("func, match", [
    (lambda x: math.nan if x > 0.9 else x - 0.5, "NaN"),
    (lambda x: x * x + 1.0, "different signs"),
], ids=["nan", "same-sign"])
def test_brentq_raises_where_scipy_raises(func, match):
    with pytest.raises(ValueError, match=match):
        brentq(func, 0.0, 1.0, rtol=1e-14)
    with pytest.raises(ValueError, match=match):
        scipy.optimize.brentq(func, 0.0, 1.0, rtol=1e-14)


@pytest.mark.parametrize("name", ["scipy.integrate._quadpack", "scipy.optimize._zeros"])
def test_extension_falls_back_to_the_ordinary_import_without_its_file(tmp_path, name):
    # an editable or meson build keeps no extension file beside the package
    assert load_extension(name, tmp_path) is import_module(name)
    assert load_extension(name) is import_module(name)


# -- reference: the tail quadrature that entered numpy's error state at every point --

def reference_upper_tail_integral(func, lower, decay, *, epsrel=1e-11):
    m = 2.0 / (decay - 1.0)

    def transformed(x):
        s = lower * x ** (-m)
        if not np.isfinite(s):
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            v = func(s) * m * s / x
        return v if np.isfinite(v) else 0.0

    return float(quad(transformed, 0.0, 1.0, epsrel=epsrel)[0])


def effective_curve_case(w):
    args = (bl.power(2.0), bl.make_kernel("power(1)"), 2.0)
    curve = bl.BlowdownCurve(lambda s: float(effective_absorption(*args, s)), name="effective")
    return curve._integrand, w, curve.decay, {}


def profile_below_its_table_case():
    prof = BlowupProfile(power_log(2), 2.0)
    return prof._integrand, 1e-12, prof.decay, {}


def tail_integrable_case():
    # nonlinearity._tail_integrable's quadrature for power_log(3) at p = 2
    nl, p = power_log(3), 2.0
    decay = (rv_index_estimate(nl) + 1.0) / p
    return lambda s: primitive(nl, s) ** (-1.0 / p), 1.0, decay, {"epsrel": 1e-9}


def overflowing_case():
    # np.cosh overflows to inf above s ~ 710, and 1/inf = 0: silent only
    # under the error state the quadrature sets
    return lambda s: np.float64(s) ** -2.0 * (1.0 + 1.0 / np.cosh(np.float64(s))), 1.0, 2.0, {}


def overflowing_product_case():
    # a finite func(s) whose product with m s / x overflows counts as 0
    return lambda s: 1e306 if s > 100.0 else s ** -3.0, 1.0, 3.0, {}


TAIL_CASES = {
    **{f"effective-w={w:g}": (lambda w=w: effective_curve_case(w)) for w in (1e-2, 1.0, 1e3, 1e6)},
    "profile-below-table": profile_below_its_table_case,
    "tail-integrable": tail_integrable_case,
    "numpy-overflow": overflowing_case,
    "overflowing-product": overflowing_product_case,
}


@pytest.mark.parametrize("case", TAIL_CASES)
def test_upper_tail_integral_matches_per_point_reference_bit_for_bit(case):
    func, lower, decay, kw = TAIL_CASES[case]()
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = upper_tail_integral(func, lower, decay, **kw)
        assert np.geterr() == before
        expected = reference_upper_tail_integral(func, lower, decay, **kw)
    assert bits(got) == bits(expected)
    assert math.isfinite(got) and got > 0.0


def test_error_state_is_restored_after_an_integrand_that_raises():
    before = np.geterr()

    def failing(s):
        if s > 10.0:
            raise ZeroDivisionError("from the integrand")
        return s ** -2.0

    with pytest.raises(ZeroDivisionError, match="from the integrand"):
        upper_tail_integral(failing, 1.0, 2.0)
    assert np.geterr() == before


def test_nan_integrand_is_an_error_naming_s():
    with pytest.raises(NumericsError, match=r"NaN at s = \S+"):
        upper_tail_integral(lambda s: float("nan"), 1.0, 2.0)
    with pytest.raises(NumericsError, match=r"NaN at s = "):
        upper_tail_integral(lambda s: math.nan if s > 50.0 else s ** -2.0, 1.0, 2.0)


def test_substitution_overflow_is_an_error_naming_the_decay():
    with pytest.raises(NumericsError, match=r"tail decay 1\.01 is too close to 1"):
        upper_tail_integral(lambda s: s ** -1.01, 1.0, 1.01)


@pytest.mark.parametrize("lower", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("decay", [1.5, 2.0, 3.0, 6.0])
def test_upper_tail_integral_of_a_pure_power(decay, lower):
    got = upper_tail_integral(lambda s: s ** -decay, lower, decay)
    expected = lower ** (1.0 - decay) / (decay - 1.0)
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lower, decay, match", [
    (0.0, 2.0, "lower limit"), (-1.0, 2.0, "lower limit"),
    (1.0, 1.0, "decay index"), (1.0, 0.5, "decay index"),
])
def test_upper_tail_integral_rejects_its_domain(lower, decay, match):
    with pytest.raises(DomainError, match=match):
        upper_tail_integral(lambda s: s ** -2.0, lower, decay)
