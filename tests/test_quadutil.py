"""``quadutil.quad`` and ``quadutil.brentq`` call scipy's compiled QUADPACK and
Brent routines directly; for the arguments the program passes they must
return what scipy's public ``quad`` and ``brentq`` return, bit for bit, and
fail where those fail."""

import math
from importlib import import_module

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from blowuplab.errors import QuadratureWarning
from blowuplab.nonlinearity import power_log
from blowuplab.quadutil import QUAD_LIMIT, brentq, quad
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
