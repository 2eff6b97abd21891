import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab.sciformat import format_e11_rows


def formatted(values, rows=1):
    """The helper's strings for ``values``, laid out in ``rows`` rows, flattened;
    a RuntimeWarning (an invalid cast, say) fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = np.asarray(values, dtype=float).reshape(rows, -1)
        return [s for row in format_e11_rows(grid) for s in row]


@settings(max_examples=500, deadline=None)
@given(v=st.floats())
@example(v=math.nan)
@example(v=math.inf)
@example(v=-math.inf)
@example(v=0.0)
@example(v=-0.0)
@example(v=5e-324)
@example(v=-2.2250738585072014e-308)
def test_matches_python_for_every_float(v):
    assert formatted([v]) == ["%.11e" % v]


def _tie_neighbourhoods():
    # exact ties in the 12th digit exist where (m + 1/2) * 10**(e - 11) is a
    # double: e >= 11 and fewer than 16 digits
    for m in (100000000000, 123456789012, 999999999999, 555555555555):
        for e in range(11, 16):
            tie = (m + 0.5) * 10.0 ** (e - 11)
            yield from (tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf))
    # elsewhere the nearest doubles to a 13-digit decimal ending in 5
    for k in range(-25, 26):
        for digits in ("1.000000000005", "1.234567890125", "9.876543210985"):
            near = float(f"{digits}e{k}")
            yield from (near, math.nextafter(near, 0.0), math.nextafter(near, math.inf))


def _fixed_values():
    for k in range(-25, 26):
        p = float(f"1e{k}")
        yield from (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))
        carry = 9.999999999995 * p  # rounds up into the next decade
        yield from (carry, math.nextafter(carry, 0.0), math.nextafter(carry, math.inf))
    yield from (1e100, 1.5e-100, 1.7976931348623157e308, 2.2250738585072014e-308, 1e-310)
    yield from _tie_neighbourhoods()


def test_matches_python_on_powers_of_ten_carries_and_ties():
    values = np.array(list(_fixed_values()))
    values = np.concatenate([values, -values])
    assert formatted(values) == ["%.11e" % v for v in values.tolist()]


def test_matches_python_row_by_row_on_a_seeded_sweep():
    # every binade the helper formats itself, its edges, and the special values
    # scattered over the rows
    rng = np.random.default_rng(16)
    values = np.ldexp(rng.uniform(0.5, 1.0, 40000), rng.integers(-45, 120, 40000))
    values[rng.random(values.size) < 0.3] *= -1.0
    values[rng.integers(0, values.size, 40)] = [np.nan, np.inf, -np.inf, 0.0, -0.0] * 8
    rows = formatted(values, rows=100)
    assert rows == ["%.11e" % v for v in values.tolist()]
    assert len(rows) == values.size
