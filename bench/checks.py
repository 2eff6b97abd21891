"""Output checks of the benchmark workloads.

Every check takes plain numbers (parsed CSV columns, arrays) and returns a
list of failure messages, empty when the check passes, so a test can feed it
a deliberately wrong input and see the failure.  The expected values are
computed here, from closed forms or an independent quadrature, never read
back from a stored copy of the program's output.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# the CSV artifacts carry 12 significant digits
CSV_RTOL = 1e-9


def boundary_constant(rho: float, p: float, ell: float, beta: float) -> float:
    """Predicted boundary-rate constant ((r + ell - 1) / (r beta))**((r - 1)/p)."""
    r = (rho + 1.0) / (rho + 1.0 - p)
    return ((r + ell - 1.0) / (r * beta)) ** ((r - 1.0) / p)


def power_curve(rho: float, t):
    """Blow-down curve of f(u) = u**rho: ((rho - 1) t)**(-1/(rho - 1))."""
    return ((rho - 1.0) * np.asarray(t, dtype=float)) ** (-1.0 / (rho - 1.0))


def _power_tail(rho: float, p: float) -> tuple[float, float]:
    """(amp, a) with T(y) = amp * y**(-a) for F(s) = s**(rho+1)/(rho+1)."""
    a = (rho + 1.0) / p - 1.0
    return (p / (p - 1.0) / (rho + 1.0)) ** (-1.0 / p) / a, a


def power_tail_time(rho: float, p: float, y):
    """T(y) = integral_y^inf (p' F(s))**(-1/p) ds for f(s) = s**rho."""
    amp, a = _power_tail(rho, p)
    return amp * np.asarray(y, dtype=float) ** (-a)


def power_profile(rho: float, p: float, t):
    """phi(t), the inverse of ``power_tail_time``."""
    amp, a = _power_tail(rho, p)
    return (amp / np.asarray(t, dtype=float)) ** (1.0 / a)


def close(label: str, got, want, rtol: float) -> list[str]:
    """Relative agreement of two arrays, reported at the worst point."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) / np.abs(want)
    bad = ~(err <= rtol)
    if not np.any(bad):
        return []
    i = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
    return [f"{label}: {int(bad.sum())} of {err.size} values off by more than {rtol:g} "
            f"(worst {got.flat[i]:.12g} vs {want.flat[i]:.12g})"]


def decreasing(label: str, t, values) -> list[str]:
    """Values strictly decrease as t increases."""
    order = np.argsort(t)
    v = np.asarray(values, dtype=float)[order]
    n = int(np.sum(~(np.diff(v) < 0.0)))
    return [f"{label}: {n} increases along t"] if n else []


def read_table(text: str) -> dict[str, np.ndarray]:
    """Numeric CSV text -> column arrays ("nan" allowed)."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def rates_rows(text: str, expected: dict[str, float], rtol: float) -> list[str]:
    """Every rates.csv row passed, predicts the constant computed here, and
    extrapolates to within ``rtol`` of it.

    ``expected`` maps a row-name prefix to its predicted constant; each prefix
    must match exactly one row.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    # names such as "boundary-rate[right, t=0.1]" hold an unquoted comma, so
    # the numeric fields are split off from the right
    rows = [dict(zip(header, line.rsplit(",", len(header) - 1))) for line in lines[1:]]
    out = []
    for prefix, want in expected.items():
        match = [r for r in rows if r["name"].startswith(prefix)]
        if len(match) != 1:
            out.append(f"rates.csv: {len(match)} rows named {prefix}*, expected 1")
    for row in rows:
        name = row["name"]
        if row["passed"] != "1":
            out.append(f"rates.csv {name}: passed = {row['passed']}")
        prefix = max((k for k in expected if name.startswith(k)), key=len, default=None)
        if prefix is None:
            out.append(f"rates.csv: unexpected row {name}")
            continue
        want = expected[prefix]
        pred, ext = float(row["predicted"]), float(row["extrapolated"])
        if not abs(pred - want) <= CSV_RTOL * abs(want):
            out.append(f"rates.csv {name}: predicted {pred:.12g}, computed {want:.12g}")
        if not abs(ext - want) <= rtol * abs(want):
            out.append(f"rates.csv {name}: extrapolated {ext:.6g} outside {rtol:g} of {want:.6g}")
    return out


def profile_column(label: str, d, profile, amp: float, expo: float) -> list[str]:
    """profile == amp * d**(-expo) off the boundary and NaN on it."""
    d = np.asarray(d, dtype=float)
    profile = np.asarray(profile, dtype=float)
    on = d == 0.0
    out = close(label, profile[~on], amp * d[~on] ** (-expo), CSV_RTOL)
    if not np.all(np.isnan(profile[on])):
        out.append(f"{label}: boundary rows must carry NaN")
    return out


def trajectory_grid(table: dict[str, np.ndarray]):
    """trajectory.csv columns -> (times, nodes, values[n_t, n_x])."""
    t = table["t"]
    times = np.unique(t)
    nx = t.size // times.size
    if times.size * nx != t.size:
        raise ValueError("trajectory rows do not form a time x node grid")
    return times, table["x"][:nx], table["value"].reshape(times.size, nx)


def monotone_symmetric(label: str, nodes, values, sym_rtol: float = 1e-8) -> list[str]:
    """u is nonincreasing in t and symmetric about the midpoint of the nodes."""
    nodes = np.asarray(nodes, dtype=float)
    u = np.asarray(values, dtype=float)
    out = []
    if not np.allclose(nodes + nodes[::-1], nodes[0] + nodes[-1], rtol=0.0, atol=1e-12):
        out.append(f"{label}: nodes not symmetric")
    rise = np.diff(u, axis=0) / np.abs(u[:-1])
    if not np.all(rise <= 1e-12):
        out.append(f"{label}: u increases in t (relative rise {np.nanmax(rise):.3g})")
    asym = np.abs(u - u[:, ::-1]) / np.abs(u)
    if not np.all(asym <= sym_rtol):
        out.append(f"{label}: u not symmetric (relative gap {np.nanmax(asym):.3g})")
    return out


def above_curve(label: str, times, values, rho: float) -> list[str]:
    """u(x, t) >= the blow-down curve of u**rho at every node and every t > 0
    (the space-free curve is a subsolution)."""
    t = np.asarray(times, dtype=float)
    keep = t > 0.0
    ratio = np.asarray(values, dtype=float)[keep] / power_curve(rho, t[keep])[:, None]
    if np.all(ratio >= 1.0 - 1e-12):
        return []
    return [f"{label}: u falls below the blow-down curve (min u/curve {np.nanmin(ratio):.6g})"]


def identical(first: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    """Artifact sets match byte for byte."""
    out = []
    for name in sorted(set(first) | set(other)):
        if first.get(name) != other.get(name):
            out.append(f"artifact {name} differs from the first round's")
    return out


def mp_tail(func, lower: float) -> float:
    """integral_lower^inf func(s) ds by mpmath tanh-sinh quadrature, split by decades."""
    import mpmath as mp

    with mp.workdps(30):
        a = mp.mpf(lower)
        pts = [a * mp.mpf(10) ** k for k in range(0, 7)] + [mp.inf]
        return float(mp.quad(func, pts))


def power_log_primitive(u):
    """F(u) = integral_0^u s**2 log(1 + s) ds in closed form (mpmath precision)."""
    import mpmath as mp

    return (u ** 3 + 1) / 3 * mp.log1p(u) - u ** 3 / 9 + u ** 2 / 6 - u / 3


def power_log_first_integral(w: float) -> float:
    """G(w) = integral_w^inf ds / (s**2 log(1 + s))."""
    import mpmath as mp

    return mp_tail(lambda s: 1 / (s ** 2 * mp.log1p(s)), w)


def power_log_tail_time(y: float, p: float) -> float:
    """T(y) = integral_y^inf (p' F(s))**(-1/p) ds for f(s) = s**2 log(1 + s)."""
    pc = p / (p - 1.0)
    return mp_tail(lambda s: (pc * power_log_primitive(s)) ** (-1.0 / p), y)
