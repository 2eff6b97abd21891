"""Experiment configuration, execution pipeline, and artifact emission.

A configuration is a flat key-value text file with section headers
(``[problem]``, ``[solver]``, ``[verification]``, ``[output]``).  Loading
validates everything at once and reports every violation, not just the
first; in particular the growth-index gate

    rho > max{1, p-1, p-1-(p-2)/ell}

is re-checked against the declared absorption and kernel, since every rate
prediction downstream consumes it.

A run executes the full pipeline: structural-condition checks, the steady
companion problem, the capped evolution ladder (minimal solution), the
shrinking-collar ladder (maximal solution) when needed, and the enabled
rate reports.  Artifacts (CSV tables, a plain-text summary, plot scripts)
are deterministic: the same configuration yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blowdown import BlowdownCurve
from .elliptic import (DEFAULT_CAP_BASE, DEFAULT_CAP_FACTOR, DEFAULT_CAP_MARGIN, DEFAULT_MAX_RUNGS,
                       EllipticProblem, solve_elliptic_blowup)
from .errors import ConfigError, DomainError, NumericsError, SolverError
from .geometry import ball, build_graded_mesh, interval
from .karamata import (
    constant_weight,
    effective_absorption,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    index_gate_bound,
    make_kernel,
)
from .nonlinearity import check_conditions, make_nonlinearity
from .parabolic import (
    ParabolicProblem,
    build_time_grid,
    maximal_solution,
    minimal_solution,
)
from .rates import (
    RateReport,
    boundary_rate,
    frozen_coefficient,
    initial_rate,
    profile_of_distance,
    sandwich_check,
    space_free_values,
    uniqueness_gap,
)
from .sciformat import format_e11_rows

# steps of trajectory.csv whose values are formatted together: enough to share
# the numpy calls, few enough that the arrays of a chunk stay small
_CSV_CHUNK_STEPS = 32

KNOWN_CHECKS = ("conditions", "elliptic_rate", "boundary_rate", "initial_rate", "sandwich", "uniqueness")

@dataclass
class ExperimentConfig:
    """Validated experiment description with defaults filled in."""

    # problem
    domain_kind: str = "interval"
    a: float = 0.0
    b: float = 1.0
    radius: float = 1.0
    dimension: int = 2
    p: float = 2.0
    absorption: str = "power(2)"
    kernel: str = "const"
    amplitude: float = 1.0
    t_star: float = 0.25
    # solver
    n_cells: int = 200
    mesh_grading: float = 2.0
    cap_base: float = DEFAULT_CAP_BASE
    cap_factor: float = DEFAULT_CAP_FACTOR
    cap_margin: float = DEFAULT_CAP_MARGIN
    max_cap_rungs: int = DEFAULT_MAX_RUNGS
    eps_start: float = 0.04
    eps_factor: float = 0.5
    eps_rungs: int = 4
    n_steps: int = 150
    time_grading: float = 2.0
    # verification
    checks: tuple[str, ...] = ("conditions", "elliptic_rate", "boundary_rate", "initial_rate", "sandwich")
    boundary_t0: tuple[float, ...] = (0.1, 0.2)
    initial_window: tuple[float, float] = (1e-3, 1e-1)
    pde_rtol: float = 0.05
    sandwich_bounds: tuple[float, float] = (1e-3, 1e3)
    ladder_ratio: float = 2.0
    # output
    directory: str = "out"
    name: str = "experiment"


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# the configuration grammar: section -> key -> (attribute, parser, check, message);
# a value that parses but fails its check is reported with the message
_GRAMMAR = {
    "problem": {
        "domain": ("domain_kind", str, lambda v: v in ("interval", "ball"),
                   "domain must be interval or ball"),
        "a": ("a", float, None, None),
        "b": ("b", float, None, None),
        "radius": ("radius", float, lambda v: v > 0, "radius must be positive"),
        "dimension": ("dimension", int, lambda v: v >= 2, "ball dimension must be >= 2"),
        "p": ("p", float, lambda v: v > 1, "p must exceed 1"),
        "absorption": ("absorption", str, None, None),
        "kernel": ("kernel", str, None, None),
        "amplitude": ("amplitude", float, lambda v: 0 < v < np.inf,
                      "amplitude must be positive and finite"),
        "t_star": ("t_star", float, lambda v: v > 0, "t_star must be positive"),
    },
    "solver": {
        "n_cells": ("n_cells", int, lambda v: v >= 8, "need at least 8 cells"),
        "mesh_grading": ("mesh_grading", float, lambda v: v >= 1, "grading must be >= 1"),
        "cap_base": ("cap_base", float, lambda v: v > 0, "cap_base must be positive"),
        "cap_factor": ("cap_factor", float, lambda v: v > 1, "cap_factor must exceed 1"),
        "cap_margin": ("cap_margin", float, lambda v: v >= 1, "cap_margin must be >= 1"),
        "max_cap_rungs": ("max_cap_rungs", int, lambda v: v >= 2, "need >= 2 rungs"),
        "eps_start": ("eps_start", float, lambda v: v > 0, "eps_start must be positive"),
        "eps_factor": ("eps_factor", float, lambda v: 0 < v < 1, "eps_factor in (0,1)"),
        "eps_rungs": ("eps_rungs", int, lambda v: v >= 0, "eps_rungs must be >= 0"),
        "n_steps": ("n_steps", int, lambda v: v >= 4, "need at least 4 time steps"),
        "time_grading": ("time_grading", float, lambda v: v >= 1, "time grading must be >= 1"),
    },
    "verification": {
        "checks": ("checks", _parse_names, None, None),
        "boundary_t0": ("boundary_t0", _parse_floats, None, None),
        "initial_window": ("initial_window", _parse_floats,
                           lambda v: len(v) == 2 and 0 < v[0] < v[1], "window must be 0 < lo < hi"),
        "pde_rtol": ("pde_rtol", float, lambda v: v > 0, "tolerance must be positive"),
        "sandwich_bounds": ("sandwich_bounds", _parse_floats,
                            lambda v: len(v) == 2 and 0 < v[0] < v[1], "bounds must be 0 < lo < hi"),
        "ladder_ratio": ("ladder_ratio", float, lambda v: v > 1, "ladder ratio must exceed 1"),
    },
    "output": {
        "directory": ("directory", str, None, None),
    },
}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file; raise with every violation."""
    import configparser  # only ``blowuplab run`` and ``validate`` read INI files

    # no header can name a section "\n": [DEFAULT] is then an unknown section
    # like any other, and its keys reach no other section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n")
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read configuration file {path}")
    violations: list[str] = []
    for section in parser.sections():
        if section not in _GRAMMAR:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _GRAMMAR[section]:
                violations.append(f"unknown key {key!r} in [{section}]")

    cfg = ExperimentConfig(name=Path(path).stem)
    for section, keys in _GRAMMAR.items():
        for key, (attr, conv, check, describe) in keys.items():
            if not parser.has_option(section, key):
                continue
            raw = parser.get(section, key)
            try:
                val = conv(raw)
            except (ValueError, ConfigError) as exc:
                violations.append(f"[{section}] {key} = {raw!r}: {exc}")
                continue
            if check is not None and not check(val):
                violations.append(f"[{section}] {key} = {raw!r}: {describe}")
                continue
            setattr(cfg, attr, val)

    violations.extend(validate_semantics(cfg))
    if violations:
        raise ConfigError(
            "invalid configuration:\n  " + "\n  ".join(violations), violations=violations
        )
    return cfg


def validate_semantics(cfg: ExperimentConfig) -> list[str]:
    """Cross-field checks, including the growth-index gate."""
    out: list[str] = []
    if cfg.domain_kind == "interval" and not cfg.b > cfg.a:
        out.append(f"interval needs b > a, got ({cfg.a:g}, {cfg.b:g})")
    try:
        nl = make_nonlinearity(cfg.absorption)
    except ConfigError as exc:
        out.append(str(exc))
        nl = None
    try:
        kern = make_kernel(cfg.kernel)
    except ConfigError as exc:
        out.append(str(exc))
        kern = None
    if nl is not None and kern is not None and cfg.p > 1:
        bound = index_gate_bound(nl.index, cfg.p, kern.limit)
        if not nl.index > bound:
            out.append(
                f"index gate violated: growth index {nl.index:g} must exceed "
                f"max{{1, p-1, p-1-(p-2)/ell}} = {bound:g} (p = {cfg.p:g}, ell = {kern.limit:g})"
            )
    for c in cfg.checks:
        if c not in KNOWN_CHECKS:
            out.append(f"unknown verification check {c!r} (known: {', '.join(KNOWN_CHECKS)})")
    for t0 in cfg.boundary_t0:
        if not 0.0 < t0 <= cfg.t_star:
            out.append(f"boundary_t0 = {t0:g} outside the solved window (0, {cfg.t_star:g}]")
    return out


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    reports: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)


def _build_problem(cfg: ExperimentConfig):
    if cfg.domain_kind == "interval":
        dom = interval(cfg.a, cfg.b)
    else:
        dom = ball(cfg.radius, cfg.dimension)
    mesh = build_graded_mesh(dom, cfg.n_cells, cfg.mesh_grading)
    nl = make_nonlinearity(cfg.absorption)
    # built-in kernels are globally defined; the effective-absorption
    # composition needs them beyond any finite support near the small-s end
    kern = make_kernel(cfg.kernel)
    weight = constant_weight(kern, cfg.amplitude)
    prob = ParabolicProblem(mesh=mesh, p=cfg.p, nl=nl, weight=weight)
    return dom, mesh, nl, kern, weight, prob


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute the full pipeline for one configuration.

    Solver errors leave partial artifacts behind and are recorded as
    failures; an assertion that fails marks the experiment failed but never
    aborts the remaining checks.
    """
    out = Path(out_dir if out_dir is not None else cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    res = ExperimentResult(name=cfg.name, passed=True)
    dom, mesh, nl, kern, weight, prob = _build_problem(cfg)
    summary: list[str] = [f"experiment {cfg.name}"]

    def fail(msg: str):
        res.passed = False
        res.failures.append(msg)
        summary.append("FAIL " + msg)

    def note(msg: str):
        summary.append("ok   " + msg)

    def guarded(label: str, fn):
        """Run one solve or check and return its result; failures are recorded
        (as None), never propagated."""
        try:
            return fn()
        except (SolverError, DomainError, NumericsError) as exc:
            diagnostics = getattr(exc, "diagnostics", None)
            fail(f"{label}: {exc}" + (f" ({_format_diagnostics(diagnostics)})" if diagnostics else ""))
            return None

    if "conditions" in cfg.checks:
        report = check_conditions(nl, cfg.p)
        if report.all_core:
            note(f"structural conditions hold (measured index {report.measured_index:.4g})")
        else:
            fail(f"structural conditions violated: {report}")

    if "elliptic_rate" in cfg.checks or "sandwich" in cfg.checks:
        eprob = EllipticProblem(mesh=mesh, p=cfg.p, nl=nl, kernel=kern, amplitude=cfg.amplitude)
        z_field = guarded("steady companion solve failed", lambda: solve_elliptic_blowup(
            eprob, cap_base=cfg.cap_base, cap_factor=cfg.cap_factor,
            max_rungs=cfg.max_cap_rungs, margin=cfg.cap_margin))
        if z_field is not None:
            _write_solution_csv(out / "solutions.csv", eprob, z_field)
            res.artifacts.append("solutions.csv")
            if "elliptic_rate" in cfg.checks:
                def check_elliptic_rate():
                    rep = boundary_rate(z_field, eprob, rtol=cfg.pde_rtol,
                                        ladder_ratio=cfg.ladder_ratio)
                    rep.name = "steady-" + rep.name
                    res.reports.append(rep)
                    (note if rep.passed else fail)(
                        f"{rep.name}: {rep.extrapolated:.6g} vs {rep.predicted:.6g}")
                guarded("steady boundary rate", check_elliptic_rate)

    needs_parabolic = any(c in cfg.checks for c in ("boundary_rate", "initial_rate", "sandwich", "uniqueness"))
    minimal = maximal = None
    if needs_parabolic:
        times = build_time_grid(cfg.t_star, cfg.n_steps, cfg.time_grading)
        minimal = guarded("minimal solution failed", lambda: minimal_solution(
            prob, times, cap_base=cfg.cap_base, cap_factor=cfg.cap_factor,
            max_rungs=cfg.max_cap_rungs, margin=cfg.cap_margin))
        wants_maximal = any(c in cfg.checks for c in ("sandwich", "uniqueness"))
        if minimal is not None and wants_maximal:
            if cfg.eps_rungs <= 0:
                fail("sandwich/uniqueness checks need a collar ladder (eps_rungs > 0)")
            else:
                eps = cfg.eps_start * cfg.eps_factor ** np.arange(cfg.eps_rungs)
                maximal = guarded("maximal solution failed", lambda: maximal_solution(
                    prob, times, eps, cap_base=cfg.cap_base, cap_factor=cfg.cap_factor,
                    max_rungs=cfg.max_cap_rungs, margin=cfg.cap_margin))

    if minimal is not None:
        _write_trajectory_csv(out / "trajectory.csv", prob, minimal)
        res.artifacts.append("trajectory.csv")
        if "boundary_rate" in cfg.checks:
            for t0 in cfg.boundary_t0:
                def check_boundary(t0=t0):
                    rep = boundary_rate(minimal, prob, t0=t0, rtol=cfg.pde_rtol,
                                        ladder_ratio=cfg.ladder_ratio)
                    res.reports.append(rep)
                    (note if rep.passed else fail)(
                        f"{rep.name}: {rep.extrapolated:.6g} vs {rep.predicted:.6g}")
                guarded(f"boundary rate at t = {t0:g}", check_boundary)
        if "initial_rate" in cfg.checks:
            def check_initial():
                rep = initial_rate(minimal, prob, t_window=cfg.initial_window,
                                   rtol=cfg.pde_rtol, ladder_ratio=cfg.ladder_ratio)
                res.reports.append(rep)
                (note if rep.passed else fail)(
                    f"{rep.name}: {rep.extrapolated:.6g} (two-sided: {rep.details['two_sided']})")
            guarded("initial rate", check_initial)
        if "sandwich" in cfg.checks and maximal is not None:
            def check_sandwich():
                sw = sandwich_check(minimal, maximal, prob, t_star=cfg.t_star,
                                    bounds=cfg.sandwich_bounds)
                res.reports.append(sw)
                (note if sw.passed else fail)(
                    f"sandwich ratios in [{sw.inf_lower:.4g}, {sw.sup_upper:.4g}]")
            guarded("sandwich envelopes", check_sandwich)
        if "uniqueness" in cfg.checks and maximal is not None:
            def check_gap():
                gap = uniqueness_gap(minimal, maximal, prob)
                res.reports.append(gap)
                note(f"uniqueness gap {gap.gap:.4g} ({gap.note})")
            guarded("uniqueness gap", check_gap)

    res.artifacts.extend(emit_report(res.reports, out, summary_lines=summary))
    return res


def emit_report(reports, out_dir, summary_lines=()) -> list[str]:
    """Write the deterministic report artifacts: rates.csv, summary.txt, plot script.

    Identical inputs yield byte-identical files; an empty report list still
    produces the header-only table and the summary skeleton.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rate_reports = [r for r in reports if isinstance(r, RateReport)]
    _write_rates_csv(out / "rates.csv", rate_reports)
    lines = list(summary_lines) if summary_lines else ["report"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    _write_plot_script(out / "plot_results.py")
    return ["rates.csv", "summary.txt", "plot_results.py"]


def _format_diagnostics(diagnostics: dict) -> str:
    """``key=value`` pairs in sorted key order, floats at 6 significant digits."""
    def value(v) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(value(x) for x in v) + "]"
        return str(v)

    return ", ".join(f"{k}={value(diagnostics[k])}" for k in sorted(diagnostics))


def _fmt(x: float) -> str:
    # 12 significant digits, scientific notation
    return f"{x:.11e}"


def _write_solution_csv(path: Path, prob: EllipticProblem, fld) -> None:
    mesh = prob.mesh
    d = mesh.boundary_distance()
    prof = np.full(mesh.nodes.size, np.nan)
    inner = d > 0.0
    prof[inner] = profile_of_distance(prob.nl, prob.p, prob.kernel, d[inner])
    with open(path, "w") as fh:
        fh.write("x,d,value,profile,ratio\n")
        for i, x in enumerate(mesh.nodes):
            ratio = fld.values[i] / prof[i] if np.isfinite(prof[i]) else float("nan")
            fh.write(",".join(_fmt(v) for v in (x, d[i], fld.values[i], prof[i], ratio)) + "\n")


def _write_trajectory_csv(path: Path, prob: ParabolicProblem, fld) -> None:
    mesh = fld.mesh
    d = mesh.boundary_distance()
    inner = d > 0.0
    prof = np.full(mesh.nodes.size, np.nan)
    prof[inner] = profile_of_distance(prob.nl, prob.p, prob.weight.kernel, d[inner])
    _, b0 = frozen_coefficient(fld, prob)
    rows = np.nonzero(fld.times > 0.0)[0]
    t = fld.times[rows]
    xi, xis = space_free_values(prob, t)
    # the frozen-coefficient curve of b0 * f at t is the curve of f at b0 * t,
    # which for b0 = 1 is the plain curve
    tau = xi if b0 == 1.0 else BlowdownCurve(prob.nl).value(b0 * t)
    # x, d and the profile repeat across steps, t and the curves across nodes:
    # each is formatted once, and str.join puts them around a step's values.
    # format_e11_rows formats the values a chunk of steps at a time, and each
    # chunk is written before the next is formatted.  It hands a value to
    # Python's "%.11e" (what _fmt writes) only where its own digits are not
    # proven exact: nan, inf, zeros, magnitudes outside [1e-11, 1e34), and
    # values within 1e-3 of a rounding tie in the 12th digit
    n = mesh.nodes.size
    parts = [None] * (5 * n)
    parts[1::5] = [f"{_fmt(x)},{_fmt(dv)}," for x, dv in zip(mesh.nodes, d)]
    parts[4::5] = [f",{_fmt(pv)}\n" for pv in prof]
    with open(path, "w") as fh:
        fh.write("t,x,d,value,curve_plain,curve_effective,curve_frozen,profile\n")
        for c in range(0, rows.size, _CSV_CHUNK_STEPS):
            chunk = rows[c:c + _CSV_CHUNK_STEPS]
            for k, values in zip(range(c, c + chunk.size), format_e11_rows(fld.values[chunk])):
                parts[0::5] = [f"{_fmt(t[k])},"] * n
                parts[2::5] = values
                parts[3::5] = [f",{_fmt(xi[k])},{_fmt(xis[k])},{_fmt(tau[k])}"] * n
                fh.write("".join(parts))


def _write_rates_csv(path: Path, reports: list[RateReport]) -> None:
    cols = ("name", "predicted", "extrapolated", "rel_error", "tolerance",
            "converged", "passed", "rungs")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rep in reports:
            row = rep.row()
            fh.write(",".join(
                row["name"] if c == "name" else
                (str(row[c]) if c in ("converged", "passed", "rungs") else _fmt(row[c]))
                for c in cols) + "\n")


_PLOT_SCRIPT = '''"""Plot the CSV artifacts written next to this script."""
import csv
import pathlib

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = pathlib.Path(__file__).parent

sol = here / "solutions.csv"
if sol.exists():
    rows = list(csv.DictReader(open(sol)))
    d = [float(r["d"]) for r in rows if float(r["d"]) > 0]
    ratio = [float(r["ratio"]) for r in rows if float(r["d"]) > 0]
    fig, ax = plt.subplots()
    ax.semilogx(d, ratio, ".")
    ax.set_xlabel("boundary distance d")
    ax.set_ylabel("value / boundary profile")
    fig.savefig(here / "steady_ratio.png", dpi=150)

traj = here / "trajectory.csv"
if traj.exists():
    rows = list(csv.DictReader(open(traj)))
    xs = sorted({float(r["x"]) for r in rows})
    mid = xs[len(xs) // 2]
    t = [float(r["t"]) for r in rows if float(r["x"]) == mid]
    v = [float(r["value"]) for r in rows if float(r["x"]) == mid]
    c = [float(r["curve_frozen"]) for r in rows if float(r["x"]) == mid]
    fig, ax = plt.subplots()
    ax.loglog(t, v, label="solution at midpoint")
    ax.loglog(t, c, "--", label="space-free curve")
    ax.set_xlabel("t")
    ax.legend()
    fig.savefig(here / "initial_layer.png", dpi=150)

print("plots written to", here)
'''


def _write_plot_script(path: Path) -> None:
    path.write_text(_PLOT_SCRIPT)
