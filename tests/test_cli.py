import csv
import hashlib
import textwrap
from pathlib import Path

import pytest

from blowuplab import experiment
from blowuplab.cli import main
from blowuplab.errors import ConfigError, SolverError
from blowuplab.experiment import ExperimentConfig, emit_report, load_config, run_experiment
from blowuplab.geometry import build_graded_mesh, interval
from blowuplab.elliptic import EllipticProblem
from blowuplab.nonlinearity import power
from blowuplab.rates import boundary_rate
import numpy as np

MINIMAL = textwrap.dedent("""
    [problem]
    domain = interval
    p = 2.0
    absorption = power(2)
    kernel = const
    amplitude = 1.0
    t_star = 0.2

    [solver]
    n_cells = 120
    n_steps = 60
    eps_rungs = 2
    eps_start = 0.05

    [verification]
    checks = conditions, elliptic_rate, boundary_rate, sandwich
    boundary_t0 = 0.1
    pde_rtol = 0.15

    [output]
    directory = out
""")


@pytest.fixture
def minimal_cfg(tmp_path):
    p = tmp_path / "minimal.cfg"
    p.write_text(MINIMAL)
    return p


def test_load_minimal_config_fills_defaults(minimal_cfg):
    cfg = load_config(minimal_cfg)
    assert cfg.n_cells == 120
    assert cfg.cap_factor == 2.0  # default
    assert cfg.boundary_t0 == (0.1,)
    assert cfg.name == "minimal"


def test_index_gate_rejection(tmp_path):
    # p = 4, quadratic absorption, constant kernel: bound max{1,3,3} = 3 > 2
    p = tmp_path / "gate.cfg"
    p.write_text(MINIMAL.replace("p = 2.0", "p = 4.0"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert any("index gate" in v and "3" in v for v in err.value.violations)


def test_unknown_kernel_named(tmp_path):
    p = tmp_path / "kern.cfg"
    p.write_text(MINIMAL.replace("kernel = const", "kernel = cubic"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert any("cubic" in v for v in err.value.violations)


def test_all_violations_collected(tmp_path):
    text = MINIMAL.replace("kernel = const", "kernel = cubic")
    text = text.replace("n_cells = 120", "n_cells = 2")
    text += "\n[problem]\n"  # duplicate section is a configparser error? keep simple:
    text = text.replace("\n[problem]\n", "", 1)  # undo; instead add unknown key
    p = tmp_path / "multi.cfg"
    p.write_text(MINIMAL.replace("kernel = const", "kernel = cubic")
                 .replace("n_cells = 120", "n_cells = 2")
                 .replace("[solver]", "[solver]\nwidget = 3"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    v = err.value.violations
    assert len(v) >= 3
    assert any("cubic" in s for s in v)
    assert any("n_cells" in s for s in v)
    assert any("widget" in s for s in v)


@pytest.mark.parametrize("amplitude", ["inf", "nan", "0"])
def test_amplitude_must_be_positive_and_finite(tmp_path, amplitude):
    p = tmp_path / "amplitude.cfg"
    p.write_text(MINIMAL.replace("amplitude = 1.0", f"amplitude = {amplitude}"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.violations == [
        f"[problem] amplitude = '{amplitude}': amplitude must be positive and finite"]


def test_cap_rtol_is_an_unknown_key(tmp_path):
    # the collar ladder has no stop rule, so no tolerance sets one
    p = tmp_path / "rtol.cfg"
    p.write_text(MINIMAL.replace("[solver]", "[solver]\ncap_rtol = 1e-6"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.violations == ["unknown key 'cap_rtol' in [solver]"]


def test_ode_rtol_is_an_unknown_key(tmp_path):
    # no check reads a curve or quadrature tolerance, so none is configured
    p = tmp_path / "rtol.cfg"
    p.write_text(MINIMAL.replace("pde_rtol = 0.15", "pde_rtol = 0.15\node_rtol = 1e-3"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.violations == ["unknown key 'ode_rtol' in [verification]"]


def test_readme_configuration_is_valid(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.cfg"
    p.write_text(block)
    cfg = load_config(p)
    assert cfg.checks == ("conditions", "elliptic_rate", "boundary_rate", "initial_rate", "sandwich")
    assert cfg.eps_rungs == 3


def test_horizon_keys_are_unknown(tmp_path, capsys):
    # t_star is the solved window; no computation reads a horizon
    p = tmp_path / "horizon.cfg"
    p.write_text(MINIMAL.replace("[problem]", "[problem]\nhorizon = 0.5\nallow_full_horizon = true"))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.violations == ["unknown key 'horizon' in [problem]",
                                    "unknown key 'allow_full_horizon' in [problem]"]
    assert main(["validate", str(p)]) == 2
    assert "unknown key 'horizon' in [problem]" in capsys.readouterr().out


@pytest.mark.parametrize("defaults", ["t_star = 0.1", "n_cells = 64"])
def test_default_section_is_refused_by_name(tmp_path, defaults):
    # configparser would apply [DEFAULT]'s keys to every section
    p = tmp_path / "defaults.cfg"
    p.write_text(f"[DEFAULT]\n{defaults}\n" + MINIMAL.replace("t_star = 0.2\n", ""))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.violations == ["unknown section [DEFAULT]"]


EVERY_KEY = textwrap.dedent("""
    [problem]
    domain = ball
    a = -1.0
    b = 2.0
    radius = 2.0
    dimension = 3
    p = 2.5
    absorption = power(3)
    kernel = power(1)
    amplitude = 3.0
    t_star = 0.3

    [solver]
    n_cells = 64
    mesh_grading = 1.5
    cap_base = 5.0
    cap_factor = 3.0
    cap_margin = 2.0
    max_cap_rungs = 50
    eps_start = 0.02
    eps_factor = 0.25
    eps_rungs = 5
    n_steps = 40
    time_grading = 1.5

    [verification]
    checks = sandwich, uniqueness
    boundary_t0 = 0.05, 0.15
    initial_window = 2e-3, 5e-2
    pde_rtol = 0.2
    sandwich_bounds = 1e-2, 1e2
    ladder_ratio = 3.0

    [output]
    directory = results
""")


def test_every_key_loads_into_its_attribute(tmp_path):
    expected = {
        "domain_kind": "ball", "a": -1.0, "b": 2.0, "radius": 2.0, "dimension": 3, "p": 2.5,
        "absorption": "power(3)", "kernel": "power(1)", "amplitude": 3.0, "t_star": 0.3,
        "n_cells": 64, "mesh_grading": 1.5, "cap_base": 5.0, "cap_factor": 3.0,
        "cap_margin": 2.0, "max_cap_rungs": 50, "eps_start": 0.02, "eps_factor": 0.25,
        "eps_rungs": 5, "n_steps": 40, "time_grading": 1.5,
        "checks": ("sandwich", "uniqueness"), "boundary_t0": (0.05, 0.15),
        "initial_window": (2e-3, 5e-2), "pde_rtol": 0.2, "sandwich_bounds": (1e-2, 1e2),
        "ladder_ratio": 3.0, "directory": "results",
    }
    p = tmp_path / "every.cfg"
    p.write_text(EVERY_KEY)
    # the file sets every key of the grammar, each to a value other than its default
    written = {line.split(" = ")[0] for line in EVERY_KEY.splitlines() if " = " in line}
    assert written == {key for keys in experiment._GRAMMAR.values() for key in keys}
    cfg, default = load_config(p), ExperimentConfig()
    for attr, value in expected.items():
        assert getattr(default, attr) != value, attr
        assert getattr(cfg, attr) == value, attr


def test_validate_subcommand(minimal_cfg, capsys):
    assert main(["validate", str(minimal_cfg)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_reports_violations(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(MINIMAL.replace("p = 2.0", "p = 4.0"))
    assert main(["validate", str(p)]) == 2
    assert "index gate" in capsys.readouterr().out


def test_run_pipeline_and_artifacts(minimal_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["--out", str(out), "run", str(minimal_cfg)])
    assert rc == 0
    for name in ("solutions.csv", "trajectory.csv", "rates.csv", "summary.txt",
                 "plot_results.py"):
        assert (out / name).exists(), name
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0].startswith("name,predicted,extrapolated")
    assert len(rates) >= 3  # header + steady + one time slice
    summary = (out / "summary.txt").read_text()
    assert "ok" in summary and "FAIL" not in summary


def test_rates_csv_rows_match_header(minimal_cfg, tmp_path):
    out = tmp_path / "results"
    assert main(["--out", str(out), "run", str(minimal_cfg)]) == 0
    with open(out / "rates.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        header = reader.fieldnames
    assert len(header) == 8
    assert any(r["name"].startswith("boundary-rate[") for r in rows)
    for row in rows:
        assert None not in row, row  # surplus fields land under the key None
        assert all(row[c] is not None for c in header), row


def test_run_is_deterministic(minimal_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "run", str(minimal_cfg)]) == 0
    assert main(["--out", str(out2), "run", str(minimal_cfg)]) == 0

    def digest(folder):
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in Path(folder).iterdir()}

    assert digest(out1) == digest(out2)


def test_tightened_tolerance_fails_but_retains_reports(tmp_path):
    out = tmp_path / "strict"
    p = tmp_path / "strict.cfg"
    p.write_text(MINIMAL.replace("pde_rtol = 0.15", "pde_rtol = 0.0003"))
    rc = main(["--out", str(out), "run", str(p)])
    assert rc == 1
    rates = (out / "rates.csv").read_text().splitlines()
    assert len(rates) >= 2  # reports retained
    assert "FAIL" in (out / "summary.txt").read_text()


def test_solve_only_run(tmp_path):
    p = tmp_path / "solve_only.cfg"
    p.write_text(MINIMAL.replace(
        "checks = conditions, elliptic_rate, boundary_rate, sandwich",
        "checks = boundary_rate").replace("checks = boundary_rate", "checks ="))
    out = tmp_path / "so"
    rc = main(["--out", str(out), "run", str(p)])
    assert rc == 0
    # no reports: header-only rates table
    assert (out / "rates.csv").read_text().splitlines()[0].startswith("name,")
    assert len((out / "rates.csv").read_text().splitlines()) == 1


def test_suite_runs(tmp_path):
    rc = main(["--out", str(tmp_path / "suite"), "suite", "power-beta4"])
    assert rc == 0
    assert (tmp_path / "suite" / "power-interval-beta4" / "rates.csv").exists()


def test_power_log_suite_passes_every_rate(tmp_path):
    rc = main(["--out", str(tmp_path / "suite"), "suite", "power-log"])
    assert rc == 0
    with (tmp_path / "suite" / "power-log-interval" / "rates.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(row["passed"] == "1" for row in rows)


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["suite", "nonexistent"])


def test_tolerance_scale_flag_is_rejected(minimal_cfg, tmp_path):
    # each configuration sets its own pass tolerance (pde_rtol)
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--tolerance-scale", "0.5", "run", str(minimal_cfg)])
    assert exc.value.code == 2


def test_empty_reports_summary(tmp_path):
    cfg = ExperimentConfig(name="bare", n_cells=24, n_steps=8, checks=(),
                           eps_rungs=0)
    res = run_experiment(cfg, out_dir=tmp_path / "bare")
    assert res.passed
    assert (tmp_path / "bare" / "summary.txt").read_text().startswith("experiment bare")


def test_emit_report_empty_and_single(tmp_path):
    files = emit_report([], tmp_path / "empty", summary_lines=["report header"])
    assert set(files) == {"rates.csv", "summary.txt", "plot_results.py"}
    assert (tmp_path / "empty" / "rates.csv").read_text().splitlines() == [
        "name,predicted,extrapolated,rel_error,tolerance,converged,passed,rungs"]
    assert (tmp_path / "empty" / "summary.txt").read_text() == "report header\n"

    # a single synthetic report yields one data row; re-emitting is identical
    mesh = build_graded_mesh(interval(0.0, 1.0), 200, 2.0)
    prob = EllipticProblem(mesh=mesh, p=2.0, nl=power(2))
    d = mesh.boundary_distance()
    vals = np.full(mesh.nodes.size, 1e300)
    vals[d > 0] = 6.0 / d[d > 0] ** 2
    from blowuplab.elliptic import GridFunction
    rep = boundary_rate(GridFunction(mesh=mesh, values=vals, blowup=True), prob)
    emit_report([rep], tmp_path / "one")
    rows = (tmp_path / "one" / "rates.csv").read_text()
    assert len(rows.splitlines()) == 2
    emit_report([rep], tmp_path / "one_again")
    assert rows == (tmp_path / "one_again" / "rates.csv").read_text()


def test_sandwich_without_collar_ladder_is_a_failure(tmp_path):
    cfg = ExperimentConfig(name="nocollar", n_cells=32, n_steps=12,
                           checks=("sandwich",), eps_rungs=0)
    res = run_experiment(cfg, out_dir=tmp_path / "nocollar")
    assert not res.passed
    assert any("eps_rungs" in f for f in res.failures)


def test_coarsest_steady_rate_is_a_named_failure(tmp_path):
    # 8 cells is the coarsest mesh the grammar accepts: too few nodes for the rate ladder
    cfg = ExperimentConfig(name="coarse", n_cells=8, n_steps=12, checks=("elliptic_rate",),
                           eps_rungs=0)
    res = run_experiment(cfg, out_dir=tmp_path / "coarse")
    assert not res.passed
    assert any("too few near-boundary nodes" in f for f in res.failures)
    assert "FAIL" in (tmp_path / "coarse" / "summary.txt").read_text()


def test_wide_collar_is_a_named_failure(tmp_path):
    # a collar of 0.3 on 8 cells leaves fewer than 5 nodes in the shrunken domain
    cfg = ExperimentConfig(name="wide", n_cells=8, n_steps=12, checks=("sandwich",),
                           eps_start=0.3)
    res = run_experiment(cfg, out_dir=tmp_path / "wide")
    assert not res.passed
    assert any(f.startswith("maximal solution failed") and "fewer than 5 nodes" in f
               for f in res.failures)
    assert "FAIL" in (tmp_path / "wide" / "summary.txt").read_text()


def test_cap_margin_reaches_the_evolution_ladder(tmp_path):
    # a larger margin raises the ceiling, so the minimal solution marches at
    # a larger cap and its trajectory moves
    def trajectory(name, **kw):
        cfg = ExperimentConfig(name=name, n_cells=32, n_steps=12, checks=("boundary_rate",),
                               eps_rungs=0, **kw)
        run_experiment(cfg, out_dir=tmp_path / name)
        return (tmp_path / name / "trajectory.csv").read_bytes()

    assert trajectory("margin64", cap_margin=64.0) != trajectory("default")


def test_solver_error_diagnostics_reach_the_summary(tmp_path, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise SolverError("x", {"merit": 1.5e-9, "history": [2.0, 1.5e-9], "rungs": 3})

    monkeypatch.setattr(experiment, "solve_elliptic_blowup", failing_solve)
    cfg = ExperimentConfig(name="diag", n_cells=32, n_steps=12, checks=("elliptic_rate",),
                           eps_rungs=0)
    res = run_experiment(cfg, out_dir=tmp_path / "diag")
    assert not res.passed
    line = "FAIL steady companion solve failed: x (history=[2, 1.5e-09], merit=1.5e-09, rungs=3)"
    assert line in (tmp_path / "diag" / "summary.txt").read_text().splitlines()
